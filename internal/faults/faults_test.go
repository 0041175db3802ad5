package faults

import (
	"errors"
	"strings"
	"testing"

	"ucudnn/internal/obs"
)

func TestNthTrigger(t *testing.T) {
	r := New(Rule{Point: PointConvolve, Trigger: Nth(3)})
	for i := 1; i <= 5; i++ {
		err := r.Err(PointConvolve)
		if (i == 3) != (err != nil) {
			t.Fatalf("call %d: err = %v, want fire exactly on call 3", i, err)
		}
		if err != nil {
			var inj *InjectedError
			if !errors.As(err, &inj) || inj.Point != PointConvolve || inj.Call != 3 {
				t.Fatalf("injected error = %v, want point %s call 3", err, PointConvolve)
			}
		}
	}
}

func TestEveryKTrigger(t *testing.T) {
	r := New(Rule{Point: PointFind, Trigger: EveryK(2)})
	var fired []int
	for i := 1; i <= 6; i++ {
		if r.Hit(PointFind) {
			fired = append(fired, i)
		}
	}
	want := []int{2, 4, 6}
	if len(fired) != len(want) {
		t.Fatalf("fired on calls %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired on calls %v, want %v", fired, want)
		}
	}
}

func TestProbTriggerDeterministic(t *testing.T) {
	run := func() []int64 {
		r := New(Rule{Point: PointConvolve, Trigger: Prob(0.3, 42)})
		for i := 0; i < 100; i++ {
			r.Err(PointConvolve)
		}
		var calls []int64
		for _, s := range r.Shots() {
			calls = append(calls, s.Call)
		}
		return calls
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("prob(0.3) never fired in 100 calls")
	}
	if len(a) != len(b) {
		t.Fatalf("two seeded runs fired %d vs %d times", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded runs diverge: %v vs %v", a, b)
		}
	}
}

func TestGrantShrinkAndDeny(t *testing.T) {
	r := New(
		Rule{Point: PointArenaGrow, Trigger: Nth(2), Shrink: 4},
		Rule{Point: PointDnnWorkspace, Trigger: Nth(1)},
	)
	if got := r.Grant(PointArenaGrow, 1024); got != 1024 {
		t.Fatalf("unfired grant = %d, want passthrough 1024", got)
	}
	if got := r.Grant(PointArenaGrow, 1024); got != 256 {
		t.Fatalf("shrunk grant = %d, want 1024/4", got)
	}
	if got := r.Grant(PointDnnWorkspace, 1024); got != 0 {
		t.Fatalf("denied grant = %d, want 0", got)
	}
	if log, want := r.ShotLog(), "ucudnn_fp_arena_grow@2(shrink:4);ucudnn_fp_dnn_workspace@1(deny)"; log != want {
		t.Fatalf("shot log %q, want %q", log, want)
	}
}

// Every effect logs its shot under its own name: the shot log is the
// replay record, so these strings are part of the contract.
func TestShotEffectNames(t *testing.T) {
	r := New(
		Rule{Point: PointConvolve, Trigger: Nth(1)},
		Rule{Point: PointFind, Trigger: Nth(1)},
		Rule{Point: PointCacheLoad, Trigger: Nth(1)},
	)
	r.Err(PointConvolve)
	r.Hit(PointFind)
	r.Mangle(PointCacheLoad, nil)
	want := "ucudnn_fp_convolve@1(error);ucudnn_fp_find@1(skip);ucudnn_fp_cache_load@1(corrupt)"
	if log := r.ShotLog(); log != want {
		t.Fatalf("shot log %q, want %q", log, want)
	}
}

func TestMangle(t *testing.T) {
	r := New(Rule{Point: PointCacheLoad, Trigger: Nth(2)})
	line := []byte(`{"key":"k"}`)
	if got := r.Mangle(PointCacheLoad, line); string(got) != string(line) {
		t.Fatalf("unfired mangle changed data: %q", got)
	}
	got := r.Mangle(PointCacheLoad, line)
	if string(got) == string(line) {
		t.Fatal("fired mangle left data intact")
	}
	if string(line) != `{"key":"k"}` {
		t.Fatalf("mangle modified its input in place: %q", line)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	specs := []string{
		"ucudnn_fp_convolve=nth:3",
		"ucudnn_fp_find=every:2;ucudnn_fp_arena_grow=nth:1,shrink=4",
		"ucudnn_fp_ooc_spill=prob:0.25:7",
	}
	for _, spec := range specs {
		r, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := r.String(); got != spec {
			t.Fatalf("round trip: Parse(%q).String() = %q", spec, got)
		}
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"convolve=nth:3",                    // point not ucudnn_fp_*
		"ucudnn_fp_convolve",                // no trigger
		"ucudnn_fp_convolve=nth:0",          // non-positive count
		"ucudnn_fp_convolve=sometimes:1",    // unknown kind
		"ucudnn_fp_convolve=prob:1.5:1",     // probability out of range
		"ucudnn_fp_convolve=nth:1,shrink=1", // shrink < 2
		"ucudnn_fp_convolve=nth:1,frob=2",   // unknown option
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

// A well-formed name that no site declares would arm nothing and fire
// nothing; Parse rejects it and lists the points that exist.
func TestParseRejectsUndeclaredPoint(t *testing.T) {
	_, err := Parse("ucudnn_fp_convolv=every:1")
	if err == nil {
		t.Fatal("Parse accepted a misspelled point")
	}
	for _, name := range pointNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
}

func TestReplayFromSpecReproducesShots(t *testing.T) {
	spec := "ucudnn_fp_convolve=prob:0.4:99;ucudnn_fp_find=every:3"
	drive := func(r *Registry) string {
		for i := 0; i < 50; i++ {
			r.Err(PointConvolve)
			r.Hit(PointFind)
		}
		return r.ShotLog()
	}
	r1, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Parse(r1.String())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := drive(r1), drive(r2); a != b {
		t.Fatalf("replay diverged:\n first: %s\nsecond: %s", a, b)
	}
}

// A nil registry is a run with no schedule: no point fires, grants and
// data pass through, and the reporting methods read empty.
func TestNilRegistryFiresNothing(t *testing.T) {
	var r *Registry
	if err := r.Err(PointConvolve); err != nil {
		t.Fatalf("nil registry injected: %v", err)
	}
	if r.Hit(PointFind) {
		t.Fatal("nil registry hit")
	}
	if got := r.Grant(PointArenaGrow, 64); got != 64 {
		t.Fatalf("nil registry grant = %d, want 64", got)
	}
	if got := r.Mangle(PointCacheLoad, []byte("x")); string(got) != "x" {
		t.Fatalf("nil registry mangled data: %q", got)
	}
	r.SetMetrics(obs.NewRegistry())
	if r.String() != "" || r.ShotLog() != "" || r.Shots() != nil {
		t.Fatal("nil registry reports rules or shots")
	}
}

func TestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	r := New(Rule{Point: PointConvolve, Trigger: EveryK(1)})
	r.SetMetrics(reg)
	r.Err(PointConvolve)
	r.Err(PointConvolve)
	got := reg.Counter(MetricFaultInjected, obs.L("point", PointConvolve.String())).Value()
	if got != 2 {
		t.Fatalf("%s{point=%s} = %v, want 2", MetricFaultInjected, PointConvolve, got)
	}
}

func TestArmReplacesRule(t *testing.T) {
	r := New(Rule{Point: PointConvolve, Trigger: Nth(1)})
	r.Arm(Rule{Point: PointConvolve, Trigger: Nth(2)})
	if r.Hit(PointConvolve) {
		t.Fatal("replaced rule kept old trigger")
	}
	if !r.Hit(PointConvolve) {
		t.Fatal("replaced rule did not reset call count")
	}
	if got := r.String(); got != "ucudnn_fp_convolve=nth:2" {
		t.Fatalf("String() after re-arm = %q", got)
	}
}
