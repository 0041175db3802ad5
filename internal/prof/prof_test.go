package prof

import (
	"math"
	"testing"
)

// Test phases; registered once — the registry is process-global.
var (
	phA = Register("ucudnn_ph_test_alpha")
	phB = Register("ucudnn_ph_test_beta")
)

// resetAll restores the profiler's global state between tests.
func resetAll(t *testing.T) {
	t.Helper()
	Disable()
	SetLayer("")
	Reset()
	t.Cleanup(func() {
		Disable()
		SetLayer("")
		Reset()
	})
}

func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name Phase, why string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Register(%q) did not panic (%s)", name, why)
			}
		}()
		Register(name)
	}
	mustPanic("gemm_sgemm", "missing prefix")
	mustPanic("ucudnn_ph", "no suffix segments")
	mustPanic("ucudnn_ph_Upper", "not snake_case")
	mustPanic("ucudnn_ph_test_alpha", "duplicate")

	if phaseName(phA) != "ucudnn_ph_test_alpha" || phaseName(phB) != "ucudnn_ph_test_beta" {
		t.Fatalf("registered kinds name %q, %q", phaseName(phA), phaseName(phB))
	}
}

func TestDisabledHooksAreInert(t *testing.T) {
	resetAll(t)
	if got := Begin("k"); got != 0 {
		t.Fatalf("Begin while disabled = %d, want 0", got)
	}
	if got := Enter(); got != 0 {
		t.Fatalf("Enter while disabled = %d, want 0", got)
	}
	if got := Since(0); got != 0 {
		t.Fatalf("Since(0) = %d, want 0", got)
	}
	Exit(phA, 0)
	LaunchEnd(4, 0, 400, 100)
	End(0)
	GrantWS(123)
	if rows := Snapshot(); len(rows) != 0 {
		t.Fatalf("disabled hooks recorded rows: %+v", rows)
	}
}

func TestAttribution(t *testing.T) {
	resetAll(t)
	Enable()
	SetLayer("conv1")
	start := Begin("Forward[test]")
	if start == 0 {
		t.Fatal("Begin returned the disabled token while enabled")
	}
	GrantWS(1 << 20)
	GrantWS(1 << 10) // lower grant must not move the high-watermark
	pt := Enter()
	spin()
	pt = Next(phA, pt)
	spin()
	Exit(phB, pt)
	End(start)

	rows := Snapshot()
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1: %+v", len(rows), rows)
	}
	r := rows[0]
	if r.Layer != "conv1" || r.Kernel != "Forward[test]" {
		t.Fatalf("row key = (%q, %q)", r.Layer, r.Kernel)
	}
	if r.Executions != 1 {
		t.Fatalf("executions = %d, want 1", r.Executions)
	}
	if r.WSHighWaterBytes != 1<<20 {
		t.Fatalf("ws high-watermark = %d, want %d", r.WSHighWaterBytes, 1<<20)
	}
	if len(r.Phases) != 2 {
		t.Fatalf("phases = %+v, want both test phases", r.Phases)
	}
	var sum int64
	for _, p := range r.Phases {
		if p.NS <= 0 || p.Count != 1 {
			t.Fatalf("phase %+v: want positive ns, count 1", p)
		}
		sum += p.NS
	}
	if sum != r.AttributedNS {
		t.Fatalf("attributed %d != phase sum %d", r.AttributedNS, sum)
	}
	// Serial path: measured is the kernel wall, and the two phase windows
	// tile a subset of it.
	if r.MeasuredNS != r.TotalNS {
		t.Fatalf("measured %d != total %d on a launch-free row", r.MeasuredNS, r.TotalNS)
	}
	if r.AttributedNS > r.TotalNS {
		t.Fatalf("attributed %d exceeds kernel wall %d", r.AttributedNS, r.TotalNS)
	}
	if r.Coverage <= 0 || r.Coverage > 1 {
		t.Fatalf("coverage = %v", r.Coverage)
	}
}

func TestOrphanRow(t *testing.T) {
	resetAll(t)
	Enable()
	// Phase window with no current kernel: lands on the unattributed row.
	Exit(phA, Enter())
	rows := Snapshot()
	if len(rows) != 1 || rows[0].Kernel != "(unattributed)" {
		t.Fatalf("rows = %+v, want a single unattributed row", rows)
	}
}

func TestImbalanceAccounting(t *testing.T) {
	resetAll(t)
	Enable()
	start := Begin("Kern")

	// Synthetic skewed launch: four workers busy 400, 100, 100 and 100 ns,
	// handed to LaunchEnd as their sum and maximum (what blas.Fork does).
	// The values are small against the launch's real wall (the spin), so
	// idle stays positive after the workers*wall - busy subtraction.
	ls := Enter()
	spin()
	LaunchEnd(4, ls, 700, 400)
	End(start)

	r := Snapshot()[0]
	if r.Workers.Launches != 1 {
		t.Fatalf("launches = %d, want 1", r.Workers.Launches)
	}
	if r.Workers.BusyNS != 700 {
		t.Fatalf("busy = %d, want 700", r.Workers.BusyNS)
	}
	want := 400.0 * 4 / 700.0 // max * workers / sum = 16/7
	if math.Abs(r.Workers.MaxImbalance-want) > 1e-4 || math.Abs(r.Workers.MeanImbalance-want) > 1e-4 {
		t.Fatalf("imbalance max=%v mean=%v, want %v", r.Workers.MaxImbalance, r.Workers.MeanImbalance, want)
	}
	if r.Workers.IdleNS <= 0 {
		t.Fatalf("idle = %d, want positive (wall*workers > busy)", r.Workers.IdleNS)
	}
	if r.Workers.MeanBusyRatio <= 0 || r.Workers.MeanBusyRatio >= 1 {
		t.Fatalf("mean busy ratio = %v", r.Workers.MeanBusyRatio)
	}
	// Measured folds launch busy time in place of the launch's wall.
	if r.MeasuredNS < r.Workers.BusyNS {
		t.Fatalf("measured %d < busy %d", r.MeasuredNS, r.Workers.BusyNS)
	}
}

func TestBalancedLaunchImbalanceIsOne(t *testing.T) {
	resetAll(t)
	Enable()
	start := Begin("Kern")
	ls := Enter()
	LaunchEnd(4, ls, 4*2500, 2500)
	End(start)
	r := Snapshot()[0]
	if math.Abs(r.Workers.MaxImbalance-1.0) > 1e-4 {
		t.Fatalf("balanced launch imbalance = %v, want 1.0", r.Workers.MaxImbalance)
	}
}

// TestHotPathAllocs pins the hot-path contract: zero allocations per
// hook, profiling disabled AND enabled.
func TestHotPathAllocs(t *testing.T) {
	resetAll(t)
	for _, enabled := range []bool{false, true} {
		if enabled {
			Enable()
			Begin("Kern")
		}
		name := map[bool]string{false: "disabled", true: "enabled"}[enabled]
		hooks := map[string]func(){
			"phase": func() {
				t := Enter()
				t = Next(phA, t)
				Exit(phB, t)
			},
			"launch": func() {
				ls := Enter()
				b := Since(Enter())
				LaunchEnd(2, ls, b, b)
			},
			"grant": func() { GrantWS(4096) },
		}
		for hook, f := range hooks {
			if n := testing.AllocsPerRun(100, f); n != 0 {
				t.Errorf("%s/%s: %v allocs/op, want 0", name, hook, n)
			}
		}
	}
}

// What the retired metrics bridge exported — per-phase durations and
// the launch imbalance — lives on in the row: one snapshot carries both.
func TestSetMetricsBridge(t *testing.T) {
	resetAll(t)
	Enable()
	Begin("Kern")
	Exit(phA, Enter())
	LaunchEnd(1, Enter(), 10, 10)

	rows := Snapshot()
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1: %+v", len(rows), rows)
	}
	r := rows[0]
	if len(r.Phases) != 1 || r.Phases[0].Phase != "ucudnn_ph_test_alpha" || r.Phases[0].NS <= 0 {
		t.Errorf("row lacks the phase window: %+v", r.Phases)
	}
	if r.Workers.Launches != 1 || math.Abs(r.Workers.MaxImbalance-1) > 1e-4 {
		t.Errorf("row lacks the one-worker launch's imbalance: %+v", r.Workers)
	}
}

// Phase totals are the per-phase sums of the rows (the profile report's
// top_phases): every recorded phase appears once per window, and a
// row lists its phases heaviest first.
func TestPhaseTotals(t *testing.T) {
	resetAll(t)
	Enable()
	Begin("Kern")
	Exit(phA, Enter())
	Exit(phB, Enter())
	totals := map[string]PhaseSnap{}
	for _, r := range Snapshot() {
		for i, p := range r.Phases {
			if i > 0 && r.Phases[i-1].NS < p.NS {
				t.Fatalf("row phases not sorted heaviest-first: %+v", r.Phases)
			}
			tot := totals[p.Phase]
			tot.NS += p.NS
			tot.Count += p.Count
			totals[p.Phase] = tot
		}
	}
	for _, ph := range []string{"ucudnn_ph_test_alpha", "ucudnn_ph_test_beta"} {
		if p := totals[ph]; p.NS <= 0 || p.Count != 1 {
			t.Errorf("total of %s = %+v: want positive ns, count 1", ph, p)
		}
	}
}

// spin burns a little CPU so phase windows are strictly positive.
func spin() {
	x := 1.0
	for i := 0; i < 1000; i++ {
		x *= 1.0000001
	}
	if x < 0 {
		panic("unreachable")
	}
}
