package dnn

import (
	"testing"
	"time"

	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/tensor"
	"ucudnn/internal/trace"
)

// buildBranchyNet makes a two-branch diamond whose branches can overlap.
func buildBranchyNet(ctx *Context) *Net {
	net := NewNet(ctx)
	net.Input("data", tensor.Shape{N: 32, C: 16, H: 14, W: 14})
	net.Add(NewConv("a.conv", 16, 3, 1, 1, false), "a", "data")
	net.Add(NewConv("b.conv", 16, 3, 1, 1, false), "b", "data")
	net.Add(NewAdd("join"), "sum", "a", "b")
	return net
}

func schedCtx() *Context {
	h := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	ctx := NewContext(h, h, 8<<20)
	return ctx
}

func TestScheduleSequentialEqualsSum(t *testing.T) {
	net := buildBranchyNet(schedCtx())
	rep, err := net.Time(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := net.ScheduleForward(rep, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Makespan != rep.TotalForward() {
		t.Fatalf("1-stream makespan %v != sequential forward %v", s.Makespan, rep.TotalForward())
	}
}

func TestScheduleOverlapsBranches(t *testing.T) {
	net := buildBranchyNet(schedCtx())
	rep, err := net.Time(1)
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := net.ScheduleForward(rep, 1)
	par, err := net.ScheduleForward(rep, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := par.Validate(); err != nil {
		t.Fatal(err)
	}
	if par.Makespan >= seq.Makespan {
		t.Fatalf("2 streams (%v) must beat 1 stream (%v)", par.Makespan, seq.Makespan)
	}
	// The two conv branches must actually run on different streams.
	tracks := map[string]int{}
	for _, ev := range par.Spans {
		tracks[ev.Name] = ev.Track
	}
	if tracks["a.conv"] == tracks["b.conv"] {
		t.Fatal("branches were not parallelized")
	}
	// Critical path bounds any schedule from below.
	cp, err := net.CriticalPath(rep)
	if err != nil {
		t.Fatal(err)
	}
	if par.Makespan < cp {
		t.Fatalf("makespan %v below critical path %v", par.Makespan, cp)
	}
}

// A pure chain cannot benefit from extra streams.
func TestScheduleChainInsensitiveToStreams(t *testing.T) {
	ctx := schedCtx()
	net := NewNet(ctx)
	net.Input("data", tensor.Shape{N: 16, C: 8, H: 10, W: 10})
	net.Add(NewConv("c1", 8, 3, 1, 1, false), "c1", "data")
	net.Add(NewReLU("r1"), "r1", "c1")
	net.Add(NewConv("c2", 8, 3, 1, 1, false), "c2", "r1")
	rep, err := net.Time(1)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := net.ScheduleForward(rep, 1)
	s4, _ := net.ScheduleForward(rep, 4)
	if s1.Makespan != s4.Makespan {
		t.Fatalf("chain makespan changed with streams: %v vs %v", s1.Makespan, s4.Makespan)
	}
}

func TestScheduleErrors(t *testing.T) {
	net := buildBranchyNet(schedCtx())
	rep, err := net.Time(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.ScheduleForward(rep, 0); err == nil {
		t.Fatal("zero streams must error")
	}
	bad := &TimingReport{Layers: rep.Layers[:1]}
	if _, err := net.ScheduleForward(bad, 2); err == nil {
		t.Fatal("layer-count mismatch must error")
	}
	unready := NewNet(schedCtx())
	if _, err := unready.ScheduleForward(rep, 1); err == nil {
		t.Fatal("unset-up net must error")
	}
}

func TestValidateDetectsOverlap(t *testing.T) {
	s := &Schedule{Spans: []trace.Event{
		{Name: "a", Track: 0, Start: 0, Dur: 10 * time.Microsecond},
		{Name: "b", Track: 0, Start: 5 * time.Microsecond, Dur: 10 * time.Microsecond},
	}}
	if err := s.Validate(); err == nil {
		t.Fatal("overlap not detected")
	}
}
