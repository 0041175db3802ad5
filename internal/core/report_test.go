package core

import (
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/tensor"
)

func TestHandleReport(t *testing.T) {
	h := newTestHandle(t, cudnn.ModelBackend, WithWorkspaceLimit(1<<20),
		WithAlgoFilter(func(op conv.Op, a conv.Algo) bool { return a == conv.AlgoGemm }))
	xd, wd, cd, yd, cs := smallConv(10)
	rng := rand.New(rand.NewSource(5))
	x := tensor.NewShaped(cs.In)
	x.Randomize(rng, 1)
	w := tensor.NewFilter(12, 8, 3, 3)
	w.Randomize(rng, 0.5)
	y := tensor.NewShaped(cs.OutShape())
	algo, _ := h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.SpecifyWorkspaceLimit, 1<<20)
	if err := h.ConvolutionForward(1, xd, x, wd, w, cd, algo, nil, 0, yd, y); err != nil {
		t.Fatal(err)
	}
	r := h.Report()
	if r.ID != h.id || r.Mode != "WR" || r.Policy != PolicyPowerOfTwo.String() {
		t.Fatalf("report header = %+v", r)
	}
	if r.Device == "" {
		t.Fatal("report device empty")
	}
	if r.WorkspaceLimit != 1<<20 || r.OptTimeNS <= 0 || r.ArenaBytes <= 0 {
		t.Fatalf("report accounting = %+v", r)
	}
	if len(r.Plans) != 1 {
		t.Fatalf("report plans = %d, want 1", len(r.Plans))
	}
	p := r.Plans[0]
	if !strings.HasPrefix(p.Kernel, "Forward") || p.Divisions < 1 || p.Config == "" {
		t.Fatalf("plan row = %+v", p)
	}
	if p.LimitBytes != 1<<20 || p.WorkspaceBytes <= 0 || p.WorkspaceBytes > p.LimitBytes {
		t.Fatalf("plan workspace accounting = %+v", p)
	}
	if p.Share <= 0 || p.Share > 1 {
		t.Fatalf("plan share = %g", p.Share)
	}
}

func TestHandleReportWD(t *testing.T) {
	h := newTestHandle(t, cudnn.ModelOnlyBackend, WithWD(4<<20))
	xd, wd, cd, yd, _ := smallConv(8)
	if _, err := h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.SpecifyWorkspaceLimit, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.FinalizeRegistration(); err != nil {
		t.Fatal(err)
	}
	r := h.Report()
	if r.Mode != "WD" || r.TotalWorkspaceLimit != 4<<20 {
		t.Fatalf("WD report header = %+v", r)
	}
	if len(r.Plans) != 1 || r.Plans[0].LimitBytes != 4<<20 {
		t.Fatalf("WD plan rows = %+v", r.Plans)
	}
}

// A dropped handle must be collectable: nothing package-level may
// retain it (or its multi-MiB workspace arena) after its owner lets go.
func TestDroppedHandleIsCollectable(t *testing.T) {
	const n = 8
	var freed atomic.Int32
	for i := 0; i < n; i++ {
		h := newTestHandle(t, cudnn.ModelOnlyBackend)
		runtime.SetFinalizer(h, func(*Handle) { freed.Add(1) })
	}
	for try := 0; try < 50 && freed.Load() < n; try++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != n {
		t.Fatalf("%d of %d dropped handles were collected", got, n)
	}
}
