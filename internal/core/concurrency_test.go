package core

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/faults"
	"ucudnn/internal/tensor"
	"ucudnn/internal/trace"
)

// The µ-cuDNN handle must survive concurrent planning from multiple
// goroutines (frameworks set up layers in parallel); run with -race.
func TestHandleConcurrentPlanning(t *testing.T) {
	h := newTestHandle(t, cudnn.ModelOnlyBackend, WithWorkspaceLimit(4<<20))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Different channel counts -> different kernels.
			c := 4 + (i % 4)
			xd, _ := cudnn.NewTensorDesc(16, c, 12, 12)
			wd, _ := cudnn.NewFilterDesc(8, c, 3, 3)
			cd, _ := cudnn.NewConvDesc(1, 1, 1, 1, 1, 1)
			yd, _ := cudnn.GetOutputDim(xd, wd, cd)
			algo, err := h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.PreferFastest, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if err := h.ConvolutionForward(1, xd, nil, wd, nil, cd, algo, nil, 0, yd, nil); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := len(h.Plans()); got != 4 {
		t.Fatalf("plans = %d, want 4 unique kernels", got)
	}
}

// Concurrent execution on one handle with a compute backend and real
// tensors: every goroutine shares the handle's workspace arena, so this
// is the -race witness for the execMu serialization (the arena snapshot
// in execute used to race with growArena). Outputs must still be right.
func TestHandleConcurrentExecuteRace(t *testing.T) {
	h := newTestHandle(t, cudnn.ModelBackend, WithWorkspaceLimit(1<<20))
	xd, wd, cd, yd, cs := smallConv(10)
	rng := rand.New(rand.NewSource(11))
	w := tensor.NewFilter(12, 8, 3, 3)
	w.Randomize(rng, 0.5)
	const G = 8
	xs := make([]*tensor.Tensor, G)
	ys := make([]*tensor.Tensor, G)
	refs := make([]*tensor.Tensor, G)
	for i := range xs {
		xs[i] = tensor.NewShaped(cs.In)
		xs[i].Randomize(rng, 1)
		ys[i] = tensor.NewShaped(cs.OutShape())
		refs[i] = tensor.NewShaped(cs.OutShape())
		if err := conv.Run(conv.Forward, conv.AlgoDirect, cs, xs[i], w, refs[i], 1, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	algo, err := h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.SpecifyWorkspaceLimit, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < G; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := h.ConvolutionForward(1, xd, xs[i], wd, w, cd, algo, nil, 0, yd, ys[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for i := range ys {
		if !tensor.AllClose(ys[i].Data, refs[i].Data, 1e-3, 1e-3) {
			t.Fatalf("goroutine %d output wrong: maxdiff %g", i, tensor.MaxAbsDiff(ys[i].Data, refs[i].Data))
		}
	}
}

// Concurrent cache access with a file DB must be race-free and lose no
// entries.
func TestCacheConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")
	c, err := NewCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cs := tensor.ConvShape{
				In:     tensor.Shape{N: i + 1, C: 3, H: 8, W: 8},
				Filt:   tensor.Filter{K: 4, C: 3, R: 3, S: 3},
				Params: tensor.Unit,
			}
			key := CacheKey("P100", cudnn.ModelOnlyBackend, conv.Forward, cs)
			if err := c.Put(key, []cudnn.AlgoPerf{{Algo: conv.AlgoGemm, Time: 1, Memory: int64(i)}}); err != nil {
				t.Error(err)
			}
			if _, ok := c.Get(key); !ok {
				t.Error("lost own entry")
			}
		}(i)
	}
	wg.Wait()
	if c.Len() != 16 {
		t.Fatalf("cache has %d entries, want 16", c.Len())
	}
	c.Close()
	c2, err := NewCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Len() != 16 {
		t.Fatalf("reloaded cache has %d entries, want 16", c2.Len())
	}
}

// DesirableSet with a zero limit must only contain zero-workspace
// algorithms.
func TestDesirableSetZeroLimit(t *testing.T) {
	b := modelBencher()
	k := Kernel{Op: conv.Forward, Shape: conv2Shape(16)}
	front, err := DesirableSet(b, k, 0, PolicyPowerOfTwo)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range front {
		if sc.Workspace != 0 {
			t.Fatalf("zero-limit front contains workspace %d", sc.Workspace)
		}
	}
}

// Two handles sharing a file DB: the second handle plans without
// re-benchmarking (offline benchmarking / cluster sharing, §III-D).
func TestFileDBSharedAcrossHandles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.jsonl")
	mk := func() *Handle {
		h, err := New(cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend),
			WithWorkspaceLimit(4<<20), WithCachePath(path))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	run := func(h *Handle) Plan {
		xd, _ := cudnn.NewTensorDesc(32, 8, 14, 14)
		wd, _ := cudnn.NewFilterDesc(16, 8, 3, 3)
		cd, _ := cudnn.NewConvDesc(1, 1, 1, 1, 1, 1)
		yd, _ := cudnn.GetOutputDim(xd, wd, cd)
		algo, _ := h.GetConvolutionForwardAlgorithm(xd, wd, cd, yd, cudnn.PreferFastest, 0)
		if err := h.ConvolutionForward(1, xd, nil, wd, nil, cd, algo, nil, 0, yd, nil); err != nil {
			t.Fatal(err)
		}
		return h.Plans()[0]
	}
	h1 := mk()
	p1 := run(h1)
	entries := h1.Cache().Len()
	if entries == 0 {
		t.Fatal("first handle cached nothing")
	}
	h1.Cache().Close()

	h2 := mk()
	if h2.Cache().Len() != entries {
		t.Fatalf("second handle loaded %d entries, want %d", h2.Cache().Len(), entries)
	}
	p2 := run(h2)
	if p1.Config.String() != p2.Config.String() {
		t.Fatalf("shared DB produced different plans: %v vs %v", p1.Config, p2.Config)
	}
	h2.Cache().Close()
}

// The attach path (SetTraceRecorder) may run while kernels execute: the
// degradation ladder's fault span and every TraceRecorder reader must
// read the recorder through the handle lock. Run under -race: a fault
// schedule drives every other call into the ladder while another
// goroutine toggles and reads the recorder.
func TestSetTraceRecorderDuringDegradeRace(t *testing.T) {
	xd, wd, cd, yd, cs := smallConv(8)
	h := newTestHandle(t, cudnn.ModelOnlyBackend, WithWorkspaceLimit(1<<20))
	faults.Install(faults.New(faults.Rule{Point: faults.PointConvolve, Trigger: faults.EveryK(2)}))
	defer faults.Install(nil)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			rec := trace.New()
			h.SetTraceRecorder(rec)
			if got := h.TraceRecorder(); got != rec {
				t.Error("TraceRecorder does not return the attached recorder")
			}
			h.SetTraceRecorder(nil)
		}
	}()
	x := tensor.NewShaped(cs.In)
	w := tensor.NewFilter(cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S)
	y := tensor.NewShaped(cs.OutShape())
	for i := 0; i < 200; i++ {
		if err := h.ConvolutionForward(1, xd, x, wd, w, cd, VirtualAlgo, nil, 0, yd, y); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	h.mu.Lock()
	degraded := h.degraded
	h.mu.Unlock()
	if degraded == 0 {
		t.Fatal("fault schedule never drove execute into the ladder")
	}
}
