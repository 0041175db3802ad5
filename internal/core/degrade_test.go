package core

import (
	"math"
	"math/rand"
	"testing"

	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/faults"
	"ucudnn/internal/obs"
	"ucudnn/internal/tensor"
)

// gemmOnly pins the algorithm universe to AlgoGemm, whose batch-striped
// kernels are bit-identical across every micro-batch division (ascending-n
// dW reduction) — the precondition for the bitwise assertions below.
func gemmOnly(op conv.Op, a conv.Algo) bool { return a == conv.AlgoGemm }

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// fallbackTotal sums ucudnn_fallback_total across the ladder stages.
func fallbackTotal(reg *obs.Registry) int64 {
	var n int64
	for _, s := range []string{"pareto", "finer", "floor"} {
		n += reg.Counter(MetricFallback, obs.L("stage", s)).Value()
	}
	return n
}

// An injected Convolve fault on the planned configuration must not surface
// to the caller: the ladder retries and, with the algorithm pinned, the
// recovered output is bit-identical to an unfaulted run.
func TestDegradeConvolveFaultBitwiseIdentical(t *testing.T) {
	xd, wd, cd, yd, cs := smallConv(10)
	rng := rand.New(rand.NewSource(11))
	x := tensor.NewShaped(cs.In)
	x.Randomize(rng, 1)
	w := tensor.NewFilter(cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S)
	w.Randomize(rng, 0.5)

	run := func(reg *obs.Registry, fr *faults.Registry) []float32 {
		h := newFaultedHandle(t, fr, cudnn.ModelBackend,
			WithWorkspaceLimit(1<<20), WithAlgoFilter(gemmOnly), WithMetrics(reg))
		y := tensor.NewShaped(cs.OutShape())
		if err := h.ConvolutionForward(1, xd, x, wd, w, cd, VirtualAlgo, nil, 0, yd, y); err != nil {
			t.Fatal(err)
		}
		return y.Data
	}

	ref := run(obs.NewRegistry(), nil)

	reg := obs.NewRegistry()
	fr := faults.New(faults.Rule{Point: faults.PointConvolve, Trigger: faults.Nth(1)})
	got := run(reg, fr)

	if len(fr.Shots()) == 0 {
		t.Fatal("fault never fired")
	}
	if !bitsEqual(got, ref) {
		t.Fatalf("degraded output not bit-identical: maxdiff %g", tensor.MaxAbsDiff(got, ref))
	}
	if n := fallbackTotal(reg); n != 1 {
		t.Fatalf("%s = %d, want 1 recovery", MetricFallback, n)
	}
	if g := reg.Gauge(MetricDegradedPlans).Value(); g != 1 {
		t.Fatalf("%s = %v, want 1", MetricDegradedPlans, g)
	}
}

// A fault that fires mid-configuration on an accumulating BackwardFilter
// call (user beta != 0) leaves a half-blended dW behind; the snapshot
// restore must rewind it before the retry so the recovered gradient is
// bit-identical to an unfaulted run.
func TestDegradeBackwardFilterRestoresBlendedOutput(t *testing.T) {
	xd, wd, cd, yd, cs := smallConv(9)
	full, ok := conv.Workspace(conv.BackwardFilter, conv.AlgoGemm, cs)
	if !ok || full <= 1 {
		t.Fatalf("gemm BackwardFilter workspace = %d, %v", full, ok)
	}
	rng := rand.New(rand.NewSource(12))
	x := tensor.NewShaped(cs.In)
	x.Randomize(rng, 1)
	dy := tensor.NewShaped(cs.OutShape())
	dy.Randomize(rng, 1)
	dw0 := tensor.NewFilter(cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S)
	dw0.Randomize(rng, 1)

	run := func(fr *faults.Registry) []float32 {
		// A limit one byte under the undivided requirement forces a plan
		// with at least two micro-batches, so Nth(2) hits mid-config.
		h := newFaultedHandle(t, fr, cudnn.ModelBackend,
			WithWorkspaceLimit(full-1), WithAlgoFilter(gemmOnly))
		dw := dw0.Clone()
		if err := h.ConvolutionBackwardFilter(0.5, xd, x, yd, dy, cd, VirtualAlgo, nil, 0.25, wd, dw); err != nil {
			t.Fatal(err)
		}
		if len(h.Plans()) != 1 || len(h.Plans()[0].Config) < 2 {
			t.Fatalf("plan %v not micro-batched; fault would not hit mid-config", h.Plans())
		}
		return dw.Data
	}

	ref := run(nil)

	fr := faults.New(faults.Rule{Point: faults.PointConvolve, Trigger: faults.Nth(2)})
	got := run(fr)

	if len(fr.Shots()) == 0 {
		t.Fatal("fault never fired")
	}
	if !bitsEqual(got, ref) {
		t.Fatalf("restored dW not bit-identical: maxdiff %g", tensor.MaxAbsDiff(got, ref))
	}
}

// A shrunk arena grant leaves the arena below the planned configuration's
// MinWorkspace floor, so its kernels refuse to run; the ladder must find a
// configuration that fits what was actually granted, bit-identical to an
// unfaulted run since the algorithm stays pinned.
func TestDegradeArenaShrinkRecovers(t *testing.T) {
	xd, wd, cd, yd, cs := smallConv(8)
	rng := rand.New(rand.NewSource(13))
	x := tensor.NewShaped(cs.In)
	x.Randomize(rng, 1)
	w := tensor.NewFilter(cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S)
	w.Randomize(rng, 0.5)

	run := func(reg *obs.Registry, fr *faults.Registry) []float32 {
		h := newFaultedHandle(t, fr, cudnn.ModelBackend,
			WithWorkspaceLimit(1<<20), WithAlgoFilter(gemmOnly), WithMetrics(reg))
		y := tensor.NewShaped(cs.OutShape())
		if err := h.ConvolutionForward(1, xd, x, wd, w, cd, VirtualAlgo, nil, 0, yd, y); err != nil {
			t.Fatal(err)
		}
		return y.Data
	}

	ref := run(obs.NewRegistry(), nil)

	// Shrink only the first grant — the WR plan's own arena allocation —
	// eight-fold, below the plan's single-strip floor; later grants (the
	// ladder re-growing the arena for degraded configurations) succeed.
	reg := obs.NewRegistry()
	fr := faults.New(faults.Rule{Point: faults.PointArenaGrow, Trigger: faults.Nth(1), Shrink: 8})
	got := run(reg, fr)

	if len(fr.Shots()) == 0 {
		t.Fatal("fault never fired")
	}
	if n := fallbackTotal(reg); n != 1 {
		t.Fatalf("%s = %d, want 1 (shrunk arena cannot hold the planned workspace)", MetricFallback, n)
	}
	if !bitsEqual(got, ref) {
		t.Fatalf("recovered output not bit-identical: maxdiff %g", tensor.MaxAbsDiff(got, ref))
	}
}

// Persistent Find*-path faults starve benchmarking entirely, so planning
// itself fails; the shape-arithmetic stages must still recover execution.
func TestDegradeFindStarvedRecovers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy Policy
		stage  string
	}{
		// Power-of-two candidate sizes give stage 2 finer divisions to try.
		{"finer", PolicyPowerOfTwo, "finer"},
		// Undivided leaves no finer division, forcing the serial floor.
		{"floor", PolicyUndivided, "floor"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr := faults.New(faults.Rule{Point: faults.PointFind, Trigger: faults.EveryK(1)})
			reg := obs.NewRegistry()
			h := newFaultedHandle(t, fr, cudnn.ModelBackend,
				WithWorkspaceLimit(1<<20), WithPolicy(tc.policy),
				WithAlgoFilter(gemmOnly), WithMetrics(reg))
			xd, wd, cd, yd, cs := smallConv(8)
			rng := rand.New(rand.NewSource(14))
			x := tensor.NewShaped(cs.In)
			x.Randomize(rng, 1)
			w := tensor.NewFilter(cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S)
			w.Randomize(rng, 0.5)
			y := tensor.NewShaped(cs.OutShape())
			if err := h.ConvolutionForward(1, xd, x, wd, w, cd, VirtualAlgo, nil, 0, yd, y); err != nil {
				t.Fatal(err)
			}
			h.Inner().SetFaults(nil)

			if got := reg.Counter(MetricFallback, obs.L("stage", tc.stage)).Value(); got != 1 {
				t.Fatalf("%s{stage=%s} = %d, want 1", MetricFallback, tc.stage, got)
			}
			ref := tensor.NewShaped(cs.OutShape())
			if err := conv.Run(conv.Forward, conv.AlgoGemm, cs, x, w, ref, 1, 0,
				make([]float32, 1<<18)); err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(y.Data, ref.Data) {
				t.Fatalf("recovered output not bit-identical: maxdiff %g", tensor.MaxAbsDiff(y.Data, ref.Data))
			}
			// The recovery is adopted as the kernel's plan: a second call
			// executes it directly (no further fallback).
			if err := h.ConvolutionForward(1, xd, x, wd, w, cd, VirtualAlgo, nil, 0, yd, y); err != nil {
				t.Fatal(err)
			}
			if got := fallbackTotal(reg); got != 1 {
				t.Fatalf("second call degraded again: %s = %d", MetricFallback, got)
			}
		})
	}
}

// When every stage is exhausted the original cause surfaces, wrapped so the
// injected fault stays identifiable for the replayer.
func TestDegradeExhaustedSurfacesCause(t *testing.T) {
	fr := faults.New(faults.Rule{Point: faults.PointConvolve, Trigger: faults.EveryK(1)})
	h := newFaultedHandle(t, fr, cudnn.ModelBackend,
		WithWorkspaceLimit(1<<20), WithAlgoFilter(gemmOnly))
	xd, wd, cd, yd, cs := smallConv(4)
	x := tensor.NewShaped(cs.In)
	w := tensor.NewFilter(cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S)
	y := tensor.NewShaped(cs.OutShape())
	err := h.ConvolutionForward(1, xd, x, wd, w, cd, VirtualAlgo, nil, 0, yd, y)
	if err == nil {
		t.Fatal("every Convolve faulted; execution cannot have succeeded")
	}
	if !faults.IsInjected(err) {
		t.Fatalf("surfaced error %v does not unwrap to the injected fault", err)
	}
}
