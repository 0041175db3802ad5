package core

import (
	"fmt"
	"slices"
	"time"

	"ucudnn/internal/conv"
	"ucudnn/internal/tensor"
	"ucudnn/internal/trace"
)

// This file is the graceful-degradation ladder behind Handle.execute:
// when a planned configuration fails — an injected fault, a shrunk
// workspace grant, a kernel error — µ-cuDNN retries instead of surfacing
// the failure to the framework, because a micro-batched library that
// crashes a training run on a workspace hiccup has broken the paper's
// transparency contract (§III-A). The ladder has three stages, each
// strictly more conservative:
//
//	pareto — the next configurations on the kernel's desirable-set
//	         Pareto front (§III-C1), in ascending-time order: the
//	         cheapest admissible slowdown.
//	finer  — uniform micro-batch divisions at each candidate size below
//	         the full batch, with the algorithm chosen per size by
//	         smallest full workspace. No benchmarking, so this stage
//	         works even when Find*-path faults poison the bencher.
//	floor  — one whole-batch kernel with the algorithm whose
//	         MinWorkspace is smallest: the serial single-strip path of
//	         the engine contract, the analogue of cuDNN's zero-workspace
//	         IMPLICIT_GEMM fallback.
//
// Because every conv kernel produces identical bits at every strip count
// (the engine contract), a ladder that stays inside the same algorithm
// family cannot change results — the differential harness in
// internal/testkit asserts exactly that. A successful stage adopts its
// configuration as the kernel's new plan, counts
// ucudnn_fallback_total{stage=...}, updates the
// ucudnn_fault_degraded_plans gauge, and records a "fault" span on trace
// track 2 covering the simulated-clock interval the recovery spent.

// degrade walks the ladder for kernel k after cause. Callers hold
// execMu; out is the blended output snapshotOutput saved (nil when
// none), rewound before each retry.
func (h *Handle) degrade(k Kernel, cause error, out []float32, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32) error {
	op, cs := k.Op, k.Shape
	clockStart := h.inner.Elapsed()

	h.mu.Lock()
	prior, hasPrior := h.planLocked(k)
	limit := h.limitLocked(k, h.opts.WorkspaceLimit)
	h.mu.Unlock()

	// Stage 1: the remaining desirable set. Candidates are bounded by the
	// failed plan's workspace — that segment is already accounted, and a
	// failure under workspace pressure is not fixed by asking for more.
	wsBound := limit
	if hasPrior && prior.Workspace < wsBound {
		wsBound = prior.Workspace
	}
	if front, ferr := DesirableSet(h.bencher, k, limit, h.opts.Policy); ferr == nil {
		for _, sc := range front {
			if sc.Workspace > wsBound || hasPrior && slices.Equal(sc.Config, prior.Config) {
				continue
			}
			h.restore(out)
			if err := h.runConfig(sc.Config, sc.Workspace, op, cs, x, w, y, alpha, beta); err == nil {
				h.adopt(k, Plan{Kernel: k, Config: sc.Config, Time: sc.Time, Workspace: sc.Workspace}, "pareto", clockStart)
				return nil
			}
		}
	}

	// Stage 2: uniform finer divisions, coarsest first, smallest-workspace
	// algorithm per micro-batch size. Built from shape arithmetic alone so
	// it cannot be starved by benchmark-path faults.
	n := cs.In.N
	sizes := h.opts.Policy.CandidateSizes(n)
	for i := len(sizes) - 1; i >= 0; i-- {
		m := sizes[i]
		if m >= n {
			continue
		}
		cfg, wsBytes, minBytes, ok := h.uniformConfig(op, cs, n, m)
		if !ok {
			continue
		}
		// The grant stays inside the per-kernel budget — the engine just
		// runs narrower strips — and only the MinWorkspace floor may
		// override the budget, because below it the kernels cannot run at
		// all and correctness beats the limit.
		grant := wsBytes
		if grant > limit {
			grant = limit
		}
		if grant < minBytes {
			grant = minBytes
		}
		h.mu.Lock()
		h.growArena(h.arenaGrant(grant))
		h.mu.Unlock()
		h.restore(out)
		if err := h.runConfig(cfg, grant, op, cs, x, w, y, alpha, beta); err == nil {
			h.adopt(k, Plan{Kernel: k, Config: cfg, Workspace: grant}, "finer", clockStart)
			return nil
		}
	}

	// Stage 3: the serial MinWorkspace floor — one whole-batch kernel with
	// the smallest-floor algorithm, granted exactly its floor so the
	// engine takes the single-strip path.
	if algo, minBytes, ok := h.floorAlgo(op, cs); ok {
		cfg := Config{{BatchSize: n, Algo: algo}}
		h.mu.Lock()
		h.growArena(h.arenaGrant(minBytes))
		h.mu.Unlock()
		h.restore(out)
		if err := h.runConfig(cfg, minBytes, op, cs, x, w, y, alpha, beta); err == nil {
			h.adopt(k, Plan{Kernel: k, Config: cfg, Workspace: minBytes}, "floor", clockStart)
			return nil
		}
	}

	return fmt.Errorf("core: %v failed and no degraded configuration succeeded: %w", k, cause)
}

// algoAllowed applies the configured algorithm filter.
func (h *Handle) algoAllowed(op conv.Op, algo conv.Algo) bool {
	return h.opts.AlgoFilter == nil || h.opts.AlgoFilter(op, algo)
}

// uniformConfig builds the uniform division of n into micro-batches of
// size m (plus one remainder micro-batch), choosing per size the
// admissible algorithm with the smallest full workspace. It returns the
// configuration, its shared-slot workspace, and the largest MinWorkspace
// floor among its micro-batches.
func (h *Handle) uniformConfig(op conv.Op, cs tensor.ConvShape, n, m int) (Config, int64, int64, bool) {
	var cfg Config
	var wsBytes, minBytes int64
	addMicro := func(b int) bool {
		algo, ws, ok := h.minWSAlgo(op, cs.WithN(b), conv.Workspace)
		if !ok {
			return false
		}
		cfg = append(cfg, MicroConfig{BatchSize: b, Algo: algo})
		if ws > wsBytes {
			wsBytes = ws
		}
		if mb, _ := conv.MinWorkspace(op, algo, cs.WithN(b)); mb > minBytes {
			minBytes = mb
		}
		return true
	}
	for rem := n; rem > 0; {
		b := m
		if rem < m {
			b = rem
		}
		if !addMicro(b) {
			return nil, 0, 0, false
		}
		rem -= b
	}
	return cfg, wsBytes, minBytes, true
}

// floorAlgo picks the admissible algorithm with the smallest MinWorkspace
// floor for the whole batch (ties break toward the lower algorithm id,
// which prefers IMPLICIT_GEMM's zero-workspace kernel when admissible).
func (h *Handle) floorAlgo(op conv.Op, cs tensor.ConvShape) (conv.Algo, int64, bool) {
	return h.minWSAlgo(op, cs, conv.MinWorkspace)
}

// minWSAlgo picks the admissible algorithm minimizing the given workspace
// measure on cs.
func (h *Handle) minWSAlgo(op conv.Op, cs tensor.ConvShape, measure func(conv.Op, conv.Algo, tensor.ConvShape) (int64, bool)) (conv.Algo, int64, bool) {
	best := conv.Algo(-1)
	var bestWS int64
	for _, a := range conv.AlgosFor(op) {
		if !h.algoAllowed(op, a) {
			continue
		}
		ws, ok := measure(op, a, cs)
		if !ok {
			continue
		}
		if best < 0 || ws < bestWS {
			best, bestWS = a, ws
		}
	}
	return best, bestWS, best >= 0
}

// adopt installs plan as kernel k's configuration going forward (the
// fault may be persistent, so the degraded choice sticks until the
// process replans), then emits the recovery telemetry.
func (h *Handle) adopt(k Kernel, plan Plan, stage string, clockStart time.Duration) {
	h.mu.Lock()
	h.growArena(h.arenaGrant(plan.Workspace))
	h.setPlanLocked(plan)
	h.degraded++
	deg := h.degraded
	h.mu.Unlock()
	h.m.fallback(stage)
	h.m.degradedPlans.Set(float64(deg))
	if rec := h.inner.Trace(); rec != nil {
		rec.AddLeaf(trace.Event{
			Name:  "degrade " + k.String() + " -> " + stage,
			Cat:   "fault",
			Start: clockStart,
			Dur:   h.inner.Elapsed() - clockStart,
			Track: trace.TrackFault,
		})
	}
}
