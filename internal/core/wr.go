package core

import (
	"fmt"
	"time"

	"ucudnn/internal/conv"
)

// OptimizeWR runs the Workspace Reuse optimizer of §III-B: a dynamic
// program over micro-batch divisions of kernel k under a *per-kernel*
// workspace limit. The result is the fastest configuration
//
//	T*(n) = min( T'(n), min_{n' < n} T*(n - n') + T'(n') )
//
// where T'(m) is the fastest single micro-configuration of size m fitting
// the limit, and the candidate sizes m are chosen by the batch-size
// policy.
func OptimizeWR(b *Bencher, k Kernel, wsLimit int64, policy Policy) (Plan, error) {
	optStart := time.Now()
	defer b.m.wrSeconds.ObserveSince(optStart)
	n := k.Shape.In.N
	sizes := policy.CandidateSizes(n)
	perfs := b.PerfsForSizes(k, sizes)

	// Fastest fitting micro-configuration per candidate size.
	type micro struct {
		t    time.Duration
		algo conv.Algo
		ok   bool
	}
	t1 := make(map[int]micro, len(sizes))
	for _, m := range sizes {
		for _, p := range perfs[m] { // sorted fastest first
			if p.Memory <= wsLimit {
				t1[m] = micro{t: p.Time, algo: p.Algo, ok: true}
				break
			}
		}
	}

	const unreachable = time.Duration(-1)
	bestT := make([]time.Duration, n+1)
	lastSize := make([]int, n+1)
	for i := 1; i <= n; i++ {
		bestT[i] = unreachable
	}
	states := int64(0)
	for i := 1; i <= n; i++ {
		for _, m := range sizes {
			if m > i {
				break // sizes ascend
			}
			states++
			mc, ok := t1[m]
			if !ok || !mc.ok || bestT[i-m] == unreachable {
				continue
			}
			cand := bestT[i-m] + mc.t
			if bestT[i] == unreachable || cand < bestT[i] {
				bestT[i] = cand
				lastSize[i] = m
			}
		}
	}
	b.m.wrDPStates.Add(states)
	if bestT[n] == unreachable {
		return Plan{}, fmt.Errorf("core: no algorithm for %v fits %d bytes at any %v micro-batch size", k, wsLimit, policy)
	}

	var cfg Config
	for i := n; i > 0; {
		m := lastSize[i]
		cfg = append(cfg, MicroConfig{BatchSize: m, Algo: t1[m].algo})
		i -= m
	}
	// Present larger micro-batches first, as the paper's figures do.
	for lo, hi := 0, len(cfg)-1; lo < hi; lo, hi = lo+1, hi-1 {
		cfg[lo], cfg[hi] = cfg[hi], cfg[lo]
	}
	return Plan{
		Kernel:    k,
		Config:    cfg,
		Time:      bestT[n],
		Workspace: cfg.Workspace(k.Op, k.Shape),
	}, nil
}
