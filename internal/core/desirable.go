package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"
)

// ScoredConfig is a configuration annotated with its execution time and
// shared-slot workspace requirement.
type ScoredConfig struct {
	Config    Config
	Time      time.Duration
	Workspace int64
}

// paretoPrune returns the subset of entries not dominated in the
// (time, workspace) plane (paper §III-C1, "desirable configurations"):
// entry a dominates b when a is no slower and needs no more workspace.
// Exact-duplicate costs collapse to one representative. The result is
// sorted by ascending time (so descending workspace).
func paretoPrune(entries []ScoredConfig) []ScoredConfig {
	if len(entries) == 0 {
		return nil
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Time != entries[j].Time {
			return entries[i].Time < entries[j].Time
		}
		return entries[i].Workspace < entries[j].Workspace
	})
	out := entries[:0]
	bestWS := int64(-1)
	for _, e := range entries {
		if bestWS >= 0 && e.Workspace >= bestWS {
			continue // dominated by an earlier (faster) entry
		}
		out = append(out, e)
		bestWS = e.Workspace
	}
	return append([]ScoredConfig(nil), out...)
}

// DesirableSet computes kernel k's desirable-configuration set: the Pareto
// front over all configurations whose micro-batch sizes come from the
// policy's candidates and whose workspace fits wsLimit (for WD, the
// network-wide budget). The dynamic program extends the WR recurrence to
// carry whole Pareto fronts:
//
//	WD'(n) = P( C1(n) ∪ { WD'(n - n') ⊕ C1(n') } )
//
// The WR optimum is always an element of the result (the paper's
// consistency property), which the tests assert.
func DesirableSet(b *Bencher, k Kernel, wsLimit int64, policy Policy) ([]ScoredConfig, error) {
	optStart := time.Now()
	defer b.m.desirableSeconds.ObserveSince(optStart)
	n := k.Shape.In.N
	sizes := policy.CandidateSizes(n)
	perfs := b.PerfsForSizes(k, sizes)

	// Single micro-configurations per size, already Pareto-pruned.
	c1 := make(map[int][]ScoredConfig, len(sizes))
	for _, m := range sizes {
		var opts []ScoredConfig
		for _, p := range perfs[m] {
			if p.Memory > wsLimit {
				continue
			}
			opts = append(opts, ScoredConfig{
				Config:    Config{{BatchSize: m, Algo: p.Algo}},
				Time:      p.Time,
				Workspace: p.Memory,
			})
		}
		c1[m] = paretoPrune(opts)
	}

	// Coin-change style enumeration: processing candidate sizes in a fixed
	// outer order generates each multiset of micro-batches exactly once.
	// Candidates are generated lazily on cost and only survivors are
	// materialized; lazy records where a new candidate came from. The
	// scratch slices are shared by every (m, i) state.
	type lazy struct {
		prevIdx, optIdx int
	}
	var (
		cands   []ScoredConfig // fronts[i] as it stands, then the new candidates
		backing []lazy         // provenance of cands[len(fronts[i]):]
		idx     []int          // permutation of cands, sorted by cost
	)
	states := int64(0)
	fronts := make([][]ScoredConfig, n+1)
	fronts[0] = []ScoredConfig{{Config: Config{}, Time: 0, Workspace: 0}}
	for _, m := range sizes {
		opts := c1[m]
		if len(opts) == 0 {
			continue
		}
		for i := m; i <= n; i++ {
			prev := fronts[i-m]
			if len(prev) == 0 {
				continue
			}
			old := len(fronts[i])
			cands = append(cands[:0], fronts[i]...)
			backing = backing[:0]
			states += int64(len(prev)) * int64(len(opts))
			for pi := range prev {
				for oi := range opts {
					// Workspace is shared across the kernel's sequential
					// micro-batches: the slot is the maximum requirement.
					cands = append(cands, ScoredConfig{
						Time:      prev[pi].Time + opts[oi].Time,
						Workspace: max(prev[pi].Workspace, opts[oi].Workspace),
					})
					backing = append(backing, lazy{prevIdx: pi, optIdx: oi})
				}
			}
			// Prune on cost only, through an index permutation.
			idx = idx[:0]
			for j := range cands {
				idx = append(idx, j)
			}
			slices.SortFunc(idx, func(a, b int) int {
				return cmp.Or(cmp.Compare(cands[a].Time, cands[b].Time), cmp.Compare(cands[a].Workspace, cands[b].Workspace))
			})
			var next []ScoredConfig
			bestWS := int64(-1)
			for _, j := range idx {
				if bestWS >= 0 && cands[j].Workspace >= bestWS {
					continue
				}
				bestWS = cands[j].Workspace
				sc := cands[j]
				if j >= old { // a new candidate: materialize its configuration
					p := prev[backing[j-old].prevIdx]
					cfg := make(Config, len(p.Config)+1)
					copy(cfg, p.Config)
					cfg[len(p.Config)] = opts[backing[j-old].optIdx].Config[0]
					sc.Config = cfg
				}
				next = append(next, sc)
			}
			fronts[i] = next
		}
	}
	b.m.desirableStates.Add(states)
	if len(fronts[n]) == 0 {
		return nil, fmt.Errorf("core: no configuration of %v fits %d bytes under %v", k, wsLimit, policy)
	}
	b.m.desirableFront.Observe(float64(len(fronts[n])))
	return fronts[n], nil
}
