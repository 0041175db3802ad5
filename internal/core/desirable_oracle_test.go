package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
)

// paretoPrune returns the subset of entries not dominated in the
// (time, workspace) plane, sorted by ascending time: the eager
// enumeration's per-size prune, kept with it as the oracle's.
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

// EagerDesirableSet is the desirable-set DP with every surviving entry
// of every intermediate front carrying its materialised Config. It is
// the oracle the linked enumeration is compared against, entry for entry
// and tie for tie.
func EagerDesirableSet(b *Bencher, k Kernel, wsLimit int64, policy Policy) ([]ScoredConfig, error) {
	n := k.Shape.In.N
	sizes := policy.CandidateSizes(n)
	perfs := b.PerfsForSizes(k, sizes)

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

	type lazy struct {
		prevIdx, optIdx int
	}
	var (
		cands   []ScoredConfig
		backing []lazy
		idx     []int
	)
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
			for pi := range prev {
				for oi := range opts {
					cands = append(cands, ScoredConfig{
						Time:      prev[pi].Time + opts[oi].Time,
						Workspace: max(prev[pi].Workspace, opts[oi].Workspace),
					})
					backing = append(backing, lazy{prevIdx: pi, optIdx: oi})
				}
			}
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
				if j >= old {
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
	if len(fronts[n]) == 0 {
		return nil, fmt.Errorf("core: no configuration of %v fits %d bytes under %v", k, wsLimit, policy)
	}
	return fronts[n], nil
}

// The linked enumeration returns the eager one's fronts exactly —
// configurations included, ties broken the same way — on random perf
// tables dense in ties: few distinct times and workspaces, tables of 0
// to 16 algorithms per size (more than the 12 below which the sorts
// fall back to insertion sort), empty sizes and limits that cut the
// table. One scratch serves every call, as in OptimizeWD.
func TestDesirableSetMatchesEagerOnRandomTables(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s desirableScratch
	fronts := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(24)
		k := Kernel{Op: conv.Ops[rng.Intn(len(conv.Ops))], Shape: conv2Shape(n)}
		b := modelBencher()
		for m := 1; m <= n; m++ {
			perfs := make([]cudnn.AlgoPerf, rng.Intn(17))
			for i := range perfs {
				perfs[i] = cudnn.AlgoPerf{
					Algo:   conv.Algo(rng.Intn(8)),
					Time:   time.Duration(m*(2+rng.Intn(6))+rng.Intn(3)) * time.Microsecond,
					Memory: int64(rng.Intn(5)) << 10,
				}
			}
			if err := b.cache.Put(CacheKey(b.h.Device().Name, b.h.Backend(), k.Op, k.Shape.WithN(m)), perfs); err != nil {
				t.Fatal(err)
			}
		}
		limit := int64(1+rng.Intn(5)) << 10
		for _, policy := range []Policy{PolicyPowerOfTwo, PolicyAll, PolicyUndivided} {
			want, werr := EagerDesirableSet(b, k, limit, policy)
			got, gerr := s.desirableSet(b, k, limit, policy)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("trial %d, N=%d %v limit %d: eager error %v, linked error %v", trial, n, policy, limit, werr, gerr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, N=%d %v limit %d:\n linked %v\n  eager %v", trial, n, policy, limit, got, want)
			}
			if len(got) > 1 {
				fronts++
			}
		}
	}
	if fronts < 450 {
		t.Fatalf("only %d of 900 tables gave a front of two or more entries, want half", fronts)
	}
}
