package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"ucudnn/internal/conv"
)

// ScoredConfig is a configuration annotated with its execution time and
// shared-slot workspace requirement.
type ScoredConfig struct {
	Config    Config
	Time      time.Duration
	Workspace int64
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
	var s desirableScratch
	return s.desirableSet(b, k, wsLimit, policy)
}

// desirableScratch is the desirable-set DP's working memory. OptimizeWD
// reuses one across its kernels, so after the first kernel the DP
// allocates only the front it returns.
//
// A front entry is a node: its cost plus a link to the entry it extends
// by one micro-configuration. Nodes are made only for the candidates
// that survive a prune, and Configs are built only for the final front,
// by walking the links.
type desirableScratch struct {
	opts   []microOpt  // per-size options, Pareto-pruned, size after size
	optEnd []int       // opts[optEnd[s-1]:optEnd[s]] belong to sizes[s]
	nodes  []frontNode // node 0 is the empty configuration
	fronts [][]int32   // fronts[i]: the nodes of the front for i samples
	cands  []candidate // fronts[i] as it stands, then the new candidates
	idx    []int       // permutation of cands, sorted by cost
	next   []int32     // the pruned front being built
}

// microOpt is one single-micro-batch option: a size and algorithm with
// its cost.
type microOpt struct {
	time time.Duration
	ws   int64
	mc   MicroConfig
}

// frontNode is a front entry: its cost, the node it extends (-1 for the
// empty configuration) and the option it extends that node by.
type frontNode struct {
	time   time.Duration
	ws     int64
	parent int32
	opt    int32
}

// candidate is a front entry under pruning: an existing node (node >= 0)
// or a new extension not yet made a node (node == -1).
type candidate struct {
	frontNode
	node int32
}

func (s *desirableScratch) desirableSet(b *Bencher, k Kernel, wsLimit int64, policy Policy) ([]ScoredConfig, error) {
	optStart := time.Now()
	defer b.m.desirableSeconds.ObserveSince(optStart)
	n := k.Shape.In.N
	sizes := policy.CandidateSizes(n)

	// Single micro-configurations per size, Pareto-pruned. The sizes are
	// benchmarked in order, so a file cache records them deterministically.
	s.opts = slices.Grow(s.opts[:0], len(sizes)*len(conv.AlgosFor(k.Op)))
	s.optEnd = slices.Grow(s.optEnd[:0], len(sizes))
	for _, m := range sizes {
		lo := len(s.opts)
		for _, p := range b.Perfs(Kernel{Op: k.Op, Shape: k.Shape.WithN(m)}) {
			if p.Memory <= wsLimit {
				s.opts = append(s.opts, microOpt{time: p.Time, ws: p.Memory, mc: MicroConfig{BatchSize: m, Algo: p.Algo}})
			}
		}
		s.opts = s.opts[:lo+len(paretoOpts(s.opts[lo:]))]
		s.optEnd = append(s.optEnd, len(s.opts))
	}

	// Coin-change style enumeration: processing candidate sizes in a fixed
	// outer order generates each multiset of micro-batches exactly once.
	// Candidates are costed first and pruned through an index
	// permutation; only the survivors become nodes.
	s.nodes = append(s.nodes[:0], frontNode{parent: -1, opt: -1})
	s.fronts = slices.Grow(s.fronts[:0], n+1)[:n+1]
	for i := range s.fronts {
		s.fronts[i] = s.fronts[i][:0]
	}
	s.fronts[0] = append(s.fronts[0], 0)
	states := int64(0)
	for si, m := range sizes {
		lo, hi := 0, s.optEnd[si]
		if si > 0 {
			lo = s.optEnd[si-1]
		}
		if lo == hi {
			continue
		}
		for i := m; i <= n; i++ {
			prev := s.fronts[i-m]
			if len(prev) == 0 {
				continue
			}
			s.cands = s.cands[:0]
			for _, ni := range s.fronts[i] {
				s.cands = append(s.cands, candidate{s.nodes[ni], ni})
			}
			states += int64(len(prev)) * int64(hi-lo)
			for _, pi := range prev {
				p := s.nodes[pi]
				for oi := lo; oi < hi; oi++ {
					o := s.opts[oi]
					// Workspace is shared across the kernel's sequential
					// micro-batches: the slot is the maximum requirement.
					s.cands = append(s.cands, candidate{frontNode{
						time: p.time + o.time, ws: max(p.ws, o.ws),
						parent: pi, opt: int32(oi),
					}, -1})
				}
			}
			s.idx = s.idx[:0]
			for j := range s.cands {
				s.idx = append(s.idx, j)
			}
			cands := s.cands
			slices.SortFunc(s.idx, func(a, b int) int {
				return cmp.Or(cmp.Compare(cands[a].time, cands[b].time), cmp.Compare(cands[a].ws, cands[b].ws))
			})
			s.next = s.next[:0]
			bestWS := int64(-1)
			for _, j := range s.idx {
				c := cands[j]
				if bestWS >= 0 && c.ws >= bestWS {
					continue
				}
				bestWS = c.ws
				if c.node < 0 {
					c.node = int32(len(s.nodes))
					s.nodes = append(s.nodes, c.frontNode)
				}
				s.next = append(s.next, c.node)
			}
			s.fronts[i] = append(s.fronts[i][:0], s.next...)
		}
	}
	b.m.desirableStates.Add(states)
	front := s.fronts[n]
	if len(front) == 0 {
		return nil, fmt.Errorf("core: no configuration of %v fits %d bytes under %v", k, wsLimit, policy)
	}
	b.m.desirableFront.Observe(float64(len(front)))
	return s.configs(front), nil
}

// configs materialises the entries of a front: one Config per node, laid
// out back to back in one allocation, each built by walking the node's
// links back to the empty configuration.
func (s *desirableScratch) configs(front []int32) []ScoredConfig {
	depth := func(ni int32) int {
		d := 0
		for ; s.nodes[ni].parent >= 0; ni = s.nodes[ni].parent {
			d++
		}
		return d
	}
	total := 0
	for _, ni := range front {
		total += depth(ni)
	}
	backing := make(Config, total)
	out := make([]ScoredConfig, len(front))
	for fi, ni := range front {
		d := depth(ni)
		cfg := backing[:d:d]
		backing = backing[d:]
		for j, at := d-1, ni; j >= 0; j, at = j-1, s.nodes[at].parent {
			cfg[j] = s.opts[s.nodes[at].opt].mc
		}
		out[fi] = ScoredConfig{Config: cfg, Time: s.nodes[ni].time, Workspace: s.nodes[ni].ws}
	}
	return out
}

// paretoOpts prunes opts in place to the entries not dominated in the
// (time, workspace) plane (paper §III-C1, "desirable configurations"):
// entry a dominates b when a is no slower and needs no more workspace.
// Exact-duplicate costs collapse to one representative. The result is
// sorted by ascending time (so descending workspace).
func paretoOpts(opts []microOpt) []microOpt {
	slices.SortFunc(opts, func(a, b microOpt) int {
		return cmp.Or(cmp.Compare(a.time, b.time), cmp.Compare(a.ws, b.ws))
	})
	out := opts[:0]
	bestWS := int64(-1)
	for _, o := range opts {
		if bestWS >= 0 && o.ws >= bestWS {
			continue // dominated by an earlier (faster) entry
		}
		out = append(out, o)
		bestWS = o.ws
	}
	return out
}
