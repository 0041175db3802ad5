// Package ilp solves the paper's Workspace Division ILP (Eq. 1-4) as what
// it is, a multiple-choice knapsack: pick exactly one item per class,
// minimize the summed cost, keep the summed weight within a budget. It
// stands in for GLPK. The search is an exact best-first branch & bound
// over integers. Its bound, the LP relaxation, needs no simplex: start
// every class at its lightest item and walk the classes' lower convex
// hulls in order of cost saved per unit of weight until the budget runs
// out, which leaves at most one class between two adjacent hull vertices
// (Dyer-Zemel, Sinha-Zoltners).
package ilp

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Item is one choice of a class. For WD: a kernel configuration's time
// (times the kernel's multiplicity) in ns and its workspace in bytes.
type Item struct{ Cost, Weight int64 }

// Problem is a multiple-choice knapsack: one item of every class, total
// weight at most Budget, minimum total cost.
type Problem struct {
	Classes [][]Item
	Budget  int64
}

// Result reports the outcome of a solve.
type Result struct {
	// Feasible is false when the lightest items together overrun the
	// budget; only the counters are set then.
	Feasible bool
	// Choice[c] indexes the item chosen from Classes[c].
	Choice []int
	// Cost and Weight are the exact totals of Choice.
	Cost, Weight int64
	// Nodes is the number of branch-and-bound relaxations evaluated.
	Nodes int
	// SimplexIters counts the hull steps walked by those relaxations. A
	// hull step swaps one class's item for its hull successor, which is
	// exactly the pivot a simplex method makes on this LP.
	SimplexIters int
}

// maxNodes bounds the search; the paper's instances need a few thousand.
const maxNodes = 500000

// Validate checks that every class has an item, that no cost or weight
// is negative and that no selection's totals can overflow int64.
func (p *Problem) Validate() error {
	var cost, weight int64
	for c, items := range p.Classes {
		if len(items) == 0 {
			return fmt.Errorf("ilp: class %d has no items", c)
		}
		var maxCost, maxWeight int64
		for i, it := range items {
			if it.Cost < 0 || it.Weight < 0 {
				return fmt.Errorf("ilp: class %d item %d has negative cost %d or weight %d", c, i, it.Cost, it.Weight)
			}
			maxCost, maxWeight = max(maxCost, it.Cost), max(maxWeight, it.Weight)
		}
		if maxCost > math.MaxInt64-cost || maxWeight > math.MaxInt64-weight {
			return fmt.Errorf("ilp: total cost or weight overflows int64 at class %d", c)
		}
		cost, weight = cost+maxCost, weight+maxWeight
	}
	return nil
}

// step moves one class from a hull vertex to the next heavier one.
type step struct {
	class, from, to int32  // from, to: item positions, adjacent vertices of the class's hull
	dw, dc          uint64 // weight added and cost saved, both positive
}

// node is a subproblem: its parent's, with one class narrowed to the
// item positions [lo, hi]. Both ends are vertices of the class's root
// hull unless lo == hi, so the hull of the narrowed class is a run of the
// root's steps and the root's sort order serves every node.
type node struct {
	parent, class, lo, hi int32
	frac                  int32 // the step the node's relaxation left fractional
	bound                 int64
}

// search is the state of one Solve. Items are stored flat, class after
// class, each class sorted by ascending weight with dominated items
// dropped (so cost strictly descends); a position indexes these slices.
type search struct {
	budget       int64
	cost, weight []int64
	orig         []int   // position -> index into Problem.Classes[c]
	steps        []step  // every class's hull steps, most cost saved per weight first
	rootLo       []int32 // per class: the lightest position
	rootHi       []int32 // and the cheapest
	lo, hi, pos  []int32 // per class scratch: the node under evaluation
	nodes        []node
	open         []int32 // binary heap of node indices on (bound, index)
	found        bool
	best         int64
	bestPos      []int32
	evals, iters int
}

// ratioCmp compares n1/d1 with n2/d2 exactly, for positive denominators:
// the cross products are compared in 128 bits.
func ratioCmp(n1, d1, n2, d2 uint64) int {
	h1, l1 := bits.Mul64(n1, d2)
	h2, l2 := bits.Mul64(n2, d1)
	return cmp.Or(cmp.Compare(h1, h2), cmp.Compare(l1, l2))
}

func newSearch(p *Problem) *search {
	n, total := len(p.Classes), 0
	for _, items := range p.Classes {
		total += len(items)
	}
	s := &search{
		budget: p.Budget,
		cost:   make([]int64, 0, total), weight: make([]int64, 0, total), orig: make([]int, 0, total),
		steps:  make([]step, 0, total),
		rootLo: make([]int32, n), rootHi: make([]int32, n),
		lo: make([]int32, n), hi: make([]int32, n), pos: make([]int32, n), bestPos: make([]int32, n),
	}
	var order []int
	for c, items := range p.Classes {
		order = order[:0]
		for i := range items {
			order = append(order, i)
		}
		slices.SortStableFunc(order, func(a, b int) int {
			return cmp.Or(cmp.Compare(items[a].Weight, items[b].Weight), cmp.Compare(items[a].Cost, items[b].Cost))
		})
		first := len(s.cost)
		for _, i := range order {
			if last := len(s.cost) - 1; last >= first && items[i].Cost >= s.cost[last] {
				continue // dominated: no lighter, no cheaper than a kept item
			}
			s.cost, s.weight, s.orig = append(s.cost, items[i].Cost), append(s.weight, items[i].Weight), append(s.orig, i)
		}
		s.rootLo[c], s.rootHi[c] = int32(first), int32(len(s.cost)-1)

		// Lower convex hull by monotone chain, the class's steps so far as
		// the stack: a vertex survives only while the step into it saves
		// strictly more per unit of weight than the step out of it.
		base := len(s.steps)
		for q := first + 1; q < len(s.cost); q++ {
			from := int32(first)
			for len(s.steps) > base {
				in := s.steps[len(s.steps)-1]
				if ratioCmp(uint64(s.cost[in.to]-s.cost[q]), uint64(s.weight[q]-s.weight[in.to]), in.dc, in.dw) < 0 {
					from = in.to
					break
				}
				s.steps = s.steps[:len(s.steps)-1]
			}
			s.steps = append(s.steps, step{class: int32(c), from: from, to: int32(q),
				dw: uint64(s.weight[q] - s.weight[from]), dc: uint64(s.cost[from] - s.cost[q])})
		}
	}
	// Within a class the ratios strictly descend along the hull, so this
	// order also takes each class's steps in hull order; the stable sort
	// leaves ties across classes in class order.
	slices.SortStableFunc(s.steps, func(a, b step) int { return ratioCmp(b.dc, b.dw, a.dc, a.dw) })
	return s
}

// relax solves the LP relaxation of the subproblem in s.lo/s.hi. It
// returns the relaxation's optimum rounded up to an integer — a lower
// bound on every selection of the subproblem, since costs are integers —
// and the step left fractional (-1 when the relaxation is integral). ok
// is false when the subproblem's lightest items overrun the budget. The
// integral part of the relaxation is a selection in its own right and
// replaces the incumbent when cheaper.
func (s *search) relax() (bound int64, frac int32, ok bool) {
	s.evals++
	var cost, weight int64
	for c, p := range s.lo {
		s.pos[c] = p
		cost += s.cost[p]
		weight += s.weight[p]
	}
	if weight > s.budget {
		return 0, -1, false
	}
	room := s.budget - weight
	bound, frac = 0, -1
	for i := range s.steps {
		st := &s.steps[i]
		if st.from < s.lo[st.class] || st.to > s.hi[st.class] {
			continue
		}
		s.iters++
		if st.dw > uint64(room) {
			// floor(dc*room/dw) off the integral part is the LP optimum
			// rounded up; room < dw keeps the quotient below dc.
			h, l := bits.Mul64(st.dc, uint64(room))
			q, _ := bits.Div64(h, l, st.dw)
			bound, frac = -int64(q), int32(i)
			break
		}
		room -= int64(st.dw)
		cost -= int64(st.dc)
		s.pos[st.class] = st.to
	}
	bound += cost
	if !s.found || cost < s.best {
		s.found, s.best = true, cost
		copy(s.bestPos, s.pos)
	}
	return bound, frac, true
}

// branch evaluates parent's subproblem with class narrowed to [lo, hi]
// (s.lo/s.hi hold the parent's intervals) and queues it if it can still
// beat the incumbent.
func (s *search) branch(parent, class, lo, hi int32) {
	oldLo, oldHi := s.lo[class], s.hi[class]
	s.lo[class], s.hi[class] = lo, hi
	bound, frac, ok := s.relax()
	s.lo[class], s.hi[class] = oldLo, oldHi
	if !ok || frac < 0 || bound >= s.best {
		return
	}
	s.nodes = append(s.nodes, node{parent: parent, class: class, lo: lo, hi: hi, frac: frac, bound: bound})
	s.open = append(s.open, int32(len(s.nodes)-1))
	for i := len(s.open) - 1; i > 0; {
		up := (i - 1) / 2
		if !s.before(s.open[i], s.open[up]) {
			break
		}
		s.open[i], s.open[up] = s.open[up], s.open[i]
		i = up
	}
}

// before orders the open heap: lowest bound first, then creation order.
func (s *search) before(a, b int32) bool {
	ba, bb := s.nodes[a].bound, s.nodes[b].bound
	return ba < bb || ba == bb && a < b
}

// pop removes the open node of lowest bound.
func (s *search) pop() int32 {
	top, last := s.open[0], len(s.open)-1
	s.open[0] = s.open[last]
	s.open = s.open[:last]
	for i := 0; ; {
		k := 2*i + 1 // the lesser child
		if k+1 < last && s.before(s.open[k+1], s.open[k]) {
			k++
		}
		if k >= last || !s.before(s.open[k], s.open[i]) {
			return top
		}
		s.open[i], s.open[k] = s.open[k], s.open[i]
		i = k
	}
}

// Solve finds a minimum-cost selection by best-first branch & bound. A
// node whose relaxation leaves a class fractional between hull vertices
// a and b branches on that class: items no heavier than a, items no
// lighter than b, and each item strictly between them on its own. All
// arithmetic is exact, and the result is a function of the problem alone.
func Solve(p *Problem) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	s := newSearch(p)
	copy(s.lo, s.rootLo)
	copy(s.hi, s.rootHi)
	if len(p.Classes) > 0 {
		s.branch(-1, 0, s.rootLo[0], s.rootHi[0])
	} else {
		s.relax()
	}
	for len(s.open) > 0 {
		id := s.pop()
		if s.nodes[id].bound >= s.best {
			break // best-first: no open node can beat the incumbent
		}
		if s.evals > maxNodes {
			return Result{}, fmt.Errorf("ilp: node limit exceeded (%d)", maxNodes)
		}
		copy(s.lo, s.rootLo)
		copy(s.hi, s.rootHi)
		for n := id; n >= 0; n = s.nodes[n].parent {
			r := &s.nodes[n]
			s.lo[r.class], s.hi[r.class] = max(s.lo[r.class], r.lo), min(s.hi[r.class], r.hi)
		}
		st := s.steps[s.nodes[id].frac]
		lo, hi := s.lo[st.class], s.hi[st.class]
		s.branch(id, st.class, st.to, hi)
		for m := st.from + 1; m < st.to; m++ {
			s.branch(id, st.class, m, m)
		}
		s.branch(id, st.class, lo, st.from)
	}
	res := Result{Feasible: s.found, Nodes: s.evals, SimplexIters: s.iters}
	if s.found {
		res.Cost = s.best
		res.Choice = make([]int, len(p.Classes))
		for c, q := range s.bestPos {
			res.Choice[c] = s.orig[q]
			res.Weight += s.weight[q]
		}
	}
	return res, nil
}

// SolveExhaustive enumerates every selection and returns the cheapest
// one that fits (the first in index order among equals). It is the test
// oracle for Solve; exponential, so only for small instances.
func SolveExhaustive(p *Problem) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	const limit = 1 << 22
	total := 1
	for _, items := range p.Classes {
		if total *= len(items); total > limit {
			return Result{}, fmt.Errorf("ilp: exhaustive solver limited to %d selections", limit)
		}
	}
	var best Result
	choice := make([]int, len(p.Classes))
	for n := 0; n < total; n++ {
		var cost, weight int64
		for c, i := range choice {
			cost += p.Classes[c][i].Cost
			weight += p.Classes[c][i].Weight
		}
		if weight <= p.Budget && (!best.Feasible || cost < best.Cost) {
			best = Result{Feasible: true, Choice: append([]int(nil), choice...), Cost: cost, Weight: weight}
		}
		for c := len(choice) - 1; c >= 0; c-- {
			if choice[c]++; choice[c] < len(p.Classes[c]) {
				break
			}
			choice[c] = 0
		}
	}
	return best, nil
}
