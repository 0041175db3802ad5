package core

import (
	"fmt"
	"time"

	"ucudnn/internal/ilp"
)

// WDResult is the outcome of the Workspace Division optimizer.
type WDResult struct {
	// Plans holds one plan per input kernel, in input order. Kernels with
	// identical (op, shape) receive the same configuration and share one
	// workspace segment (they execute sequentially).
	Plans []Plan
	// TotalTime is the predicted summed kernel time per iteration.
	TotalTime time.Duration
	// TotalWorkspace is the summed size of the assigned segments.
	TotalWorkspace int64
	// ILPVars is the number of 0-1 variables after Pareto pruning.
	ILPVars int
	// ILPNodes is the number of branch-and-bound nodes explored.
	ILPNodes int
	// SimplexIters is the number of hull steps walked by the search's
	// LP relaxations. The solver is a multiple-choice-knapsack branch &
	// bound with a greedy relaxation, not a simplex; a hull step (one
	// kernel's configuration swapped for its hull successor) is precisely
	// the pivot a simplex would make on this LP, so the name stays.
	SimplexIters int
	// SolveTime is the wall time spent in the ILP solver alone.
	SolveTime time.Duration
	// BlobReserve is the blob-memory reservation carved out of the joint
	// pool before solving (zero when workspace had the pool to itself).
	BlobReserve int64
	// EffectiveBudget is the workspace budget the ILP actually solved
	// under: the joint pool minus BlobReserve.
	EffectiveBudget int64
}

// OptimizeWD runs the Workspace Division optimizer of §III-C: desirable
// configuration sets per kernel (Pareto fronts, pruned per §III-C1) feed a
// 0-1 ILP that picks exactly one configuration per kernel while keeping
// the *total* workspace under totalLimit (Eq. 1-4), minimizing the summed
// execution time.
//
// Kernels with identical (op, shape) — replicated layers, as in ResNet —
// are optimized once: they contribute their multiplicity to the objective
// and share a single workspace segment, since kernels execute
// sequentially. This matches the variable counts the paper reports
// (562 binary variables for ResNet-50).
func OptimizeWD(b *Bencher, kernels []Kernel, totalLimit int64, policy Policy) (*WDResult, error) {
	return OptimizeWDReserved(b, kernels, totalLimit, 0, policy)
}

// OptimizeWDReserved is OptimizeWD over a joint memory pool: totalLimit
// bytes are shared between per-kernel workspaces and a blob-memory
// reservation of reserve bytes (the out-of-core scheduler's peak
// activation working set). The reservation comes off the ILP's budget,
// so kernel configurations compete only for what activations left
// behind.
func OptimizeWDReserved(b *Bencher, kernels []Kernel, totalLimit, reserve int64, policy Policy) (*WDResult, error) {
	if len(kernels) == 0 {
		return nil, fmt.Errorf("core: no kernels to optimize")
	}
	if reserve < 0 || reserve >= totalLimit {
		return nil, fmt.Errorf("core: blob reserve %d outside joint pool of %d bytes", reserve, totalLimit)
	}
	optStart := time.Now()
	defer b.m.wdSeconds.ObserveSince(optStart)
	// Group identical kernels.
	type group struct {
		kernel Kernel
		count  int
		front  []ScoredConfig
		chosen ScoredConfig
	}
	groups := make([]group, 0, len(kernels))
	byKey := make(map[Kernel]int, len(kernels))
	groupOf := make([]int, len(kernels))
	for i, k := range kernels {
		gi, ok := byKey[k]
		if !ok {
			gi = len(groups)
			byKey[k] = gi
			groups = append(groups, group{kernel: k})
		}
		groups[gi].count++
		groupOf[i] = gi
	}
	effective := totalLimit - reserve
	var scratch desirableScratch
	for gi := range groups {
		front, err := scratch.desirableSet(b, groups[gi].kernel, effective, policy)
		if err != nil {
			return nil, err
		}
		groups[gi].front = front
	}

	// Assemble the ILP (Eq. 1-4) in exact integers: one class per group,
	// cost in ns for all of the group's kernels, weight in bytes. The blob
	// reservation is already out of the budget, so the solver sees one
	// joint pool.
	prob := &ilp.Problem{Classes: make([][]ilp.Item, len(groups)), Budget: effective}
	n := 0
	for gi, g := range groups {
		items := make([]ilp.Item, len(g.front))
		for ci, sc := range g.front {
			items[ci] = ilp.Item{Cost: int64(g.count) * int64(sc.Time), Weight: sc.Workspace}
		}
		prob.Classes[gi] = items
		n += len(items)
	}

	solveStart := time.Now()
	res, err := ilp.Solve(prob)
	solveTime := time.Since(solveStart)
	b.m.ilpVariables.Set(float64(n))
	b.m.wdSolveSeconds.ObserveDuration(solveTime)
	b.m.ilpNodes.Add(int64(res.Nodes))
	b.m.simplexIters.Add(int64(res.SimplexIters))
	if err != nil {
		return nil, fmt.Errorf("core: WD ILP: %w", err)
	}
	if !res.Feasible {
		return nil, fmt.Errorf("core: WD ILP infeasible: no configuration assignment fits %d bytes (joint pool %d, blob reserve %d)", effective, totalLimit, reserve)
	}

	out := &WDResult{
		ILPVars: n, ILPNodes: res.Nodes, SimplexIters: res.SimplexIters, SolveTime: solveTime,
		BlobReserve: reserve, EffectiveBudget: effective,
	}
	for gi := range groups {
		g := &groups[gi]
		g.chosen = g.front[res.Choice[gi]]
		out.TotalTime += time.Duration(g.count) * g.chosen.Time
		out.TotalWorkspace += g.chosen.Workspace
	}
	b.m.wdWorkspace.Set(float64(out.TotalWorkspace))
	b.m.wdPredicted.Set(out.TotalTime.Seconds())
	out.Plans = make([]Plan, 0, len(kernels))
	for i := range kernels {
		sc := groups[groupOf[i]].chosen
		out.Plans = append(out.Plans, Plan{
			Kernel:    kernels[i],
			Config:    sc.Config,
			Time:      sc.Time,
			Workspace: sc.Workspace,
		})
	}
	return out, nil
}
