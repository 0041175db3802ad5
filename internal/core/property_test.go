package core

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/faults"
	"ucudnn/internal/obs"
	"ucudnn/internal/tensor"
)

// fastestFitting mirrors the T'(m) table of the WR dynamic program: the
// fastest per-size micro-configuration whose workspace fits the limit.
func fastestFitting(perfs map[int][]cudnn.AlgoPerf, sizes []int, limit int64) map[int]time.Duration {
	t1 := make(map[int]time.Duration, len(sizes))
	for _, m := range sizes {
		for _, p := range perfs[m] {
			if p.Memory <= limit {
				t1[m] = p.Time
				break
			}
		}
	}
	return t1
}

// bruteBest enumerates every partition of n into candidate sizes (ordered
// non-increasing, so each multiset once) and returns the cheapest total
// time — an independent oracle for the DP, affordable because n <= 16.
func bruteBest(sizes []int, t1 map[int]time.Duration, n int) (time.Duration, bool) {
	var rec func(rem, maxPart int) (time.Duration, bool)
	rec = func(rem, maxPart int) (time.Duration, bool) {
		if rem == 0 {
			return 0, true
		}
		var best time.Duration
		found := false
		for _, m := range sizes { // ascending
			if m > rem || m > maxPart {
				break
			}
			tm, ok := t1[m]
			if !ok {
				continue
			}
			sub, ok := rec(rem-m, m)
			if !ok {
				continue
			}
			if c := tm + sub; !found || c < best {
				best, found = c, true
			}
		}
		return best, found
	}
	return rec(n, n)
}

// The WR dynamic program must be exactly optimal over its candidate-size
// universe: for every mini-batch n <= 16, both batch-size policies, both
// workspace-bearing ops, and a workspace limit swept through every
// distinct algorithm memory requirement, the plan's time equals the
// brute-force partition minimum and every micro-batch fits the limit.
func TestWROptimalUpTo16(t *testing.T) {
	b := modelBencher()
	for _, op := range []conv.Op{conv.Forward, conv.BackwardFilter} {
		for n := 2; n <= 16; n++ {
			k := Kernel{Op: op, Shape: conv2Shape(n)}
			for _, policy := range []Policy{PolicyPowerOfTwo, PolicyAll} {
				sizes := policy.CandidateSizes(n)
				perfs := b.PerfsForSizes(k, sizes)

				// Sweep the limit through every distinct memory demand, the
				// points where the fitting set — and thus the optimum — can
				// change, plus one below the global minimum (no solution) and
				// one effectively unbounded.
				limitSet := map[int64]bool{1 << 26: true}
				minMem := int64(1) << 62
				for _, m := range sizes {
					for _, p := range perfs[m] {
						limitSet[p.Memory] = true
						if p.Memory < minMem {
							minMem = p.Memory
						}
					}
				}
				limitSet[minMem-1] = true
				limits := make([]int64, 0, len(limitSet))
				for l := range limitSet {
					limits = append(limits, l)
				}
				sort.Slice(limits, func(i, j int) bool { return limits[i] < limits[j] })

				for _, limit := range limits {
					t1 := fastestFitting(perfs, sizes, limit)
					want, feasible := bruteBest(sizes, t1, n)
					plan, err := OptimizeWR(b, k, limit, policy)
					if !feasible {
						if err == nil {
							t.Fatalf("%v n=%d %v limit=%d: DP found %v but brute force says infeasible", op, n, policy, limit, plan)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%v n=%d %v limit=%d: brute force %v feasible but DP errored: %v", op, n, policy, limit, want, err)
					}
					if plan.Time != want {
						t.Fatalf("%v n=%d %v limit=%d: DP time %v != brute-force optimum %v (plan %v)",
							op, n, policy, limit, plan.Time, want, plan)
					}
					if got := plan.Config.TotalBatch(); got != n {
						t.Fatalf("%v n=%d: plan covers %d samples: %v", op, n, got, plan)
					}
					for _, mc := range plan.Config {
						ws, ok := conv.Workspace(op, mc.Algo, k.Shape.WithN(mc.BatchSize))
						if !ok || ws > limit {
							t.Fatalf("%v n=%d limit=%d: micro-batch %v needs %d bytes (ok=%v), over budget", op, n, limit, mc, ws, ok)
						}
					}
				}
			}
		}
	}
}

// After any fault-forced degradation, the adopted plan must still be a
// valid division of the mini-batch within the per-kernel workspace budget,
// and — with the algorithm pinned — produce bit-identical output. Trials
// randomize the batch size, fault point, firing index, and shrink factor
// from a fixed seed, so a failure names the trial that reproduces it.
func TestDegradedDivisionsSatisfyBudget(t *testing.T) {
	const trials = 12
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < trials; trial++ {
		n := 6 + rng.Intn(8)
		var rule faults.Rule
		if trial%2 == 0 {
			rule = faults.Rule{Point: faults.PointArenaGrow, Trigger: faults.Nth(1), Shrink: 2 + rng.Int63n(31)}
		} else {
			rule = faults.Rule{Point: faults.PointConvolve, Trigger: faults.Nth(1 + rng.Int63n(2))}
		}

		xd, wd, cd, yd, cs := smallConv(n)
		full, ok := conv.Workspace(conv.Forward, conv.AlgoGemm, cs)
		if !ok {
			t.Fatal("gemm forward has no workspace model")
		}
		limit := full - 1 // force a divided plan so faults land mid-config
		trng := rand.New(rand.NewSource(int64(1000 + trial)))
		x := tensor.NewShaped(cs.In)
		x.Randomize(trng, 1)
		w := tensor.NewFilter(cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S)
		w.Randomize(trng, 0.5)

		run := func(reg *obs.Registry, fr *faults.Registry) ([]float32, []Plan) {
			h := newFaultedHandle(t, fr, cudnn.ModelBackend,
				WithWorkspaceLimit(limit), WithAlgoFilter(gemmOnly), WithMetrics(reg))
			y := tensor.NewShaped(cs.OutShape())
			if err := h.ConvolutionForward(1, xd, x, wd, w, cd, VirtualAlgo, nil, 0, yd, y); err != nil {
				t.Fatalf("trial %d (n=%d rule %v): %v", trial, n, rule, err)
			}
			return y.Data, h.Plans()
		}

		ref, _ := run(obs.NewRegistry(), nil)

		reg := obs.NewRegistry()
		fr := faults.New(rule)
		got, plans := run(reg, fr)

		if !bitsEqual(got, ref) {
			t.Fatalf("trial %d (n=%d rule %v): degraded output not bit-identical", trial, n, rule)
		}
		fired := len(fr.Shots()) > 0
		if fired && fallbackTotal(reg) == 0 {
			t.Fatalf("trial %d (n=%d rule %v): fault fired but no fallback recorded", trial, n, rule)
		}
		for _, p := range plans {
			if err := p.Config.Validate(n); err != nil {
				t.Fatalf("trial %d (n=%d rule %v): adopted plan invalid: %v", trial, n, rule, err)
			}
			// The budget may be exceeded only down at the MinWorkspace floor,
			// where correctness overrides the limit.
			var floor int64
			for _, mc := range p.Config {
				if f, ok := conv.MinWorkspace(conv.Forward, mc.Algo, cs.WithN(mc.BatchSize)); ok && f > floor {
					floor = f
				}
			}
			if p.Workspace > limit && p.Workspace > floor {
				t.Fatalf("trial %d (n=%d rule %v): adopted plan %v exceeds %d-byte budget (floor %d)", trial, n, rule, p, limit, floor)
			}
		}
	}
}
