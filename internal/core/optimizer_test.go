package core

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/tensor"
)

func conv2Shape(n int) tensor.ConvShape {
	return tensor.ConvShape{
		In:     tensor.Shape{N: n, C: 64, H: 27, W: 27},
		Filt:   tensor.Filter{K: 192, C: 64, R: 5, S: 5},
		Params: tensor.ConvParams{PadH: 2, PadW: 2, StrideH: 1, StrideW: 1},
	}
}

func modelBencher() *Bencher {
	return NewBencher(cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend), nil)
}

func TestPolicyCandidateSizes(t *testing.T) {
	if got := PolicyUndivided.CandidateSizes(256); len(got) != 1 || got[0] != 256 {
		t.Fatalf("undivided: %v", got)
	}
	want := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	got := PolicyPowerOfTwo.CandidateSizes(256)
	if len(got) != len(want) {
		t.Fatalf("powerOfTwo: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("powerOfTwo: %v", got)
		}
	}
	// Non-power mini-batch still ends with N.
	got = PolicyPowerOfTwo.CandidateSizes(48)
	if got[len(got)-1] != 48 || got[len(got)-2] != 32 {
		t.Fatalf("powerOfTwo(48): %v", got)
	}
	if got := PolicyAll.CandidateSizes(5); len(got) != 5 || got[0] != 1 || got[4] != 5 {
		t.Fatalf("all: %v", got)
	}
	if PolicyAll.CandidateSizes(0) != nil {
		t.Fatal("n=0 must return nil")
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{
		"undivided": PolicyUndivided, "u": PolicyUndivided,
		"powerOfTwo": PolicyPowerOfTwo, "p": PolicyPowerOfTwo, "poweroftwo": PolicyPowerOfTwo,
		"all": PolicyAll, "a": PolicyAll,
	}
	for s, want := range cases {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy must error")
	}
	if PolicyAll.String() != "all" || PolicyPowerOfTwo.String() != "powerOfTwo" || PolicyUndivided.String() != "undivided" {
		t.Fatal("policy strings")
	}
}

func TestConfigBasics(t *testing.T) {
	c := Config{{128, conv.AlgoFFT}, {64, conv.AlgoGemm}, {64, conv.AlgoGemm}}
	if c.TotalBatch() != 256 {
		t.Fatal("total batch")
	}
	if err := c.Validate(256); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(255); err == nil {
		t.Fatal("wrong total must fail")
	}
	if err := (Config{}).Validate(0); err == nil {
		t.Fatal("empty config must fail")
	}
	if err := (Config{{0, conv.AlgoGemm}}).Validate(0); err == nil {
		t.Fatal("zero micro-batch must fail")
	}
	if c.Undivided() {
		t.Fatal("3-entry config is divided")
	}
	if !(Config{{256, conv.AlgoGemm}}).Undivided() {
		t.Fatal("single entry is undivided")
	}
	s := c.String()
	if s != "<FFT@128, GEMM@64, GEMM@64>" {
		t.Fatalf("config string %q", s)
	}
	// Workspace is the max over micro-configurations.
	cs := conv2Shape(256)
	ws := c.Workspace(conv.Forward, cs)
	fft128, _ := conv.Workspace(conv.Forward, conv.AlgoFFT, cs.WithN(128))
	if ws != fft128 {
		t.Fatalf("config ws %d != max micro ws %d", ws, fft128)
	}
}

func TestWRUndividedMatchesCudnn(t *testing.T) {
	b := modelBencher()
	k := Kernel{Op: conv.Forward, Shape: conv2Shape(256)}
	limit := int64(64 << 20)
	plan, err := OptimizeWR(b, k, limit, PolicyUndivided)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Config.Undivided() {
		t.Fatalf("undivided policy produced %v", plan.Config)
	}
	want, err := b.h.PickAlgo(conv.Forward, k.Shape, cudnn.SpecifyWorkspaceLimit, limit)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Config[0].Algo != want.Algo {
		t.Fatalf("undivided algo %v != cuDNN pick %v", plan.Config[0].Algo, want.Algo)
	}
	if plan.Time != want.Time {
		t.Fatalf("undivided time %v != %v", plan.Time, want.Time)
	}
}

// The paper's Fig. 9 anchor: at a 64 MiB limit and mini-batch 256, WR must
// divide conv2's forward pass into micro-batches running FFT, beating the
// undivided (GEMM) choice substantially.
func TestWREnablesFFTOnConv2(t *testing.T) {
	b := modelBencher()
	k := Kernel{Op: conv.Forward, Shape: conv2Shape(256)}
	limit := int64(64 << 20)
	undiv, err := OptimizeWR(b, k, limit, PolicyUndivided)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := OptimizeWR(b, k, limit, PolicyPowerOfTwo)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Config.Validate(256); err != nil {
		t.Fatal(err)
	}
	if p2.Config.Undivided() {
		t.Fatalf("powerOfTwo should divide: %v", p2.Config)
	}
	usesFFT := false
	for _, m := range p2.Config {
		if m.Algo == conv.AlgoFFT || m.Algo == conv.AlgoFFTTiling {
			usesFFT = true
		}
	}
	if !usesFFT {
		t.Fatalf("expected FFT micro-batches, got %v", p2.Config)
	}
	if p2.Workspace > limit {
		t.Fatalf("plan workspace %d exceeds limit", p2.Workspace)
	}
	speedup := float64(undiv.Time) / float64(p2.Time)
	if speedup < 1.3 {
		t.Fatalf("micro-batching speedup %.2f too small (undiv %v vs %v %v)",
			speedup, undiv.Time, p2.Config, p2.Time)
	}
	t.Logf("conv2@64MiB: undivided %v -> %v %v (%.2fx)", undiv.Time, p2.Config, p2.Time, speedup)
}

// DP optimality: WR must match brute-force enumeration over all ordered
// compositions for a small mini-batch with the all policy.
func TestWRMatchesBruteForce(t *testing.T) {
	b := modelBencher()
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: 7, C: 32, H: 14, W: 14},
		Filt:   tensor.Filter{K: 48, C: 32, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	}
	k := Kernel{Op: conv.Forward, Shape: cs}
	limit := int64(2 << 20)
	plan, err := OptimizeWR(b, k, limit, PolicyAll)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force: best time for batch b = fastest fitting micro at any size
	// m <= b plus best time for b-m (same recurrence, computed indepen-
	// dently over explicit enumeration of compositions up to depth 7).
	t1 := map[int]time.Duration{}
	for m := 1; m <= 7; m++ {
		perfs := b.Perfs(Kernel{Op: k.Op, Shape: cs.WithN(m)})
		bestT := time.Duration(math.MaxInt64)
		for _, p := range perfs {
			if p.Memory <= limit && p.Time < bestT {
				bestT = p.Time
			}
		}
		t1[m] = bestT
	}
	var enumerate func(rem int) time.Duration
	enumerate = func(rem int) time.Duration {
		if rem == 0 {
			return 0
		}
		best := time.Duration(math.MaxInt64)
		for m := 1; m <= rem; m++ {
			if t1[m] == math.MaxInt64 {
				continue
			}
			sub := enumerate(rem - m)
			if sub == math.MaxInt64 {
				continue
			}
			if c := t1[m] + sub; c < best {
				best = c
			}
		}
		return best
	}
	want := enumerate(7)
	if plan.Time != want {
		t.Fatalf("WR time %v != brute force %v (config %v)", plan.Time, want, plan.Config)
	}
}

// Monotonicity: more workspace can never slow the optimum down.
func TestWRMonotonicInWorkspace(t *testing.T) {
	b := modelBencher()
	k := Kernel{Op: conv.Forward, Shape: conv2Shape(64)}
	var prev time.Duration
	for i, limit := range []int64{1 << 20, 8 << 20, 64 << 20, 512 << 20} {
		plan, err := OptimizeWR(b, k, limit, PolicyPowerOfTwo)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && plan.Time > prev {
			t.Fatalf("limit %d MiB slower (%v) than smaller limit (%v)", limit>>20, plan.Time, prev)
		}
		prev = plan.Time
	}
}

func TestWRNoFitError(t *testing.T) {
	b := modelBencher()
	k := Kernel{Op: conv.Forward, Shape: conv2Shape(8)}
	// Limit of -1: even zero-workspace algorithms don't fit.
	if _, err := OptimizeWR(b, k, -1, PolicyPowerOfTwo); err == nil {
		t.Fatal("impossible limit must error")
	}
}

func TestWRAllBeatsOrMatchesPowerOfTwo(t *testing.T) {
	b := modelBencher()
	k := Kernel{Op: conv.Forward, Shape: conv2Shape(48)}
	limit := int64(32 << 20)
	pAll, err := OptimizeWR(b, k, limit, PolicyAll)
	if err != nil {
		t.Fatal(err)
	}
	pPow, err := OptimizeWR(b, k, limit, PolicyPowerOfTwo)
	if err != nil {
		t.Fatal(err)
	}
	if pAll.Time > pPow.Time {
		t.Fatalf("all (%v) must not lose to powerOfTwo (%v)", pAll.Time, pPow.Time)
	}
}

func TestDesirableSetIsParetoFront(t *testing.T) {
	b := modelBencher()
	k := Kernel{Op: conv.Forward, Shape: conv2Shape(256)}
	front, err := DesirableSet(b, k, 120<<20, PolicyPowerOfTwo)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 2 {
		t.Fatalf("expected a nontrivial front, got %d entries", len(front))
	}
	for i, a := range front {
		if err := a.Config.Validate(256); err != nil {
			t.Fatalf("front[%d]: %v", i, err)
		}
		if a.Workspace > 120<<20 {
			t.Fatalf("front[%d] exceeds limit: %d", i, a.Workspace)
		}
		for j, bb := range front {
			if i == j {
				continue
			}
			if bb.Time <= a.Time && bb.Workspace <= a.Workspace {
				t.Fatalf("front[%d] dominated by front[%d]", i, j)
			}
		}
	}
	// Sorted by time ascending, workspace strictly descending.
	for i := 1; i < len(front); i++ {
		if front[i].Time < front[i-1].Time || front[i].Workspace >= front[i-1].Workspace {
			t.Fatal("front not sorted/strict")
		}
	}
	t.Logf("conv2 desirable set: %d configurations", len(front))
}

// The WR optimum is an element of the desirable set (paper consistency
// property: T*(B) = T(WD'(B)[fastest]) under the same limit).
func TestWROptimumInDesirableSet(t *testing.T) {
	b := modelBencher()
	k := Kernel{Op: conv.Forward, Shape: conv2Shape(64)}
	limit := int64(64 << 20)
	plan, err := OptimizeWR(b, k, limit, PolicyPowerOfTwo)
	if err != nil {
		t.Fatal(err)
	}
	front, err := DesirableSet(b, k, limit, PolicyPowerOfTwo)
	if err != nil {
		t.Fatal(err)
	}
	if front[0].Time != plan.Time {
		t.Fatalf("fastest desirable %v != WR optimum %v", front[0].Time, plan.Time)
	}
}

// Exhaustive cross-check of the desirable DP on a small instance: the
// front must equal the Pareto prune of *all* configurations.
func TestDesirableSetMatchesExhaustive(t *testing.T) {
	b := modelBencher()
	cs := tensor.ConvShape{
		In:     tensor.Shape{N: 5, C: 16, H: 9, W: 9},
		Filt:   tensor.Filter{K: 24, C: 16, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1},
	}
	k := Kernel{Op: conv.Forward, Shape: cs}
	limit := int64(1 << 30)
	front, err := DesirableSet(b, k, limit, PolicyAll)
	if err != nil {
		t.Fatal(err)
	}
	// Enumerate all multisets of micro-batches summing to 5 with all algos.
	type cost struct {
		t  time.Duration
		ws int64
	}
	var all []cost
	var micro [6][]cost
	for m := 1; m <= 5; m++ {
		for _, p := range b.Perfs(Kernel{Op: k.Op, Shape: cs.WithN(m)}) {
			if p.Memory <= limit {
				micro[m] = append(micro[m], cost{p.Time, p.Memory})
			}
		}
	}
	var rec func(rem, minSize int, t time.Duration, ws int64)
	rec = func(rem, minSize int, acc time.Duration, ws int64) {
		if rem == 0 {
			all = append(all, cost{acc, ws})
			return
		}
		for m := minSize; m <= rem; m++ {
			for _, mc := range micro[m] {
				nws := ws
				if mc.ws > nws {
					nws = mc.ws
				}
				rec(rem-m, m, acc+mc.t, nws)
			}
		}
	}
	rec(5, 1, 0, 0)
	// Pareto prune the exhaustive set.
	var frontWant []cost
	for _, a := range all {
		dominated := false
		for _, bb := range all {
			if (bb.t < a.t && bb.ws <= a.ws) || (bb.t <= a.t && bb.ws < a.ws) {
				dominated = true
				break
			}
		}
		if !dominated {
			frontWant = append(frontWant, a)
		}
	}
	// Compare as sets of (t, ws).
	seen := map[cost]bool{}
	for _, f := range front {
		seen[cost{f.Time, f.Workspace}] = true
	}
	for _, w := range frontWant {
		if !seen[w] {
			t.Fatalf("exhaustive Pareto point %+v missing from DP front", w)
		}
	}
	for _, f := range front {
		ok := false
		for _, w := range frontWant {
			if w.t == f.Time && w.ws == f.Workspace {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("DP front point (%v, %d) is not Pareto-optimal exhaustively", f.Time, f.Workspace)
		}
	}
}

func TestParetoPrune(t *testing.T) {
	in := []ScoredConfig{
		{Time: 10, Workspace: 5},
		{Time: 5, Workspace: 10},
		{Time: 7, Workspace: 7},
		{Time: 6, Workspace: 6},  // dominates (7,7)
		{Time: 5, Workspace: 12}, // dominated by (5,10)
		{Time: 12, Workspace: 1},
	}
	out := paretoPrune(in)
	want := map[[2]int64]bool{{5, 10}: true, {6, 6}: true, {10, 5}: true, {12, 1}: true}
	if len(out) != len(want) {
		t.Fatalf("pruned to %d entries: %v", len(out), out)
	}
	for _, o := range out {
		if !want[[2]int64{int64(o.Time), o.Workspace}] {
			t.Fatalf("unexpected survivor (%v, %d)", o.Time, o.Workspace)
		}
	}
	if paretoPrune(nil) != nil {
		t.Fatal("empty prune")
	}
}

func TestOptimizeWDRespectsBudgetAndBeatsWR(t *testing.T) {
	b := modelBencher()
	// AlexNet-like forward kernels (conv2..conv5 shapes, batch 64).
	kernels := []Kernel{
		{Op: conv.Forward, Shape: conv2Shape(64)},
		{Op: conv.Forward, Shape: tensor.ConvShape{
			In: tensor.Shape{N: 64, C: 192, H: 13, W: 13}, Filt: tensor.Filter{K: 384, C: 192, R: 3, S: 3},
			Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1}}},
		{Op: conv.Forward, Shape: tensor.ConvShape{
			In: tensor.Shape{N: 64, C: 384, H: 13, W: 13}, Filt: tensor.Filter{K: 256, C: 384, R: 3, S: 3},
			Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1}}},
	}
	perKernel := int64(8 << 20)
	total := perKernel * int64(len(kernels))
	res, err := OptimizeWD(b, kernels, total, PolicyPowerOfTwo)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWorkspace > total {
		t.Fatalf("WD workspace %d exceeds budget %d", res.TotalWorkspace, total)
	}
	if len(res.Plans) != len(kernels) {
		t.Fatalf("got %d plans", len(res.Plans))
	}
	var wrTotal time.Duration
	for _, k := range kernels {
		p, err := OptimizeWR(b, k, perKernel, PolicyPowerOfTwo)
		if err != nil {
			t.Fatal(err)
		}
		wrTotal += p.Time
	}
	if res.TotalTime > wrTotal {
		t.Fatalf("WD (%v) must not lose to WR (%v) at equal total budget", res.TotalTime, wrTotal)
	}
	t.Logf("WD %v vs WR %v at %d MiB total (vars=%d nodes=%d solve=%v)",
		res.TotalTime, wrTotal, total>>20, res.ILPVars, res.ILPNodes, res.SolveTime)
}

// The §III-C1 theorem: pruning undesirable configurations never changes
// the ILP optimum. Verified by brute-forcing the unpruned assignment space
// on a small instance.
func TestPruningPreservesILPOptimum(t *testing.T) {
	b := modelBencher()
	cs1 := tensor.ConvShape{
		In: tensor.Shape{N: 4, C: 16, H: 9, W: 9}, Filt: tensor.Filter{K: 24, C: 16, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1}}
	cs2 := tensor.ConvShape{
		In: tensor.Shape{N: 4, C: 24, H: 7, W: 7}, Filt: tensor.Filter{K: 16, C: 24, R: 5, S: 5},
		Params: tensor.ConvParams{PadH: 2, PadW: 2, StrideH: 1, StrideW: 1}}
	kernels := []Kernel{{Op: conv.Forward, Shape: cs1}, {Op: conv.Forward, Shape: cs2}}
	total := int64(3 << 20)

	res, err := OptimizeWD(b, kernels, total, PolicyAll)
	if err != nil {
		t.Fatal(err)
	}

	// Brute force over the *unpruned* configuration spaces.
	enumerateConfigs := func(k Kernel) []ScoredConfig {
		n := k.Shape.In.N
		var micro [8][]ScoredConfig
		for m := 1; m <= n; m++ {
			for _, p := range b.Perfs(Kernel{Op: k.Op, Shape: k.Shape.WithN(m)}) {
				if p.Memory <= total {
					micro[m] = append(micro[m], ScoredConfig{Time: p.Time, Workspace: p.Memory})
				}
			}
		}
		var out []ScoredConfig
		var rec func(rem, minSize int, acc time.Duration, ws int64)
		rec = func(rem, minSize int, acc time.Duration, ws int64) {
			if rem == 0 {
				out = append(out, ScoredConfig{Time: acc, Workspace: ws})
				return
			}
			for m := minSize; m <= rem; m++ {
				for _, mc := range micro[m] {
					nws := ws
					if mc.Workspace > nws {
						nws = mc.Workspace
					}
					rec(rem-m, m, acc+mc.Time, nws)
				}
			}
		}
		rec(n, 1, 0, 0)
		return out
	}
	s1 := enumerateConfigs(kernels[0])
	s2 := enumerateConfigs(kernels[1])
	best := time.Duration(math.MaxInt64)
	for _, a := range s1 {
		for _, bb := range s2 {
			if a.Workspace+bb.Workspace <= total && a.Time+bb.Time < best {
				best = a.Time + bb.Time
			}
		}
	}
	if res.TotalTime != best {
		t.Fatalf("pruned ILP optimum %v != unpruned brute force %v", res.TotalTime, best)
	}
}

func TestOptimizeWDDeduplicatesKernels(t *testing.T) {
	b := modelBencher()
	k := Kernel{Op: conv.Forward, Shape: conv2Shape(32)}
	res, err := OptimizeWD(b, []Kernel{k, k, k}, 64<<20, PolicyPowerOfTwo)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) != 3 {
		t.Fatalf("plans = %d", len(res.Plans))
	}
	if res.Plans[0].Config.String() != res.Plans[1].Config.String() {
		t.Fatal("identical kernels must share a configuration")
	}
	// Shared segment: total workspace counts the kernel once.
	if res.TotalWorkspace != res.Plans[0].Workspace {
		t.Fatalf("dedup workspace %d != %d", res.TotalWorkspace, res.Plans[0].Workspace)
	}
	// Time counts the multiplicity.
	if res.TotalTime != 3*res.Plans[0].Time {
		t.Fatalf("dedup time %v != 3x%v", res.TotalTime, res.Plans[0].Time)
	}
	single, err := DesirableSet(b, k, 64<<20, PolicyPowerOfTwo)
	if err != nil {
		t.Fatal(err)
	}
	if res.ILPVars != len(single) {
		t.Fatalf("ILP vars %d != front size %d", res.ILPVars, len(single))
	}
}

func TestOptimizeWDErrors(t *testing.T) {
	b := modelBencher()
	if _, err := OptimizeWD(b, nil, 1<<20, PolicyPowerOfTwo); err == nil {
		t.Fatal("no kernels must error")
	}
	k := Kernel{Op: conv.Forward, Shape: conv2Shape(8)}
	if _, err := OptimizeWD(b, []Kernel{k}, -5, PolicyPowerOfTwo); err == nil {
		t.Fatal("impossible budget must error")
	}
	for _, reserve := range []int64{-1, 1 << 20, 2 << 20} {
		_, err := OptimizeWDReserved(b, []Kernel{k}, 1<<20, reserve, PolicyPowerOfTwo)
		if err == nil || !strings.Contains(err.Error(), "blob reserve") {
			t.Fatalf("reserve %d of a 1 MiB pool: err = %v, want a blob-reserve error", reserve, err)
		}
	}
}

// Every kernel fits the pool on its own but not together: the ILP is
// infeasible, which OptimizeWDReserved reports in terms of the pool.
func TestOptimizeWDInfeasiblePool(t *testing.T) {
	h := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	h.SetAlgoFilter(func(op conv.Op, a conv.Algo) bool { return a == conv.AlgoGemm }) // no zero-workspace fallback
	b := NewBencher(h, nil)
	kernels := []Kernel{{Op: conv.Forward, Shape: conv2Shape(8)}, {Op: conv.BackwardData, Shape: conv2Shape(8)}}
	var need, least int64
	for _, k := range kernels {
		front, err := DesirableSet(b, k, 1<<30, PolicyPowerOfTwo)
		if err != nil {
			t.Fatal(err)
		}
		ws := front[len(front)-1].Workspace // fronts end on the smallest workspace
		if ws == 0 {
			t.Fatalf("%v has a zero-workspace configuration; the instance cannot be made infeasible", k)
		}
		need, least = need+ws, max(least, ws)
	}
	const reserve = 1 << 20
	if _, err := OptimizeWDReserved(b, kernels, need+reserve, reserve, PolicyPowerOfTwo); err != nil {
		t.Fatalf("pool of exactly the minimum need: %v", err)
	}
	for _, total := range []int64{need - 1, least} {
		_, err := OptimizeWDReserved(b, kernels, total+reserve, reserve, PolicyPowerOfTwo)
		want := fmt.Sprintf("no configuration assignment fits %d bytes (joint pool %d, blob reserve %d)", total, total+reserve, int64(reserve))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("pool of %d bytes for kernels needing %d: err = %v, want %q", total, need, err, want)
		}
	}
}

// The paper's Fig. 1 "-1 byte" cliff at the WD level: one byte either
// side of every total workspace some assignment reaches, the result must
// fit the pool less the reserve in exact integer bytes and match a brute
// force over the desirable sets to the nanosecond.
func TestOptimizeWDExactAtBreakpoints(t *testing.T) {
	b := modelBencher()
	k1 := Kernel{Op: conv.Forward, Shape: conv2Shape(8)}
	k2 := Kernel{Op: conv.BackwardFilter, Shape: conv2Shape(8)}
	k3 := Kernel{Op: conv.Forward, Shape: tensor.ConvShape{
		In: tensor.Shape{N: 8, C: 192, H: 13, W: 13}, Filt: tensor.Filter{K: 384, C: 192, R: 3, S: 3},
		Params: tensor.ConvParams{PadH: 1, PadW: 1, StrideH: 1, StrideW: 1}}}
	kernels := []Kernel{k1, k2, k3, k1} // k1 twice: its time counts double, its segment once
	unique, count := []Kernel{k1, k2, k3}, []time.Duration{2, 1, 1}

	sums := map[int64]bool{0: true}
	for _, k := range unique {
		front, err := DesirableSet(b, k, 1<<30, PolicyPowerOfTwo)
		if err != nil {
			t.Fatal(err)
		}
		next := map[int64]bool{}
		for s := range sums {
			for _, sc := range front {
				next[s+sc.Workspace] = true
			}
		}
		sums = next
	}
	if len(sums) < 20 {
		t.Fatalf("only %d breakpoints; the instance is too small to mean anything", len(sums))
	}
	const reserve = 3<<20 + 1
	for sum := range sums {
		for _, effective := range []int64{sum - 1, sum, sum + 1} {
			if effective < 1 {
				continue // a reserve that leaves the pool empty is a caller error
			}
			res, err := OptimizeWDReserved(b, kernels, effective+reserve, reserve, PolicyPowerOfTwo)
			if err != nil {
				t.Fatalf("effective budget %d: %v", effective, err)
			}
			if res.TotalWorkspace > effective || res.EffectiveBudget != effective || res.BlobReserve != reserve {
				t.Fatalf("effective budget %d: workspace %d, reported budget %d, reserve %d", effective, res.TotalWorkspace, res.EffectiveBudget, res.BlobReserve)
			}
			var fronts [3][]ScoredConfig
			for i, k := range unique {
				if fronts[i], err = DesirableSet(b, k, effective, PolicyPowerOfTwo); err != nil {
					t.Fatal(err)
				}
			}
			best := time.Duration(math.MaxInt64)
			for _, a := range fronts[0] {
				for _, bb := range fronts[1] {
					for _, c := range fronts[2] {
						if tm := count[0]*a.Time + count[1]*bb.Time + count[2]*c.Time; a.Workspace+bb.Workspace+c.Workspace <= effective && tm < best {
							best = tm
						}
					}
				}
			}
			if res.TotalTime != best {
				t.Fatalf("effective budget %d: WD time %v, brute force %v", effective, res.TotalTime, best)
			}
			var ws int64
			var tm time.Duration
			for i, p := range res.Plans[:3] {
				ws += p.Workspace
				tm += count[i] * p.Time
			}
			if ws != res.TotalWorkspace || tm != res.TotalTime || res.Plans[3].Config.String() != res.Plans[0].Config.String() {
				t.Fatalf("effective budget %d: plans add up to (%v, %d), result says (%v, %d)", effective, tm, ws, res.TotalTime, res.TotalWorkspace)
			}
		}
	}
	t.Logf("%d breakpoints", len(sums))
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.db")
	c, err := NewCache(path)
	if err != nil {
		t.Fatal(err)
	}
	key := CacheKey("P100-SXM2", cudnn.ModelOnlyBackend, conv.Forward, conv2Shape(32))
	perfs := []cudnn.AlgoPerf{
		{Algo: conv.AlgoFFT, Time: 123 * time.Microsecond, Memory: 456},
		{Algo: conv.AlgoGemm, Time: 789 * time.Microsecond, Memory: 42},
	}
	if err := c.Put(key, perfs); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatal("len after put")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Reload from disk.
	c2, err := NewCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, ok := c2.Get(key)
	if !ok || len(got) != 2 {
		t.Fatalf("reload failed: %v %v", got, ok)
	}
	if got[0] != perfs[0] || got[1] != perfs[1] {
		t.Fatalf("reload mismatch: %v", got)
	}
}

func TestCacheKeyDistinguishes(t *testing.T) {
	a := CacheKey("P100", cudnn.ModelOnlyBackend, conv.Forward, conv2Shape(32))
	b := CacheKey("P100", cudnn.ModelOnlyBackend, conv.Forward, conv2Shape(64))
	c := CacheKey("P100", cudnn.ModelOnlyBackend, conv.BackwardData, conv2Shape(32))
	d := CacheKey("K80", cudnn.ModelOnlyBackend, conv.Forward, conv2Shape(32))
	e := CacheKey("P100", cudnn.RealBackend, conv.Forward, conv2Shape(32))
	set := map[string]bool{a: true, b: true, c: true, d: true, e: true}
	if len(set) != 5 {
		t.Fatal("cache keys collide")
	}
}

func TestBencherUsesCache(t *testing.T) {
	h := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	cache, _ := NewCache("")
	b := NewBencher(h, cache)
	k := Kernel{Op: conv.Forward, Shape: conv2Shape(16)}
	sizes := []int{1, 2, 4, 8, 16}
	m1 := b.PerfsForSizes(k, sizes)
	if len(m1) != len(sizes) {
		t.Fatalf("got %d size entries", len(m1))
	}
	if cache.Len() != len(sizes) {
		t.Fatalf("cache has %d entries", cache.Len())
	}
	// Second call is served from cache (same pointers).
	m2 := b.PerfsForSizes(k, sizes)
	for _, n := range sizes {
		if len(m1[n]) == 0 || len(m2[n]) == 0 {
			t.Fatalf("size %d missing", n)
		}
		if &m1[n][0] != &m2[n][0] {
			t.Fatalf("size %d not served from cache", n)
		}
	}
}
