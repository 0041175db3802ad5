package ilp

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// mckp builds a problem from parallel per-class cost and weight tables.
func mckp(costs, weights [][]int64, budget int64) *Problem {
	p := &Problem{Budget: budget}
	for c := range costs {
		var items []Item
		for i := range costs[c] {
			items = append(items, Item{Cost: costs[c][i], Weight: weights[c][i]})
		}
		p.Classes = append(p.Classes, items)
	}
	return p
}

// checkAgainstOracle solves p both ways and requires equal feasibility
// and cost, and a selection that is one in-range item per class, adds up
// to the reported totals and fits the budget.
func checkAgainstOracle(t *testing.T, p *Problem) Result {
	t.Helper()
	got, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve(%+v): %v", p, err)
	}
	want, err := SolveExhaustive(p)
	if err != nil {
		t.Fatalf("SolveExhaustive(%+v): %v", p, err)
	}
	if got.Feasible != want.Feasible {
		t.Fatalf("feasible = %v, oracle says %v on %+v", got.Feasible, want.Feasible, p)
	}
	if !got.Feasible {
		if got.Choice != nil || got.Cost != 0 || got.Weight != 0 {
			t.Fatalf("infeasible result carries a selection: %+v", got)
		}
		return got
	}
	if got.Cost != want.Cost {
		t.Fatalf("cost = %d, oracle %d (choice %v vs %v) on %+v", got.Cost, want.Cost, got.Choice, want.Choice, p)
	}
	if len(got.Choice) != len(p.Classes) {
		t.Fatalf("choice %v has %d entries for %d classes", got.Choice, len(got.Choice), len(p.Classes))
	}
	var cost, weight int64
	for c, i := range got.Choice {
		if i < 0 || i >= len(p.Classes[c]) {
			t.Fatalf("choice[%d] = %d outside class of %d items", c, i, len(p.Classes[c]))
		}
		cost += p.Classes[c][i].Cost
		weight += p.Classes[c][i].Weight
	}
	if cost != got.Cost || weight != got.Weight {
		t.Fatalf("choice %v totals (%d, %d), result reports (%d, %d)", got.Choice, cost, weight, got.Cost, got.Weight)
	}
	if weight > p.Budget {
		t.Fatalf("choice %v weighs %d, budget %d", got.Choice, weight, p.Budget)
	}
	return got
}

// A 0-1 knapsack is the multiple-choice knapsack whose classes are
// {leave, take}: values 60,100,120, weights 10,20,30, capacity 50 -> 220
// (items 2 and 3), i.e. a forgone value of 60.
func TestKnapsackKnown(t *testing.T) {
	p := mckp([][]int64{{60, 0}, {100, 0}, {120, 0}}, [][]int64{{0, 10}, {0, 20}, {0, 30}}, 50)
	r := checkAgainstOracle(t, p)
	if r.Cost != 60 || !reflect.DeepEqual(r.Choice, []int{0, 1, 1}) {
		t.Fatalf("cost %d choice %v, want 60 [0 1 1]", r.Cost, r.Choice)
	}
}

func TestMCKPKnown(t *testing.T) {
	// Two kernels; the budget forces the slow configuration on one of
	// them. Kernel 0 fast + kernel 1 slow = 12 beats the reverse (15).
	p := mckp([][]int64{{10, 4}, {8, 5}}, [][]int64{{0, 6}, {0, 6}}, 6)
	r := checkAgainstOracle(t, p)
	if r.Cost != 12 || r.Weight != 6 || !reflect.DeepEqual(r.Choice, []int{1, 0}) {
		t.Fatalf("got %+v, want cost 12 weight 6 choice [1 0]", r)
	}
}

// Infeasible — the lightest items together overrun the budget — is a
// result, not an error.
func TestInfeasibleILP(t *testing.T) {
	for _, p := range []*Problem{
		mckp([][]int64{{5}}, [][]int64{{10}}, 3),
		mckp([][]int64{{5, 1}, {7, 2}}, [][]int64{{4, 9}, {4, 9}}, 7),
		mckp([][]int64{{5}}, [][]int64{{0}}, -1),
		mckp([][]int64{{5}}, [][]int64{{0}}, -1<<63),
	} {
		r := checkAgainstOracle(t, p)
		if r.Feasible {
			t.Fatalf("%+v: feasible", p)
		}
		if r.Nodes != 1 {
			t.Fatalf("%+v: %d nodes to find the root infeasible", p, r.Nodes)
		}
	}
}

func TestValidation(t *testing.T) {
	const big = int64(1) << 62
	for name, p := range map[string]*Problem{
		"empty class":     {Classes: [][]Item{{{1, 1}}, {}}, Budget: 1},
		"negative cost":   {Classes: [][]Item{{{-1, 1}}}, Budget: 1},
		"negative weight": {Classes: [][]Item{{{1, -1}}}, Budget: 1},
		"cost overflow":   {Classes: [][]Item{{{big, 0}}, {{big, 0}}}, Budget: 1},
		"weight overflow": {Classes: [][]Item{{{0, big}}, {{0, 1}, {0, big}}}, Budget: 1},
	} {
		if _, err := Solve(p); err == nil {
			t.Errorf("%s: Solve accepted it", name)
		}
		if _, err := SolveExhaustive(p); err == nil {
			t.Errorf("%s: SolveExhaustive accepted it", name)
		}
	}
	// No classes at all is the empty selection.
	r := checkAgainstOracle(t, &Problem{})
	if !r.Feasible || r.Cost != 0 || len(r.Choice) != 0 {
		t.Fatalf("empty problem: %+v", r)
	}
}

func TestExhaustiveRejects(t *testing.T) {
	p := &Problem{Budget: 1}
	for c := 0; c < 23; c++ {
		p.Classes = append(p.Classes, []Item{{1, 0}, {0, 1}})
	}
	if _, err := SolveExhaustive(p); err == nil {
		t.Fatal("exhaustive must reject 2^23 selections")
	}
	if _, err := Solve(p); err != nil {
		t.Fatalf("Solve on the same instance: %v", err)
	}
}

// randomMCKP draws 1-7 classes of 1-6 items with the shapes that trip a
// hull-based bound: dominated and LP-dominated items, duplicate points,
// zero-weight items, single-item classes. scale stretches the magnitudes.
func randomMCKP(rng *rand.Rand, costScale, weightScale int64) *Problem {
	p := &Problem{}
	for c, n := 0, 1+rng.Intn(7); c < n; c++ {
		var items []Item
		for i, m := 0, 1+rng.Intn(6); i < m; i++ {
			it := Item{Cost: rng.Int63n(40) * costScale, Weight: rng.Int63n(12) * weightScale}
			switch k := rng.Intn(8); {
			case k == 0 && len(items) > 0:
				it = items[rng.Intn(len(items))] // duplicate point
			case k == 1:
				it.Weight = 0
			case k == 2 && len(items) > 0:
				// Dominated: heavier and costlier than an existing item.
				d := items[rng.Intn(len(items))]
				it = Item{Cost: d.Cost + rng.Int63n(3)*costScale, Weight: d.Weight + rng.Int63n(3)*weightScale}
			}
			items = append(items, it)
		}
		p.Classes = append(p.Classes, items)
	}
	return p
}

// achievableWeights lists every total weight some selection reaches.
func achievableWeights(p *Problem) []int64 {
	sums := map[int64]bool{0: true}
	for _, items := range p.Classes {
		next := map[int64]bool{}
		for s := range sums {
			for _, it := range items {
				next[s+it.Weight] = true
			}
		}
		sums = next
	}
	out := make([]int64, 0, len(sums))
	for s := range sums {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Property: branch & bound matches exhaustive enumeration on seeded
// random instances, each solved at budgets exactly on and one byte under
// achievable total weights (every one of them for a slice of the seeds,
// a random pair plus the extremes for the rest).
func TestBnBMatchesExhaustiveMCKP(t *testing.T) {
	instances, solves := 2400, 0
	if testing.Short() {
		instances = 300
	}
	for seed := 0; seed < instances; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		p := randomMCKP(rng, 1, 1)
		weights := achievableWeights(p)
		if seed%8 != 0 && len(weights) > 4 {
			i, j := rng.Intn(len(weights)), rng.Intn(len(weights))
			weights = []int64{weights[0], weights[i], weights[j], weights[len(weights)-1]}
		}
		for _, w := range weights {
			for _, b := range []int64{w, w - 1} {
				p.Budget = b
				checkAgainstOracle(t, p)
				solves++
			}
		}
	}
	t.Logf("%d instances, %d solves", instances, solves)
}

// Weights to 2^40 bytes and costs to 2^42 ns: the products the hull and
// the bound compare overflow int64, and must still order exactly.
func TestBnBMatchesExhaustiveLargeMagnitudes(t *testing.T) {
	for seed := 0; seed < 400; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		costScale := int64(1)<<42/40 - rng.Int63n(1000)
		weightScale := int64(1)<<40/12 - rng.Int63n(1000)
		p := randomMCKP(rng, costScale, weightScale)
		for c := range p.Classes { // perturb off the lattice the scales put every point on
			for i := range p.Classes[c] {
				p.Classes[c][i].Cost += rng.Int63n(3)
				p.Classes[c][i].Weight += rng.Int63n(3)
			}
		}
		weights := achievableWeights(p)
		for _, w := range []int64{weights[0], weights[rng.Intn(len(weights))], weights[len(weights)-1]} {
			for _, b := range []int64{w, w - 1} {
				p.Budget = b
				checkAgainstOracle(t, p)
			}
		}
	}
}

// Same problem, same answer: repeated solves return one Choice, and so
// does a problem rebuilt by shuffling each class and sorting it back into
// the order the fronts arrive in (ascending cost, then weight).
func TestSolveDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	byCost := func(items []Item) {
		sort.SliceStable(items, func(i, j int) bool {
			return items[i].Cost < items[j].Cost || items[i].Cost == items[j].Cost && items[i].Weight < items[j].Weight
		})
	}
	for inst := 0; inst < 20; inst++ {
		p := randomMCKP(rng, 1, 1)
		for _, items := range p.Classes {
			byCost(items)
		}
		weights := achievableWeights(p)
		p.Budget = weights[len(weights)/2]
		first, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 50; rep++ {
			q := &Problem{Budget: p.Budget}
			for _, items := range p.Classes {
				cp := append([]Item(nil), items...)
				rng.Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
				byCost(cp)
				q.Classes = append(q.Classes, cp)
			}
			for _, prob := range []*Problem{p, q} {
				again, err := Solve(prob)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(again, first) {
					t.Fatalf("instance %d repeat %d: %+v, first solve %+v", inst, rep, again, first)
				}
			}
		}
	}
}

// A WD-sized instance (hundreds of variables) must solve quickly and
// respect its constraints: the paper reports 562 variables in 5.46 ms.
func TestWDScaleInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := &Problem{Budget: 800 << 20}
	vars := 0
	for k := 0; k < 48; k++ { // ~ResNet-50's unique kernel count
		base := 1e6 * (1 + rng.Float64()*10)
		var items []Item
		for o, opts := 0, 8+rng.Intn(5); o < opts; o++ {
			// Pareto-like: more workspace, less time.
			items = append(items, Item{
				Cost:   int64(base / (1 + 0.2*float64(o))),
				Weight: int64(float64(o) * (1 + rng.Float64()) * 10 * (1 << 20)),
			})
		}
		p.Classes = append(p.Classes, items)
		vars += len(items)
	}
	r, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Feasible || len(r.Choice) != len(p.Classes) {
		t.Fatalf("result %+v", r)
	}
	var cost, weight int64
	for c, i := range r.Choice {
		cost += p.Classes[c][i].Cost
		weight += p.Classes[c][i].Weight
	}
	if weight > p.Budget || weight != r.Weight || cost != r.Cost {
		t.Fatalf("choice totals (%d, %d), result (%d, %d), budget %d", cost, weight, r.Cost, r.Weight, p.Budget)
	}
	if r.Nodes < 1 || r.SimplexIters < 1 {
		t.Fatalf("counters not populated: %d nodes, %d steps", r.Nodes, r.SimplexIters)
	}
	t.Logf("WD-scale: %d vars, %d nodes, %d hull steps", vars, r.Nodes, r.SimplexIters)
}

// Branching narrows a class down to a single item, hull vertex or not:
// here the optimum needs the LP-dominated middle item of class 0, which
// no relaxation ever proposes.
func TestFullyFixedNodePath(t *testing.T) {
	p := mckp([][]int64{{100, 52, 0}, {10, 0}}, [][]int64{{0, 5, 10}, {0, 4}}, 9)
	r := checkAgainstOracle(t, p)
	if r.Cost != 52 || !reflect.DeepEqual(r.Choice, []int{1, 1}) {
		t.Fatalf("cost %d choice %v, want 52 [1 1]", r.Cost, r.Choice)
	}
	if r.Nodes < 2 {
		t.Fatalf("solved in %d nodes; the root relaxation cannot be integral here", r.Nodes)
	}
}
