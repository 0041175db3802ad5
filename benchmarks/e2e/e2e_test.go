package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"ucudnn/internal/conv"
	"ucudnn/internal/dnn"
)

func TestMain(m *testing.M) {
	conv.SetMaxWorkers(workers) // as main pins it: plans depend on the cap
	os.Exit(m.Run())
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4) from Python 3.
	cases := []struct {
		v          []float64
		q1, m, q3  float64
		wantSpread float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1},
		{[]float64{3, 1, 2}, 1, 2, 3, 1},
		{[]float64{2, 1}, 0.75, 1.5, 2.25, 1},
		{[]float64{10, 10.5, 9.5, 10.2, 9.9}, 9.7, 10, 10.35, 0.065},
		{[]float64{7}, 7, 7, 7, 0},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, m, q3, c.q1, c.m, c.q3)
		}
		if s := spread(c.v); !near(s, c.wantSpread) {
			t.Errorf("spread(%v) = %v, want %v", c.v, s, c.wantSpread)
		}
	}
	if q1, m, q3 := quartiles(nil); q1 != 0 || m != 0 || q3 != 0 {
		t.Errorf("quartiles(nil) = %v %v %v", q1, m, q3)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSpearman(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if r := spearman(a, []float64{10, 20, 30, 40, 50}); !near(r, 1) {
		t.Errorf("monotone: %v", r)
	}
	if r := spearman(a, []float64{5, 4, 3, 2, 1}); !near(r, -1) {
		t.Errorf("reversed: %v", r)
	}
	// Ties share their mean rank: ranks 1, 2.5, 2.5, 4 against 1..4.
	if r := spearman([]float64{1, 2, 2, 3}, []float64{1, 2, 3, 4}); !near(r, 4.5/math.Sqrt(4.5*5)) {
		t.Errorf("ties: %v", r)
	}
	if r := spearman(a, []float64{1, 1, 1, 1, 1}); r != 0 {
		t.Errorf("no variation: %v", r)
	}
}

func TestSelfTimeOnSyntheticTree(t *testing.T) {
	ms := time.Millisecond
	// iteration [0,100] { forward [5,45] { conv [10,20], conv [25,40] }, backward [50,95] { conv [60,90] } }
	spans := []span{
		{ID: 1, Name: spanIteration, Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: spanForward, Start: 5 * ms, End: 45 * ms},
		{ID: 3, Parent: 2, Name: spanConv, Start: 10 * ms, End: 20 * ms},
		{ID: 4, Parent: 2, Name: spanConv, Start: 25 * ms, End: 40 * ms},
		{ID: 5, Parent: 1, Name: spanBackward, Start: 50 * ms, End: 95 * ms},
		{ID: 6, Parent: 5, Name: spanConv, Start: 60 * ms, End: 90 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 15 * ms, 2: 15 * ms, 3: 10 * ms, 4: 15 * ms, 5: 15 * ms, 6: 30 * ms}
	var sum time.Duration
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
		sum += self[id]
	}
	if sum != 100*ms {
		t.Errorf("self times sum to %v, want the root's 100ms", sum)
	}
}

func TestSpanLogNesting(t *testing.T) {
	l := newSpanLog()
	endIter := l.begin(spanIteration)
	endFwd := l.begin(spanForward)
	l.begin(spanConv)()
	endFwd()
	l.begin(spanBackward)()
	endIter()
	parents := []int{0, 1, 2, 1}
	for i, s := range l.spans {
		if s.Parent != parents[i] {
			t.Errorf("span %d (%s) has parent %d, want %d", s.ID, s.Name, s.Parent, parents[i])
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
	var nilLog *spanLog
	nilLog.begin("x")() // the timed pass passes nil
}

// smallInception is the testkit-sized net the wrapper tests run for real.
var smallInception = workload{Name: "test_inception_wr", net: "inception", batch: 4, classes: 10, mode: wr, wsLimit: 4 * mib}

func TestWrapperForwardsUnchanged(t *testing.T) {
	plain, err := coldCycle(smallInception, buildOpts{seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	log := newSpanLog()
	var tc *tracedConv
	wrapped, err := coldCycle(smallInception, buildOpts{seed: 7, wrap: func(h dnn.ConvHandle) dnn.ConvHandle {
		tc = &tracedConv{h: h, spans: log}
		return tc
	}}, log)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := math.Float32bits(plain.loss.Loss), math.Float32bits(wrapped.loss.Loss); a != b {
		t.Errorf("loss bits differ under the wrapper: %08x vs %08x", a, b)
	}
	pp, wp := plain.net.Params(), wrapped.net.Params()
	for i := range pp {
		for j := range pp[i].Grad {
			if math.Float32bits(pp[i].Grad[j]) != math.Float32bits(wp[i].Grad[j]) {
				t.Fatalf("gradient %s[%d] differs under the wrapper", pp[i].Name, j)
			}
		}
	}
	out, wout := plain.net.Blob("out").Data.Data, wrapped.net.Blob("out").Data.Data
	for i := range out {
		if math.Float32bits(out[i]) != math.Float32bits(wout[i]) {
			t.Fatalf("activation out[%d] differs under the wrapper", i)
		}
	}
	// 6 convolutions x (forward, backward data, backward filter), and six
	// queries per convolution at set-up.
	if len(tc.calls) != 18 {
		t.Errorf("wrapper logged %d Convolution* calls, want 18", len(tc.calls))
	}
	var queries, convs int
	for _, s := range log.spans {
		switch s.Name {
		case spanQuery:
			queries++
		case spanConv:
			convs++
		}
	}
	if queries != 36 || convs != 18 {
		t.Errorf("spans: %d queries and %d conv calls, want 36 and 18", queries, convs)
	}

	// The replay re-times every kernel of every plan the handle decided.
	plans := planIndex(wrapped.uc)
	rp := newReplayer(plans)
	tc.replay = rp
	tc.calls = tc.calls[:0]
	before := wrapped.outcome()
	if err := wrapped.iterate(nil, false); err != nil {
		t.Fatal(err)
	}
	if rp.err != nil {
		t.Fatal(rp.err)
	}
	if after := wrapped.outcome(); after.loss != before.loss {
		t.Errorf("replaying changed the loss: %v -> %v", before.loss, after.loss)
	}
	seen := map[string]int{}
	for _, r := range rp.results() {
		seen[r.k.String()] = r.count
		if r.ms <= 0 {
			t.Errorf("replay of %v took %v ms", r.k, r.ms)
		}
	}
	if len(plans) != 18 {
		t.Errorf("handle holds %d plans, want 18", len(plans))
	}
	divided := 0
	for _, p := range wrapped.uc.Plans() {
		if !p.Config.Undivided() {
			divided++
		}
		for _, mc := range p.Config {
			k := microKernel{p.Kernel.Op, mc.Algo, p.Kernel.Shape.WithN(mc.BatchSize)}
			if seen[k.String()] == 0 {
				t.Errorf("plan %v: kernel %v was not replayed", p.Kernel, k)
			}
		}
	}
	if divided == 0 {
		t.Error("no plan divided at 4 MiB: the test no longer exercises micro-batches")
	}
}

// benchmarkJSON mirrors BENCHMARK.json's contract keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the contract (why is %d characters)", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, j, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range endToEnd {
		seen[d.Name] = true
	}
	for i, d := range perLayer {
		j := b.PerLayer[i]
		if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, j, d)
		}
		if seen[d.Name] {
			t.Errorf("metric name %s is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v is outside the contract", d)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmarks" {
		t.Errorf("paths = %v, want [benchmarks]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
}

// TestSmokeRoundTrip runs both passes of all four workloads on the
// model-only backend, checks that only declared metrics come out, and
// takes the result through the file schema and -compare.
func TestSmokeRoundTrip(t *testing.T) {
	declared := map[string]string{}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		declared[d.Name] = d.Unit
	}
	file := &resultFile{Schema: resultSchema, Label: "smoke", Host: readHost(), Seed: 1, Runs: 1, Smoke: true}
	c := runConfig{seed: 1, smoke: true}
	for _, w := range workloads {
		timed, td, err := runTimed(w, c)
		if err != nil {
			t.Fatal(err)
		}
		traced, rd, err := runTraced(w, c)
		if err != nil {
			t.Fatal(err)
		}
		if !timed.Correct || !traced.Correct || timed.Attempted < 1 || traced.Attempted < 1 {
			t.Errorf("%s: timed %+v, traced correct=%v", w.Name, timed, traced.Correct)
		}
		if len(timed.Metrics) != len(endToEnd) || len(traced.Metrics) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d", w.Name, len(timed.Metrics), len(traced.Metrics), len(endToEnd), len(perLayer))
		}
		for _, r := range []*runResult{timed, traced} {
			for name, v := range r.Metrics {
				if declared[name] != v.Unit {
					t.Errorf("%s: metric %s (%s) is not declared with that unit", w.Name, name, v.Unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", w.Name, name, v.Value)
				}
			}
		}
		for _, d := range endToEnd {
			if timed.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, timed.Metrics[d.Name].Value)
			}
		}
		if rd.PlanHash == "" {
			t.Errorf("%s: no plan hash", w.Name)
		}
		file.Workloads = append(file.Workloads, workloadResult{
			Name: w.Name, Why: w.Why, PlanHash: rd.PlanHash,
			Timed:  []runRecord{{Seed: 1, runResult: *timed, Detail: *td}},
			Traced: runRecord{Seed: 1, Traced: true, runResult: *traced, Detail: *rd},
		})
	}

	// What the workloads were designed to separate must hold even here.
	get := func(w, m string) float64 { return file.workload(w).Traced.Metrics[m].Value }
	if v := get("alexnet_undiv", "core.kernels_divided"); v != 0 {
		t.Errorf("alexnet_undiv divides %v kernels", v)
	}
	if v := get("alexnet_wr", "core.kernels_divided"); v < 3 {
		t.Errorf("alexnet_wr divides %v kernels, want at least 3", v)
	}
	if v := get("inception_wd_ooc", "dnn.ooc_windows"); v != 4 {
		t.Errorf("inception_wd_ooc runs %v windows, want 4", v)
	}
	if v := get("densenet_plan", "ilp.vars"); v < 100 {
		t.Errorf("densenet_plan solves an ILP of %v variables", v)
	}

	path := filepath.Join(t.TempDir(), "smoke.json")
	if err := file.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Workloads) != len(workloads) || back.Workloads[1].PlanHash != file.Workloads[1].PlanHash {
		t.Errorf("result file did not round-trip: %+v", back.Workloads)
	}
	var out bytes.Buffer
	regressed, err := compareFiles(&out, path, path)
	if err != nil {
		t.Fatal(err)
	}
	if regressed || strings.Contains(out.String(), verdictRegressed) || strings.Contains(out.String(), verdictUnresolved) || strings.Contains(out.String(), "plan changed") {
		t.Errorf("a file compared with itself is not all ok:\n%s", out.String())
	}
	printReport(&out, back) // must not panic on a smoke file
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "lower", verdictOK},
		{"within bound", steady, scale(steady, 1.08), "lower", verdictOK},
		{"beyond bound", steady, scale(steady, 1.2), "lower", verdictRegressed},
		{"improved", steady, scale(steady, 0.5), "lower", verdictOK},
		{"higher is better, fell", steady, scale(steady, 0.8), "higher", verdictRegressed},
		{"higher is better, rose", steady, scale(steady, 1.3), "higher", verdictOK},
		{"noisy and overlapping", []float64{80, 120, 100, 90, 110}, []float64{95, 130, 115, 100, 125}, "lower", verdictUnresolved},
		{"noisy but every run worse", []float64{80, 120, 100, 90, 110}, []float64{180, 220, 200, 190, 210}, "lower", verdictRegressed},
		{"noisy but every run better", []float64{80, 120, 100, 90, 110}, []float64{40, 60, 50, 45, 55}, "lower", verdictOK},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] * f
	}
	return out
}

func TestCompareReportsPlanChangesApart(t *testing.T) {
	rec := func(iter float64) runRecord {
		r := newResult(endToEnd)
		for _, d := range endToEnd {
			r.set(d.Name, 1)
		}
		r.set("iter_ms", iter)
		r.Attempted, r.Correct = 3, true
		return runRecord{Seed: 1, runResult: *r}
	}
	mk := func(hash string, micro, iter float64) *resultFile {
		tr := newResult(perLayer)
		tr.set("core.micro_batches", micro)
		return &resultFile{Schema: resultSchema, Workloads: []workloadResult{{
			Name: "alexnet_wr", PlanHash: hash,
			Timed:  []runRecord{rec(iter), rec(iter * 1.01), rec(iter * 0.99)},
			Traced: runRecord{Traced: true, runResult: *tr},
		}}}
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := mk("aaaa", 23, 100).write(a); err != nil {
		t.Fatal(err)
	}
	if err := mk("bbbb", 31, 150).write(b); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	regressed, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !regressed || !strings.Contains(s, verdictRegressed) {
		t.Errorf("a 50%% slower iter_ms is not reported as regressed:\n%s", s)
	}
	if !strings.Contains(s, "plan changed: plan hash aaaa -> bbbb") || !strings.Contains(s, "plan changed: core.micro_batches 23 -> 31") {
		t.Errorf("plan changes are not reported on their own lines:\n%s", s)
	}
}
