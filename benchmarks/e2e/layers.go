package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"ucudnn/internal/causal"
	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/dnn"
	"ucudnn/internal/prof"
	"ucudnn/internal/trace"
)

// telemetry switches the program's own instrumentation on: the phase
// profiler, causal scopes and a timeline recorder. The returned closure
// switches it off again.
func telemetry() (*trace.Recorder, func()) {
	prof.Enable()
	causal.Reset()
	causal.Enable()
	return trace.New(), func() {
		causal.Disable()
		prof.Disable()
	}
}

// setTrace points the instance's handle and context at rec (nil detaches).
func (in *instance) setTrace(rec *trace.Recorder) {
	in.inner.SetTrace(rec)
	in.ctx.Trace = rec
}

// coldStats are the program-reported numbers of one cold cycle, keyed
// by the metric they feed. All are zero when core is bypassed.
func (in *instance) coldStats() map[string]float64 {
	s := map[string]float64{
		"core.optimize_ms": 0, "ilp.solve_ms": 0, "ilp.vars": 0, "ilp.nodes": 0, "lp.simplex_iters": 0,
		"core.wr_dp_states": 0, "core.desirable_dp_states": 0, "core.bench_kernels": 0,
	}
	if in.uc == nil {
		return s
	}
	s["core.optimize_ms"] = ms(in.uc.OptimizationTime())
	if st := in.uc.WDStats(); st != nil {
		s["ilp.solve_ms"] = ms(st.SolveTime)
		s["ilp.vars"], s["ilp.nodes"], s["lp.simplex_iters"] = float64(st.ILPVars), float64(st.ILPNodes), float64(st.SimplexIters)
	}
	s["core.wr_dp_states"] = float64(in.reg.Counter(core.MetricWRDPStates).Value())
	s["core.desirable_dp_states"] = float64(in.reg.Counter(core.MetricDesirableStates).Value())
	s["core.bench_kernels"] = float64(in.reg.Counter(core.MetricBenchKernels).Value())
	return s
}

// iterSample holds the counters of one traced iteration run with the
// program's telemetry off; its times live in the span log under id.
type iterSample struct {
	id                  int
	launches            float64
	modelMs             float64
	fetch, spill, recmp float64 // MiB
}

// tracedRun is the traced pass in progress: one instance under the
// benchmark's wrapper, and everything recorded about it.
type tracedRun struct {
	w   workload
	o   buildOpts
	log *spanLog
	tc  *tracedConv
	in  *instance

	warm outcome // what the first iteration computed
	// coldIters are the iteration ids whose spans hold a whole set-up
	// (iteration 0 on a training workload, every cycle on the plan
	// workload); colds are the program's own numbers for each.
	coldIters []int
	colds     []map[string]float64
	off       []iterSample // iterations with telemetry off
	onIDs     []int        // iterations with telemetry on

	attempted, failed int
}

// one runs a single iteration (a plan cycle on the plan workload) as
// its own span; rec switches the program's timeline recording on.
func (t *tracedRun) one(name string, rec *trace.Recorder) error {
	t.log.iter++
	defer t.log.begin(name)()
	if t.w.mode == planOnly {
		o := t.o
		o.trace = rec
		next, err := coldCycle(t.w, o, t.log)
		if err == nil {
			t.in = next
		}
		return err
	}
	t.tc.calls = t.tc.calls[:0]
	t.in.setTrace(rec)
	defer t.in.setTrace(nil)
	return t.in.iterate(t.log, rec != nil)
}

// pair runs one iteration with the program's telemetry off and one with
// it on. Interleaving keeps the host's drift out of their ratio.
func (t *tracedRun) pair() {
	in := t.in
	var ooc0 dnn.OOCReport
	launches0, clock0 := in.inner.KernelCalls(), in.inner.Elapsed()
	if in.ctx.OOC != nil {
		ooc0 = in.ctx.OOC.Report()
	}
	err := t.one(spanIteration, nil)
	t.count("telemetry off", err)
	in = t.in
	s := iterSample{id: t.log.iter}
	if t.w.mode == planOnly {
		// A fresh handle per cycle: its totals are the cycle's.
		launches0, clock0 = 0, 0
		t.coldIters, t.colds = append(t.coldIters, s.id), append(t.colds, in.coldStats())
	}
	s.launches = float64(in.inner.KernelCalls() - launches0)
	s.modelMs = ms(in.inner.Elapsed() - clock0)
	if in.ctx.OOC != nil {
		r := in.ctx.OOC.Report()
		s.fetch = float64(r.FetchBytes-ooc0.FetchBytes) / mib
		s.spill = float64(r.SpillBytes-ooc0.SpillBytes) / mib
		s.recmp = float64(r.RecomputeBytes-ooc0.RecomputeBytes) / mib
	}
	t.off = append(t.off, s)

	rec, stop := telemetry()
	err = t.one(spanIterTelemetry, rec)
	stop()
	t.count("telemetry on", err)
	t.onIDs = append(t.onIDs, t.log.iter)
}

func (t *tracedRun) count(what string, err error) {
	t.attempted++
	if err != nil {
		fmt.Fprintf(os.Stderr, "traced iteration %d (%s) failed: %v\n", t.attempted, what, err)
		t.failed++
	}
}

// runTraced is the per-layer pass: the benchmark's wrapper sits on
// ctx.Conv and records spans, iterations alternate between the program's
// telemetry off and on, and a last iteration re-times every kernel in
// place. Its numbers explain the timed pass; they do not replace it.
func runTraced(w workload, c runConfig) (*runResult, *runDetail, error) {
	t := &tracedRun{w: w, log: newSpanLog()}
	t.o = buildOpts{seed: c.seed, smoke: c.smoke, wrap: func(h dnn.ConvHandle) dnn.ConvHandle {
		t.tc = &tracedConv{h: h, spans: t.log}
		return t.tc
	}}
	end := t.log.begin(spanSetup)
	in, err := coldCycle(w, t.o, t.log)
	end()
	if err != nil {
		return nil, nil, err
	}
	t.in = in
	compute := !in.ctx.SkipCompute
	if compute {
		t.warm = in.outcome()
	}
	if w.mode != planOnly {
		t.coldIters, t.colds = []int{0}, []map[string]float64{in.coldStats()}
	}

	pairs, warmups := minPairs, tracedWarmups
	if c.smoke {
		pairs, warmups = 1, 0
	}
	for i := 0; i < warmups; i++ {
		if err := t.one(spanWarmup, nil); err != nil {
			return nil, nil, fmt.Errorf("%s: warm-up iteration: %w", w.Name, err)
		}
	}
	for t0 := time.Now(); len(t.off) < pairs || (!c.smoke && time.Since(t0).Seconds() < c.seconds); {
		t.pair()
	}

	res := newResult(perLayer)
	detail := &runDetail{PlanHash: planHash(t.in.uc, t.tc.calls)}
	detail.IterMs = t.spanMetrics(res)
	if err := t.planMetrics(res); err != nil {
		return nil, nil, err
	}
	if compute {
		if err := t.replayMetrics(res); err != nil {
			return nil, nil, err
		}
		ref, err := referenceOutcome(w, c.seed)
		if err == nil {
			err = checkAgainst(ref, t.warm)
		}
		if err != nil {
			detail.Note = err.Error()
			t.failed = t.attempted
		}
	}
	res.Attempted, res.Failed, res.Correct = t.attempted, t.failed, t.failed == 0
	if c.spansPath != "" {
		if err := t.log.writeChrome(c.spansPath); err != nil {
			return nil, nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, detail, nil
}

// spanMetrics derives every timing that comes from the span tree and
// returns the telemetry-off iteration times.
func (t *tracedRun) spanMetrics(res *runResult) []float64 {
	// Per iteration: summed duration and summed self time, by span name.
	type agg struct{ dur, self map[string]time.Duration }
	self := selfTimes(t.log.spans)
	byIter := map[int]*agg{}
	for _, s := range t.log.spans {
		a := byIter[s.Iter]
		if a == nil {
			a = &agg{dur: map[string]time.Duration{}, self: map[string]time.Duration{}}
			byIter[s.Iter] = a
		}
		a.dur[s.Name] += s.dur()
		a.self[s.Name] += self[s.ID]
	}
	// med is the median over the given iterations of f, in ms.
	med := func(ids []int, f func(*agg) time.Duration) float64 {
		v := make([]float64, len(ids))
		for i, id := range ids {
			v[i] = ms(f(byIter[id]))
		}
		return median(v)
	}
	dur := func(name string) func(*agg) time.Duration {
		return func(a *agg) time.Duration { return a.dur[name] }
	}
	// dnnSelf is the iteration's time outside the ConvHandle boundary:
	// the self time of every span that is not one of core's.
	dnnSelf := func(a *agg) time.Duration {
		var d time.Duration
		for name, s := range a.self {
			if !strings.HasPrefix(name, "core.") {
				d += s
			}
		}
		return d
	}

	offIDs := make([]int, len(t.off))
	iterMs := make([]float64, len(t.off))
	for i, s := range t.off {
		offIDs[i] = s.id
		iterMs[i] = ms(byIter[s.id].dur[spanIteration])
	}
	res.set("bench.traced_iter_ms", median(iterMs))
	if m := median(iterMs); m > 0 {
		res.set("telemetry.iter_ratio", med(t.onIDs, dur(spanIterTelemetry))/m)
	}
	res.set("dnn.fwd_ms", med(offIDs, dur(spanForward)))
	res.set("dnn.bwd_ms", med(offIDs, dur(spanBackward)))
	res.set("dnn.self_ms", med(offIDs, dnnSelf))
	res.set("core.conv_ms", med(offIDs, dur(spanConv)))
	// Set-up phases. Net.Setup's self time leaves out the Get* queries it
	// issues: those are core's (or cudnn's, on a plain handle).
	res.set("dnn.setup_ms", med(t.coldIters, func(a *agg) time.Duration { return a.self[spanNetSetup] }))
	res.set("dnn.ooc_plan_ms", med(t.coldIters, dur(spanPlanOOC)))
	res.set("core.query_ms", med(t.coldIters, dur(spanQuery)))
	res.set("core.finalize_ms", med(t.coldIters, dur(spanFinalize)))
	return iterMs
}

// planMetrics reports what the program says about its own planning and
// the exact per-iteration counts.
func (t *tracedRun) planMetrics(res *runResult) error {
	for name := range t.colds[0] {
		v := make([]float64, len(t.colds))
		for i, c := range t.colds {
			v[i] = c[name]
		}
		res.set(name, median(v))
	}

	in, last := t.in, t.off[len(t.off)-1]
	res.set("cudnn.kernel_launches", last.launches)
	res.set("cudnn.model_iter_ms", last.modelMs)
	if in.ctx.OOC != nil {
		res.set("dnn.ooc_windows", float64(in.ctx.OOC.Report().Windows))
		res.set("dnn.ooc_fetch_mib", last.fetch)
		res.set("dnn.ooc_spill_mib", last.spill)
		res.set("dnn.ooc_recompute_mib", last.recmp)
	}
	res.set("core.conv_calls", float64(len(t.tc.calls)))
	if in.uc == nil {
		return nil
	}
	plans := planIndex(in.uc)
	var divided, micro int
	var wsBytes int64
	for _, p := range plans {
		if !p.Config.Undivided() {
			divided++
		}
		wsBytes += p.Workspace
	}
	if st := in.uc.WDStats(); st != nil {
		wsBytes = st.TotalWorkspace // identical kernels share one segment
	}
	for _, call := range t.tc.calls {
		ks, err := expand(call, plans)
		if err != nil {
			return err
		}
		micro += len(ks)
	}
	res.set("core.kernels_planned", float64(len(plans)))
	res.set("core.kernels_divided", float64(divided))
	res.set("core.ws_planned_mib", float64(wsBytes)/mib)
	res.set("core.micro_batches", float64(micro))
	return nil
}

// replayMetrics runs one more iteration with every kernel re-timed in
// place and reports the kernels' own cost, by algorithm.
func (t *tracedRun) replayMetrics(res *runResult) error {
	in := t.in
	plans := planIndex(in.uc)
	rp := newReplayer(plans)
	t.tc.replay = rp
	err := t.one(spanIterReplay, nil)
	t.tc.replay = nil
	if err == nil {
		err = rp.err
	}
	if err != nil {
		return fmt.Errorf("%s: replay iteration: %w", t.w.Name, err)
	}
	var replayMs, flops float64
	perAlgo := make([]float64, conv.NumAlgos)
	perAlgoCalls := make([]float64, conv.NumAlgos)
	single := map[string]float64{} // ms per execution of each distinct kernel
	for _, r := range rp.results() {
		replayMs += r.ms
		flops += float64(r.k.cs.FwdFlops()) * float64(r.count)
		perAlgo[r.k.algo] += r.ms
		perAlgoCalls[r.k.algo] += float64(r.count)
		single[r.k.String()] = r.ms / float64(r.count)
	}
	res.set("conv.replay_ms", replayMs)
	if replayMs > 0 {
		res.set("conv.gflops", flops/(replayMs*1e6))
	}
	for a := conv.Algo(0); a < conv.NumAlgos; a++ {
		res.set("conv.ms."+a.String(), perAlgo[a])
		res.set("conv.calls."+a.String(), perAlgoCalls[a])
	}

	// What the handle adds around its kernels (plan lookup, arena,
	// snapshots, slicing, hooks), taken inside the replay iteration: there
	// each real call and its re-runs are adjacent in time, so the host's
	// drift between iterations cancels.
	var inPlace time.Duration
	for _, s := range t.log.spans {
		if s.Iter == t.log.iter && s.Name == spanConv {
			inPlace += s.dur()
		}
	}
	res.set("core.self_ms", ms(inPlace)-replayMs)

	// Does the device model order the workload's kernels as the CPU does?
	// One point per distinct kernel the network calls.
	var model, measured []float64
	seen := map[string]bool{}
	for _, call := range t.tc.calls {
		key := core.Kernel{Op: call.op, Shape: call.cs}.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		ks, err := expand(call, plans)
		if err != nil {
			return err
		}
		var mt, rt float64
		for _, k := range ks {
			d, _ := in.inner.Device().ModelTime(k.op, k.algo, k.cs)
			mt += ms(d)
			rt += single[k.String()]
		}
		model, measured = append(model, mt), append(measured, rt)
	}
	res.set("device.rank_agreement", spearman(model, measured))
	return nil
}
