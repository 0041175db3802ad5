package dnn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/faults"
	"ucudnn/internal/obs"
	"ucudnn/internal/tensor"
	"ucudnn/internal/trace"
)

// oocTestNet builds a small network covering every streaming shape the
// executor handles: plain and grouped convolution, in-place chains
// (ReLU), a concat whose inputs alias its output, a barrier (FC) and the
// loss. 8x8 inputs keep the CPU arithmetic trivial.
func oocTestNet(ctx *Context, batch int) (*Net, *SoftmaxLoss) {
	net := NewNet(ctx)
	net.Input("data", tensor.Shape{N: batch, C: 4, H: 8, W: 8})
	net.Add(NewConv("conv1", 8, 3, 1, 1, true).SkipInputGrad(), "conv1", "data")
	net.Add(NewReLU("relu1"), "relu1", "conv1")
	net.Add(NewConvGrouped("conv2a", 8, 3, 1, 1, 2, true), "conv2a", "relu1")
	net.Add(NewConv("conv2b", 8, 1, 1, 0, false), "conv2b", "relu1")
	net.Add(NewConcat("cat"), "cat", "conv2a", "conv2b")
	net.Add(NewReLU("relu2"), "relu2", "cat")
	net.Add(NewPool("pool", MaxPool, 2, 2, 0), "pool", "relu2")
	net.Add(NewFC("fc", 5), "fc", "pool")
	loss := NewSoftmaxLoss("loss")
	net.Add(loss, "loss", "fc")
	return net, loss
}

func oocTestCtx() *Context {
	inner := cudnn.NewHandle(device.P100, cudnn.ModelBackend)
	inner.SetAlgoFilter(func(op conv.Op, a conv.Algo) bool { return a == conv.AlgoGemm })
	ctx := NewContext(inner, inner, 1<<30)
	ctx.RNG = rand.New(rand.NewSource(11))
	return ctx
}

// The satellite-4 regression: the footprint model's activation total must
// equal exactly what Setup charges against the device tracker — aliased
// groups (in-place tops, concat members) counted once, never twice.
func TestFootprintMatchesSetupCharge(t *testing.T) {
	ctx := oocTestCtx()
	net, _ := oocTestNet(ctx, 4)
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	m, err := FootprintModel(net)
	if err != nil {
		t.Fatal(err)
	}
	// Replicate Setup's charge rule independently: the input blob plus
	// every top whose layer is not in-place, at 2x bytes (data+grad).
	charged := 2 * net.inputShape.Bytes()
	for _, li := range net.layers {
		if ip, ok := li.layer.(inPlacer); ok && ip.InPlace() {
			continue
		}
		charged += 2 * net.blobs[li.top].Shape.Bytes()
	}
	if got := m.ActivationBytes(); got != charged {
		t.Fatalf("modeled activation bytes %d != tracker-charged %d (in-place double-charge?)", got, charged)
	}
}

// Aliased blobs collapse into one slab: the concat's bottoms and top are
// one storage unit, in-place chains ride their bottom's slab.
func TestFootprintSlabAliasing(t *testing.T) {
	ctx := oocTestCtx()
	net, _ := oocTestNet(ctx, 2)
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	m, err := FootprintModel(net)
	if err != nil {
		t.Fatal(err)
	}
	// Blobs: data, conv1, relu1(=conv1), conv2a, conv2b, cat(=conv2a=conv2b),
	// relu2(=cat), pool, fc, loss — so 6 distinct slabs.
	if len(m.Slabs) != 6 {
		names := make([]string, len(m.Slabs))
		for i, s := range m.Slabs {
			names[i] = s.Name
		}
		t.Fatalf("slab count %d, want 6 (%v)", len(m.Slabs), names)
	}
	if len(m.Layers) != len(net.layers) {
		t.Fatalf("layer feet %d, want %d", len(m.Layers), len(net.layers))
	}
	for _, f := range m.Layers {
		switch f.Name {
		case "relu1", "relu2":
			if len(f.Slabs) != 1 {
				t.Errorf("in-place %s touches %d slabs, want 1", f.Name, len(f.Slabs))
			}
		case "cat":
			if len(f.Slabs) != 1 {
				t.Errorf("concat touches %d slabs, want 1 (inputs alias the output)", len(f.Slabs))
			}
		case "fc", "loss":
			if !f.Barrier {
				t.Errorf("%s must be a barrier", f.Name)
			}
		case "conv1", "conv2a", "conv2b", "pool":
			if f.Barrier {
				t.Errorf("%s must stream", f.Name)
			}
		}
	}
}

// randomModel builds a synthetic footprint model for the property suite.
func randomModel(rng *rand.Rand) *OOCModel {
	batch := 1 + rng.Intn(6)
	m := &OOCModel{Batch: batch}
	nSlabs := 1 + rng.Intn(10)
	for i := 0; i < nSlabs; i++ {
		per := int64(1 + rng.Intn(4096))
		m.Slabs = append(m.Slabs, OOCSlab{
			Name:      "s",
			PerSample: per,
			Full:      2 * per * int64(batch),
		})
	}
	nLayers := 1 + rng.Intn(8)
	for i := 0; i < nLayers; i++ {
		f := OOCLayerFoot{Name: "l", Barrier: rng.Intn(4) == 0, Out: rng.Intn(nSlabs)}
		seen := map[int]bool{f.Out: true}
		f.Slabs = []int{f.Out}
		for k := rng.Intn(3); k > 0; k-- {
			s := rng.Intn(nSlabs)
			if !seen[s] {
				seen[s] = true
				f.In = append(f.In, s)
				f.Slabs = append(f.Slabs, s)
			}
		}
		m.Layers = append(m.Layers, f)
	}
	return m
}

// oraclePeak recomputes a configuration's peak occupancy with a separate
// straight-line implementation, the reference for the planner's claim.
func oraclePeak(m *OOCModel, chunk int, resident map[int]bool) int64 {
	var peak int64
	for li := range m.Layers {
		var mem int64
		for s := range m.Slabs {
			if resident[s] {
				mem += m.Slabs[s].Full
				continue
			}
			touched := false
			for _, ts := range m.Layers[li].Slabs {
				if ts == s {
					touched = true
				}
			}
			if !touched {
				continue
			}
			if m.Layers[li].Barrier {
				mem += m.Slabs[s].Full
			} else {
				mem += 2 * m.Slabs[s].PerSample * int64(chunk)
			}
		}
		if mem > peak {
			peak = mem
		}
	}
	return peak
}

// The satellite-2 property suite: across random small models, the
// planner's peak claim matches brute-force recomputation, no plan
// exceeds its budget except at the documented recompute floor, the floor
// verdict matches exhaustive enumeration over every (chunk, resident
// subset) pair, and the greedy resident set is maximal.
func TestOOCPlanProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 300; iter++ {
		m := randomModel(rng)
		scale := oraclePeak(m, m.Batch, nil)
		budget := 1 + rng.Int63n(scale+scale/2+1)
		plan, err := PlanOOC(m, budget)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if plan.Windows != (m.Batch+plan.Chunk-1)/plan.Chunk {
			t.Fatalf("iter %d: windows %d for chunk %d batch %d", iter, plan.Windows, plan.Chunk, m.Batch)
		}
		resident := map[int]bool{}
		for _, s := range plan.Resident {
			resident[s] = true
		}
		if got := oraclePeak(m, plan.Chunk, resident); got != plan.PeakBytes {
			t.Fatalf("iter %d: claimed peak %d, oracle %d (chunk %d, resident %v)",
				iter, plan.PeakBytes, got, plan.Chunk, plan.Resident)
		}

		// Brute force: does ANY (chunk, subset) configuration fit the
		// budget? Enumerate all of them — no monotonicity assumptions.
		feasible := false
		nSlabs := len(m.Slabs)
		for c := 1; c <= m.Batch && !feasible; c++ {
			for mask := 0; mask < 1<<nSlabs; mask++ {
				rs := map[int]bool{}
				for s := 0; s < nSlabs; s++ {
					if mask&(1<<s) != 0 {
						rs[s] = true
					}
				}
				if oraclePeak(m, c, rs) <= budget {
					feasible = true
					break
				}
			}
		}
		if plan.Floor == feasible {
			t.Fatalf("iter %d: floor=%v but brute force says feasible=%v (budget %d)",
				iter, plan.Floor, feasible, budget)
		}
		if !plan.Floor {
			if plan.PeakBytes > plan.Budget-plan.WSShare {
				t.Fatalf("iter %d: plan exceeds budget: peak %d > %d-%d", iter, plan.PeakBytes, plan.Budget, plan.WSShare)
			}
			// Greedy maximality: pinning any one more slab must not fit.
			for s := 0; s < nSlabs; s++ {
				if resident[s] {
					continue
				}
				resident[s] = true
				if oraclePeak(m, plan.Chunk, resident) <= plan.Budget-plan.WSShare {
					t.Fatalf("iter %d: resident set not maximal: slab %d also fits", iter, s)
				}
				delete(resident, s)
			}
		} else {
			if plan.Chunk != 1 {
				t.Fatalf("iter %d: floor plan with chunk %d", iter, plan.Chunk)
			}
			if len(plan.Resident) != 0 {
				t.Fatalf("iter %d: floor plan pins residents %v", iter, plan.Resident)
			}
		}
	}
}

func TestPlanOOCRejects(t *testing.T) {
	m := &OOCModel{Batch: 2, Slabs: []OOCSlab{{PerSample: 4, Full: 16}},
		Layers: []OOCLayerFoot{{Slabs: []int{0}, Out: 0}}}
	if _, err := PlanOOC(m, 0); err == nil {
		t.Fatal("want error for non-positive budget")
	}
	if _, err := PlanOOC(&OOCModel{Batch: 2}, 100); err == nil {
		t.Fatal("want error for empty model")
	}
}

// The degradation ladder: resident drop, then repeated chunk halving,
// then the recompute-everything floor — and nothing past it.
func TestOOCLadder(t *testing.T) {
	m := &OOCModel{Batch: 8}
	m.Slabs = []OOCSlab{{PerSample: 64, Full: 1024}, {PerSample: 32, Full: 512}}
	m.Layers = []OOCLayerFoot{{Slabs: []int{0, 1}, In: []int{0}, Out: 1}}
	plan, err := PlanOOC(m, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chunk != 8 || len(plan.Resident) == 0 {
		t.Fatalf("ample budget plan: %+v", plan)
	}
	o := NewOOCState(m, plan)
	if o.Report().Degraded != 0 {
		t.Fatal("fresh state already degraded")
	}
	o.stepLadder("test")
	if len(o.resident) != 0 {
		t.Fatal("first rung must drop the resident set")
	}
	wantChunks := []int{4, 2, 1}
	for _, want := range wantChunks {
		o.stepLadder("test")
		if o.chunk != want {
			t.Fatalf("chunk %d, want %d", o.chunk, want)
		}
	}
	o.stepLadder("test")
	rep := o.Report()
	if !rep.Floor || rep.Chunk != 1 {
		t.Fatalf("ladder floor not reached: %+v", rep)
	}
	if rep.Degraded != 5 {
		t.Fatalf("degraded %d, want 5", rep.Degraded)
	}
	o.stepLadder("test")
	if got := o.Report(); !got.Floor || got.Chunk != 1 {
		t.Fatalf("floor must absorb further steps: %+v", got)
	}
}

// An armed plan fault on the run's schedule steps the executor one rung
// finer when the network is set up, before any layer is sized: the
// convolution kernels are registered for the stepped window only.
func TestOOCPlanFaultDegradesAtConstruction(t *testing.T) {
	probeNet, _ := oocTestNet(oocTestCtx(), 4)
	if err := probeNet.Setup(); err != nil {
		t.Fatal(err)
	}
	m, err := FootprintModel(probeNet)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := faults.Parse("ucudnn_fp_ooc_plan=nth:1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := oocTestCtx()
	ctx.Cudnn.SetFaults(fr)
	o := NewOOCState(m, OOCPlan{Batch: 4, Chunk: 4, Windows: 1})
	ctx.OOC = o
	if o.Report().Degraded != 0 || fr.ShotLog() != "" {
		t.Fatalf("the state stepped before set-up: %+v, shots %q", o.Report(), fr.ShotLog())
	}
	net, _ := oocTestNet(ctx, 4)
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	if rep := o.Report(); rep.Degraded != 1 || rep.Chunk != 2 || fr.ShotLog() != "ucudnn_fp_ooc_plan@1(skip)" {
		t.Fatalf("plan fault did not step the ladder once at set-up: %+v, shots %q", rep, fr.ShotLog())
	}
	if len(net.ConvLayers()) == 0 {
		t.Fatal("test net has no convolution layer")
	}
	for _, l := range net.ConvLayers() {
		if len(l.win) != 1 || l.win[0].n != 2 {
			t.Fatalf("%s sized for windows %+v, want the stepped chunk of 2 only", l.Name(), l.win)
		}
	}
	// The step happened before the run's registry was attached: it, and
	// the gauges, move into the registry with the series.
	reg := obs.NewRegistry()
	o.SetMetrics(reg)
	o.SetMetrics(reg) // attaching the same registry again counts nothing twice
	if n := reg.Counter(MetricOOCDegraded, obs.L("stage", "plan")).Value(); n != 1 {
		t.Fatalf("plan-stage degradations in the run's registry = %d, want 1", n)
	}
	if g := reg.Gauge(MetricOOCMicroBatches).Value(); g != float64(o.Report().Windows) {
		t.Fatalf("micro-batch gauge = %v, want %d", g, o.Report().Windows)
	}
	if g := reg.Gauge(MetricOOCPeakBytes).Value(); g <= 0 {
		t.Fatalf("peak gauge = %v", g)
	}
}

// oocRunBits runs the small net once and returns the loss bit pattern
// plus every parameter gradient, for bitwise comparison across modes.
func oocRunBits(t *testing.T, budget int64) (uint32, [][]float32, *OOCState) {
	t.Helper()
	ctx := oocTestCtx()
	var state *OOCState
	if budget > 0 {
		// Plan against a probe instance, execute a fresh one: the bind
		// path the harness exercises.
		probeCtx := oocTestCtx()
		probeNet, _ := oocTestNet(probeCtx, 4)
		if err := probeNet.Setup(); err != nil {
			t.Fatal(err)
		}
		m, err := FootprintModel(probeNet)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanOOC(m, budget)
		if err != nil {
			t.Fatal(err)
		}
		state = NewOOCState(m, plan)
		ctx.OOC = state
	}
	net, loss := oocTestNet(ctx, 4)
	if err := net.Setup(); err != nil {
		t.Fatal(err)
	}
	in := net.InputBlob().Data
	fill := rand.New(rand.NewSource(7))
	for i := range in.Data {
		in.Data[i] = fill.Float32()*2 - 1
	}
	loss.Labels = []int{0, 1, 2, 3}
	if err := net.Forward(); err != nil {
		t.Fatal(err)
	}
	if err := net.Backward(); err != nil {
		t.Fatal(err)
	}
	var grads [][]float32
	for _, p := range net.Params() {
		grads = append(grads, append([]float32(nil), p.Grad...))
	}
	return math.Float32bits(loss.Loss), grads, state
}

// Out-of-core execution — plain and grouped convolutions, in-place
// chains, concat aliasing, barriers — must reproduce the undivided bits
// exactly at every budget, down to and including the recompute floor.
func TestOOCBitwiseEquality(t *testing.T) {
	refLoss, refGrads, _ := oocRunBits(t, 0)

	probeCtx := oocTestCtx()
	probeNet, _ := oocTestNet(probeCtx, 4)
	if err := probeNet.Setup(); err != nil {
		t.Fatal(err)
	}
	m, err := FootprintModel(probeNet)
	if err != nil {
		t.Fatal(err)
	}
	budgets := map[string]int64{
		"ample":   2 * m.Peak(4, nil),
		"mid":     (m.Peak(1, nil) + m.Peak(4, nil)) / 2,
		"starved": m.Peak(1, nil) - 1,
	}
	for label, budget := range budgets {
		loss, grads, state := oocRunBits(t, budget)
		if loss != refLoss {
			t.Errorf("%s (budget %d): loss bits %#x, want %#x", label, budget, loss, refLoss)
		}
		if len(grads) != len(refGrads) {
			t.Fatalf("%s: gradient count %d, want %d", label, len(grads), len(refGrads))
		}
		for i := range grads {
			for j := range grads[i] {
				if math.Float32bits(grads[i][j]) != math.Float32bits(refGrads[i][j]) {
					t.Errorf("%s (budget %d): grad[%d][%d] bits diverge", label, budget, i, j)
					break
				}
			}
		}
		rep := state.Report()
		if label == "starved" {
			if !rep.Floor {
				t.Errorf("starved budget %d did not reach the floor: %+v", budget, rep)
			}
			// Nothing resident on the floor: every pass streams.
			if rep.FetchBytes == 0 {
				t.Errorf("starved: no fetch traffic modeled")
			}
		}
	}
}

// What a budget costs on the model clock, pinned: every fetch, spill
// and recompute of a traced budgeted iteration is a device-stream leaf
// lasting MemBoundTime of its window's bytes, with no flow edge; the
// leaves' bytes add up to the report's counters; and the device-stream
// leaves tile the iteration's clock interval — so the transfer charge is
// serial and can be neither dropped nor overlapped silently.
func TestOOCTransferChargesAreSerial(t *testing.T) {
	probeNet, _ := oocTestNet(oocTestCtx(), 4)
	if err := probeNet.Setup(); err != nil {
		t.Fatal(err)
	}
	m, err := FootprintModel(probeNet)
	if err != nil {
		t.Fatal(err)
	}
	for label, budget := range map[string]int64{
		"mid":     (m.Peak(1, nil) + m.Peak(4, nil)) / 2,
		"starved": m.Peak(1, nil) - 1, // the floor: backward recomputes
	} {
		plan, err := PlanOOC(m, budget)
		if err != nil {
			t.Fatal(err)
		}
		ctx := oocTestCtx()
		o := NewOOCState(m, plan)
		ctx.OOC = o
		net, loss := oocTestNet(ctx, 4)
		loss.Labels = []int{0, 1, 2, 3}
		if err := net.RunIteration(); err != nil { // warm-up
			t.Fatal(err)
		}

		before, start := o.Report(), ctx.Cudnn.Elapsed()
		rec := trace.New()
		ctx.Cudnn.SetTrace(rec)
		if err := net.RunIteration(); err != nil {
			t.Fatal(err)
		}
		after, end := o.Report(), ctx.Cudnn.Elapsed()

		// The expected transfers, window by window, from the footprint
		// model: forward moves data, backward data and gradient.
		type transfer struct {
			cat   string
			bytes int64
		}
		var want []transfer
		expect := func(cat string, bytes int64) {
			if bytes > 0 {
				want = append(want, transfer{cat, bytes})
			}
		}
		pass := func(i int, scale int64) {
			f := o.model.Layers[i]
			var fetchPer, spillPer int64
			for _, s := range f.In {
				if !o.resident[s] {
					fetchPer += o.model.Slabs[s].PerSample * scale
				}
			}
			if !o.resident[f.Out] {
				spillPer = o.model.Slabs[f.Out].PerSample * scale
			}
			part := []int{m.Batch}
			if !f.Barrier {
				part = part[:0]
				for lo := 0; lo < m.Batch; lo += o.chunk {
					part = append(part, min(o.chunk, m.Batch-lo))
				}
			}
			for _, c := range part {
				expect("ooc_fetch", fetchPer*int64(c))
				expect("ooc_spill", spillPer*int64(c))
				if o.floor && scale == 2 && !f.Barrier {
					expect("ooc_recompute", fetchPer*int64(c))
				}
			}
		}
		for i := range o.model.Layers {
			pass(i, 1)
		}
		for i := len(o.model.Layers) - 1; i >= 0; i-- {
			pass(i, 2)
		}

		at := start
		bytes := map[string]int64{}
		for _, e := range rec.Events() {
			if e.Track != trace.TrackKernel {
				t.Fatalf("%s: leaf %q (%s) on track %d", label, e.Name, e.Cat, e.Track)
			}
			if e.Start != at {
				t.Fatalf("%s: leaf %q (%s) starts at %v, previous leaf ended at %v", label, e.Name, e.Cat, e.Start, at)
			}
			at += e.Dur
			if !strings.HasPrefix(e.Cat, "ooc_") {
				continue
			}
			if len(want) == 0 {
				t.Fatalf("%s: unexpected transfer %q (%s)", label, e.Name, e.Cat)
			}
			w := want[0]
			want = want[1:]
			if e.Cat != w.cat || e.Dur != ctx.Device().MemBoundTime(w.bytes) {
				t.Fatalf("%s: transfer %q is %s for %v, want %s of %d bytes (%v)",
					label, e.Name, e.Cat, e.Dur, w.cat, w.bytes, ctx.Device().MemBoundTime(w.bytes))
			}
			bytes[w.cat] += w.bytes
		}
		if at != end {
			t.Fatalf("%s: device-stream leaves end at %v, clock at %v", label, at, end)
		}
		if len(want) != 0 {
			t.Fatalf("%s: %d expected transfers never charged, first %+v", label, len(want), want[0])
		}
		if got := after.FetchBytes - before.FetchBytes; got != bytes["ooc_fetch"] || got == 0 {
			t.Fatalf("%s: fetch counter moved %d, leaves carry %d", label, got, bytes["ooc_fetch"])
		}
		if got := after.SpillBytes - before.SpillBytes; got != bytes["ooc_spill"] || got == 0 {
			t.Fatalf("%s: spill counter moved %d, leaves carry %d", label, got, bytes["ooc_spill"])
		}
		if got := after.RecomputeBytes - before.RecomputeBytes; got != bytes["ooc_recompute"] || (got == 0) == o.floor {
			t.Fatalf("%s: recompute counter moved %d, leaves carry %d (floor=%v)", label, got, bytes["ooc_recompute"], o.floor)
		}
	}
}
