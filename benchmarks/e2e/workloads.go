package main

import (
	"fmt"
	"math"
	"math/rand"

	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/dnn"
	"ucudnn/internal/obs"
	"ucudnn/internal/testkit"
	"ucudnn/internal/trace"
	"ucudnn/internal/zoo"
)

const mib = 1 << 20

// workers is the pinned kernel-engine width and GOMAXPROCS. Striped
// workspace sizes — and through them the plans — depend on the worker
// cap, so it is fixed instead of tracking the host.
const workers = 2

// mode is how a workload's convolutions reach the kernels.
type mode int

const (
	// undivided runs the plain cuDNN handle: internal/core is bypassed.
	undivided mode = iota
	// wr runs µ-cuDNN Workspace Reuse under a per-kernel limit.
	wr
	// wdOOC runs µ-cuDNN Workspace Division in out-of-core windows.
	wdOOC
	// planOnly times cold planning cycles; kernels never execute.
	planOnly
)

// workload is one benchmark input: a network, a batch and a way of
// running its convolutions. Everything but the seed is fixed here so
// counts repeat exactly from run to run.
type workload struct {
	Name string
	// Why records what the workload is for: which layer it stresses and
	// which it bypasses.
	Why     string
	net     string
	batch   int
	classes int
	mode    mode
	// wsLimit is the framework's per-kernel workspace limit.
	wsLimit int64
	// wdBudget is the WD workspace budget (the OOC peak is added to it).
	wdBudget int64
	// blobBudget is the out-of-core activation budget.
	blobBudget int64
}

// The AlexNet pair shares net, seed and budget and differs only in the
// handle, so iter_ms(alexnet_undiv)/iter_ms(alexnet_wr) is the paper's
// Fig. 10 ratio on real compute. CPU-scaled AlexNets (half width, 128 px)
// were rejected: the P100 model never divides them.
var workloads = []workload{
	{
		Name: "alexnet_undiv",
		Why:  "paper baseline: plain cuDNN at 8 MiB falls onto zero-workspace IMPLICIT_* kernels, so a conv kernel change shows here and a core change must show nothing",
		net:  "alexnet", batch: 4, classes: 1000, mode: undivided, wsLimit: 8 * mib,
	},
	{
		Name: "alexnet_wr",
		Why:  "paper headline: same net, seed and 8 MiB budget through core WR, which divides 3 kernels into GEMM@1 micro-batches; work shifts to blas SGEMM and core.execute",
		net:  "alexnet", batch: 4, classes: 1000, mode: wr, wsLimit: 8 * mib,
	},
	{
		Name: "inception_wd_ooc",
		Why:  "ILP-chosen plans over 18 small window-sized kernels plus Concat/Pool and the OOC window executor: per-call overhead in core, dnn and telemetry shows here",
		net:  "inception", batch: 16, classes: 10, mode: wdOOC, wsLimit: 8 * mib, wdBudget: 24 * mib, blobBudget: 16 * mib,
	},
	{
		Name: "densenet_plan",
		Why:  "planning, not executing: each iteration is a cold WD plan cycle (desirable sets, ILP, simplex) on DenseNet-40; kernels never run, so only optimizer changes show; the seed changes nothing here",
		net:  "densenet40", batch: 8, classes: 10, mode: planOnly, wsLimit: 8 * mib, wdBudget: 32 * mib,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// buildOpts vary how a workload is instantiated without changing what it
// computes.
type buildOpts struct {
	seed int64
	// smoke swaps in the model-only backend: no arithmetic, seconds not
	// minutes. Used by the tests and -smoke.
	smoke bool
	// wrap, when set, interposes on the convolution handle the network
	// calls (the traced pass records spans there).
	wrap func(dnn.ConvHandle) dnn.ConvHandle
	// reference builds the correctness oracle instead: the same network,
	// seed and input on a plain handle pinned to AlgoGemm.
	reference bool
	// spans, when set, receives a span per build phase.
	spans *spanLog
	// trace, when set, is attached as the program's own timeline recorder
	// before Setup runs (the telemetry-on plan cycles).
	trace *trace.Recorder
}

// instance is one built workload, ready to iterate.
type instance struct {
	w     workload
	net   *dnn.Net
	loss  *dnn.SoftmaxLoss
	ctx   *dnn.Context
	inner *cudnn.Handle
	uc    *core.Handle  // nil when core is bypassed
	reg   *obs.Registry // core's counters; nil with uc
}

func buildNet(ctx *dnn.Context, w workload) (*dnn.Net, *dnn.SoftmaxLoss, error) {
	switch w.net {
	case "alexnet":
		net, loss := zoo.AlexNet(ctx, w.batch, w.classes)
		return net, loss, nil
	case "densenet40":
		net, loss := zoo.DenseNet40(ctx, w.batch, 12, w.classes)
		return net, loss, nil
	case "inception":
		// The zoo module has no classifier; give it the usual head so a
		// loss and gradients flow through it.
		net := zoo.InceptionModule(ctx, w.batch)
		net.Add(dnn.NewGlobalAvgPool("gap"), "gap", "out")
		net.Add(dnn.NewFC("fc", w.classes), "fc", "gap")
		loss := dnn.NewSoftmaxLoss("loss")
		net.Add(loss, "loss", "fc")
		return net, loss, nil
	}
	return nil, nil, fmt.Errorf("unknown network %q", w.net)
}

// planOOC probes the network's shapes (no compute) and plans its
// activation working set against the blob budget.
func planOOC(w workload) (*dnn.OOCModel, dnn.OOCPlan, error) {
	probe := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	probe.Mem().Cap = 0
	ctx := dnn.NewContext(probe, probe, w.wsLimit)
	ctx.SkipCompute = true
	net, _, err := buildNet(ctx, w)
	if err != nil {
		return nil, dnn.OOCPlan{}, err
	}
	if err := net.Setup(); err != nil {
		return nil, dnn.OOCPlan{}, fmt.Errorf("probing %s: %w", w.net, err)
	}
	model, err := dnn.FootprintModel(net)
	if err != nil {
		return nil, dnn.OOCPlan{}, err
	}
	plan, err := dnn.PlanOOC(model, w.blobBudget)
	return model, plan, err
}

// build instantiates the workload: handles, network, Setup, kernel
// registration and the seeded input. Plans of the WR path are decided by
// the first iteration, as in a framework.
func build(w workload, o buildOpts) (*instance, error) {
	in := &instance{w: w}
	backend := cudnn.ModelBackend
	if o.smoke || w.mode == planOnly {
		backend = cudnn.ModelOnlyBackend
	}
	in.inner = cudnn.NewHandle(device.P100, backend)
	in.inner.Mem().Cap = 0 // the simulated device's capacity is not under test

	var convH dnn.ConvHandle = in.inner
	ctxLimit := w.wsLimit
	var oocModel *dnn.OOCModel
	var oocPlan dnn.OOCPlan
	var err error
	switch {
	case o.reference:
		in.inner.SetAlgoFilter(testkit.GemmOnly)
		ctxLimit = 1 << 30
	case w.mode == undivided:
	default:
		in.reg = obs.NewRegistry()
		opts := []core.Option{core.WithPolicy(core.PolicyPowerOfTwo), core.WithMetrics(in.reg)}
		switch w.mode {
		case wr:
			opts = append(opts, core.WithWorkspaceLimit(w.wsLimit))
		case wdOOC:
			end := o.spans.begin(spanPlanOOC)
			oocModel, oocPlan, err = planOOC(w)
			end()
			if err != nil {
				return nil, err
			}
			// One joint pool: the planned blob peak is reserved out of it.
			opts = append(opts, core.WithWD(w.wdBudget+oocPlan.PeakBytes), core.WithBlobReserve(oocPlan.PeakBytes))
		case planOnly:
			opts = append(opts, core.WithWD(w.wdBudget))
		}
		if in.uc, err = core.New(in.inner, opts...); err != nil {
			return nil, err
		}
		convH = in.uc
	}
	if o.wrap != nil {
		convH = o.wrap(convH)
	}

	in.ctx = dnn.NewContext(convH, in.inner, ctxLimit)
	in.ctx.RNG = rand.New(rand.NewSource(o.seed))
	in.ctx.SkipCompute = backend == cudnn.ModelOnlyBackend
	if oocModel != nil {
		in.ctx.OOC = dnn.NewOOCState(oocModel, oocPlan)
	}
	if in.net, in.loss, err = buildNet(in.ctx, w); err != nil {
		return nil, err
	}
	if o.trace != nil {
		in.setTrace(o.trace)
	}
	end := o.spans.begin(spanNetSetup)
	err = in.net.Setup()
	end()
	if err != nil {
		return nil, err
	}
	if in.uc != nil {
		end = o.spans.begin(spanFinalize)
		err = in.uc.FinalizeRegistration()
		end()
		if err != nil {
			return nil, err
		}
	}
	if !in.ctx.SkipCompute {
		fill := rand.New(rand.NewSource(o.seed + 1))
		data := in.net.InputBlob().Data.Data
		for i := range data {
			data[i] = fill.Float32()*2 - 1
		}
		labels := rand.New(rand.NewSource(o.seed + 2))
		in.loss.Labels = make([]int, w.batch)
		for i := range in.loss.Labels {
			in.loss.Labels[i] = labels.Intn(w.classes)
		}
	}
	return in, nil
}

// iterate runs one training iteration. spans may be nil; telemetry runs
// it through Net.RunIteration so the program's own iteration scope and
// bracket span are recorded as well.
func (in *instance) iterate(spans *spanLog, telemetry bool) error {
	end := spans.begin("zero_grads")
	in.net.ZeroGrads()
	end()
	if telemetry {
		end = spans.begin("run_iteration")
		err := in.net.RunIteration()
		end()
		if err != nil {
			return err
		}
	} else {
		end = spans.begin("forward")
		err := in.net.Forward()
		end()
		if err != nil {
			return err
		}
		end = spans.begin("backward")
		err = in.net.Backward()
		end()
		if err != nil {
			return err
		}
	}
	if !in.ctx.SkipCompute {
		if l := float64(in.loss.Loss); math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Errorf("non-finite loss %v", l)
		}
	}
	return nil
}

// checkPlans is the plan workload's correctness check: WD stayed inside
// its budget and every plan covers the batch.
func (in *instance) checkPlans() error {
	st := in.uc.WDStats()
	if st == nil {
		return fmt.Errorf("WD did not run")
	}
	if st.TotalWorkspace > in.w.wdBudget {
		return fmt.Errorf("WD assigned %d bytes over a budget of %d", st.TotalWorkspace, in.w.wdBudget)
	}
	for _, p := range in.uc.Plans() {
		if err := p.Config.Validate(p.Kernel.Shape.In.N); err != nil {
			return fmt.Errorf("plan %v: %w", p.Kernel, err)
		}
	}
	return nil
}

// outcome is what one iteration computed, reduced to what the reference
// check compares: the loss and each parameter gradient's L2 norm.
type outcome struct {
	loss  float64
	norms []float64
}

func (in *instance) outcome() outcome {
	o := outcome{loss: float64(in.loss.Loss)}
	for _, p := range in.net.Params() {
		var s float64
		for _, g := range p.Grad {
			s += float64(g) * float64(g)
		}
		o.norms = append(o.norms, math.Sqrt(s))
	}
	return o
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return d
}

// checkAgainst requires got to match the reference: loss within 1e-3 and
// every gradient norm within 1e-2, relative. The algorithms differ
// (Winograd, FFT, implicit GEMM against plain GEMM), so bits do not match
// but the mathematics must.
func checkAgainst(ref, got outcome) error {
	if d := relDiff(ref.loss, got.loss); !(d <= 1e-3) {
		return fmt.Errorf("loss %v differs from the GEMM reference %v by %.2e", got.loss, ref.loss, d)
	}
	if len(ref.norms) != len(got.norms) {
		return fmt.Errorf("%d gradients against %d in the reference", len(got.norms), len(ref.norms))
	}
	for i := range ref.norms {
		if d := relDiff(ref.norms[i], got.norms[i]); !(d <= 1e-2) {
			return fmt.Errorf("gradient %d: norm %v differs from the GEMM reference %v by %.2e", i, got.norms[i], ref.norms[i], d)
		}
	}
	return nil
}

// referenceOutcome runs the oracle's first iteration.
func referenceOutcome(w workload, seed int64) (outcome, error) {
	ref, err := build(w, buildOpts{seed: seed, reference: true})
	if err != nil {
		return outcome{}, fmt.Errorf("building the reference: %w", err)
	}
	if err := ref.iterate(nil, false); err != nil {
		return outcome{}, fmt.Errorf("running the reference: %w", err)
	}
	return ref.outcome(), nil
}
