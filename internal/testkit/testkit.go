// Package testkit is the end-to-end differential harness behind the
// fault-injection work: it runs whole zoo networks forward and backward
// under three execution modes — (a) undivided cuDNN, (b) µ-cuDNN
// micro-batching, and (c) µ-cuDNN micro-batching with an armed fault
// schedule — and fingerprints outputs and gradients so tests can assert
// the three are bitwise identical (the paper's §III-A transparency
// contract, extended to cover graceful degradation).
//
// Bitwise comparability rests on pinning the algorithm universe to
// AlgoGemm (GemmOnly): the engine's batch-striped GEMM kernels produce
// identical bits at every strip and worker count, and their ascending-n
// dW reduction makes micro-batched beta=1 accumulation equal bit for bit
// to the undivided gradient. Under that pin, any division — including the
// ones the degradation ladder improvises mid-run — must reproduce the
// undivided bits exactly, so a single uint64 fingerprint per buffer
// suffices to prove it.
package testkit

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"ucudnn/internal/conv"
	"ucudnn/internal/core"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/dnn"
	"ucudnn/internal/faults"
	"ucudnn/internal/tensor"
	"ucudnn/internal/zoo"
)

// Classes is the classifier width every harness network ends in; small so
// the FC head stays cheap next to the convolutions under test.
const Classes = 10

// Mode selects how the network's convolutions execute.
type Mode int

const (
	// Undivided runs the plain cuDNN handle: whole-batch kernels, the
	// reference bits.
	Undivided Mode = iota
	// Micro runs the µ-cuDNN handle: optimizer-chosen micro-batched
	// configurations.
	Micro
	// MicroFaults runs the µ-cuDNN handle with a fault schedule armed, so
	// execution recovers through the degradation ladder.
	MicroFaults
)

func (m Mode) String() string {
	switch m {
	case Undivided:
		return "undivided"
	case Micro:
		return "micro"
	case MicroFaults:
		return "micro+faults"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// GemmOnly is the algorithm pin of the differential harness: AlgoGemm and
// nothing else. Nonzero workspace (so workspace faults have something to
// deny), divisible without changing bits, and admissible down to the
// serial MinWorkspace floor.
func GemmOnly(op conv.Op, a conv.Algo) bool { return a == conv.AlgoGemm }

// DefaultSchedule is the fault schedule the differential suite arms when
// a RunSpec leaves Faults empty: one hard Convolve failure early, periodic
// Find*-path drops that starve benchmarking, and one shrunk arena grant.
// Deliberately non-saturating — the ladder must recover, not exhaust.
const DefaultSchedule = "ucudnn_fp_convolve=nth:3;ucudnn_fp_find=every:5;ucudnn_fp_arena_grow=nth:2,shrink=4"

// ScheduleForSeed derives a deterministic pseudo-random fault schedule
// from seed. The schedule string is self-describing: a failure printed
// with it reproduces exactly via faults.Parse, with no other state.
func ScheduleForSeed(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	parts := []string{
		fmt.Sprintf("%s=prob:0.02:%d", faults.PointConvolve, rng.Int63n(1<<31)),
		fmt.Sprintf("%s=every:%d", faults.PointFind, 3+rng.Intn(8)),
		fmt.Sprintf("%s=nth:%d,shrink=%d", faults.PointArenaGrow, 1+rng.Intn(4), 2+rng.Intn(7)),
	}
	return strings.Join(parts, ";")
}

// RunSpec describes one harness execution.
type RunSpec struct {
	// Network is a name from Networks().
	Network string
	// Batch is the mini-batch size (default 4).
	Batch int
	// WD switches the µ-cuDNN handle to Workspace Division; WSLimit then
	// acts as the network-wide budget instead of the per-kernel limit.
	WD bool
	// WSLimit is the workspace bound in bytes. Zero auto-probes from the
	// network's undivided GEMM workspaces (see ProbeWorkspace): half the
	// largest per-kernel workspace for WR (the biggest kernels must
	// divide while micro-batch 1 always fits), midway between the
	// batch-1 floor and the undivided total for WD.
	WSLimit int64
	// Policy is the micro-batch size policy (zero value means
	// PolicyPowerOfTwo, the paper's default).
	Policy core.Policy
	// Faults is the schedule armed in MicroFaults mode (default
	// DefaultSchedule). Ignored in other modes.
	Faults string
	// Seed drives parameter init, input fill, and labels (default 1).
	Seed int64
	// BlobBudget, when positive, turns on out-of-core streaming: the
	// network's activation/gradient working set is planned against this
	// many bytes (dnn.PlanOOC) and convolutions execute in streamed
	// micro-batch windows. Under WD the planned peak joins the workspace
	// budget as one pool (core.WDJointPool); under WR the per-kernel
	// workspace limit applies unchanged. Ignored in Undivided mode.
	BlobBudget int64
	// DeviceCap, when positive, overrides the simulated device's memory
	// capacity: Setup fails if a run's footprint exceeds it. The
	// out-of-core e2e uses this to prove a network whose undivided
	// footprint exceeds device memory still trains under a blob budget.
	DeviceCap int64
}

// ParamSum is one parameter gradient's fingerprint.
type ParamSum struct {
	Name string
	Sum  uint64
}

// Result is the fingerprinted outcome of one run.
type Result struct {
	// Output fingerprints the network's output blob (the mean loss).
	Output uint64
	// Loss is the float32 bit pattern of the scalar loss.
	Loss uint64
	// Grads fingerprints every parameter gradient after Backward, in
	// network parameter order.
	Grads []ParamSum
	// MaxMicroBatches is the largest micro-batch count across the µ-cuDNN
	// handle's adopted plans (zero in Undivided mode): evidence that
	// micro-batching actually engaged.
	MaxMicroBatches int
	// Schedule and Shots record the armed fault schedule and what fired
	// (MicroFaults mode only): everything needed to replay the run.
	Schedule string
	Shots    string
	// OOC summarizes the out-of-core executor when BlobBudget was set:
	// final window size, degradation count, and modeled transfer traffic.
	OOC *dnn.OOCReport
}

// Fingerprint hashes the exact bit patterns of data (FNV-1a 64): two
// buffers fingerprint equal iff they are bitwise identical (including NaN
// payloads and signed zeros).
func Fingerprint(data []float32) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range data {
		b := math.Float32bits(v)
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(b >> s))
			h *= prime
		}
	}
	return h
}

// Networks lists the zoo models the harness can run.
func Networks() []string { return zoo.Names() }

// build constructs the harness's reduced-size variant of the named
// network (Classes-wide classifier, DenseNet growth 12, a loss head on
// inception) over ctx.
func build(ctx *dnn.Context, name string, batch int) (*dnn.Net, *dnn.SoftmaxLoss, error) {
	switch name {
	case "alexnet":
		net, loss := zoo.AlexNet(ctx, batch, Classes)
		return net, loss, nil
	case "caffe-alexnet":
		net, loss := zoo.CaffeAlexNet(ctx, batch, Classes)
		return net, loss, nil
	case "resnet18":
		net, loss := zoo.ResNet18(ctx, batch, Classes)
		return net, loss, nil
	case "resnet50":
		net, loss := zoo.ResNet50(ctx, batch, Classes)
		return net, loss, nil
	case "densenet40":
		net, loss := zoo.DenseNet40(ctx, batch, 12, Classes)
		return net, loss, nil
	case "inception":
		// The zoo module has no classifier; append the standard head so
		// the harness can drive a loss through it.
		net := zoo.InceptionModule(ctx, batch)
		net.Add(dnn.NewGlobalAvgPool("gap"), "gap", "out")
		net.Add(dnn.NewFC("fc", Classes), "fc", "gap")
		loss := dnn.NewSoftmaxLoss("loss")
		net.Add(loss, "loss", "fc")
		return net, loss, nil
	}
	return nil, nil, fmt.Errorf("testkit: unknown network %q (have %s)", name, strings.Join(Networks(), ", "))
}

// Probe summarizes a network's undivided GEMM workspace demand.
type Probe struct {
	// Max is the largest single per-kernel workspace.
	Max int64
	// Total sums every kernel's workspace at the probed batch size.
	Total int64
	// FloorTotal sums every kernel's workspace at batch size 1 — an upper
	// bound on the cheapest assignment any division can reach (some
	// workspaces, like BackwardFilter's per-worker partial-dW buffers,
	// do not shrink with the batch at all).
	FloorTotal int64
}

// sumWorkspaces sets the network up against a plain GEMM-pinned
// model-only cuDNN handle (a timing-only context: no host storage, no
// arithmetic) and sums its per-kernel workspaces.
func sumWorkspaces(network string, batch int) (max, total int64, err error) {
	inner := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	inner.SetAlgoFilter(GemmOnly)
	ctx := dnn.NewContext(inner, inner, 1<<30)
	net, _, err := build(ctx, network, batch)
	if err != nil {
		return 0, 0, err
	}
	if err := net.Setup(); err != nil {
		return 0, 0, fmt.Errorf("testkit: probing %s: %w", network, err)
	}
	for _, l := range net.ConvLayers() {
		f, bd, bf := l.WorkspaceBytes()
		for _, ws := range []int64{f, bd, bf} {
			if ws > max {
				max = ws
			}
			total += ws
		}
	}
	return max, total, nil
}

// ProbeFootprint extracts the named network's activation footprint model
// by setting it up against a plain GEMM-pinned model-only handle (a
// timing-only context: no host storage, no arithmetic): the input for
// out-of-core planning and budget derivation.
func ProbeFootprint(network string, batch int) (*dnn.OOCModel, error) {
	inner := cudnn.NewHandle(device.P100, cudnn.ModelOnlyBackend)
	inner.SetAlgoFilter(GemmOnly)
	ctx := dnn.NewContext(inner, inner, 1<<30)
	net, _, err := build(ctx, network, batch)
	if err != nil {
		return nil, err
	}
	if err := net.Setup(); err != nil {
		return nil, fmt.Errorf("testkit: probing %s footprint: %w", network, err)
	}
	return dnn.FootprintModel(net)
}

// ProbeWorkspace measures the named network's workspace demand: the
// anchors for auto-derived workspace limits.
func ProbeWorkspace(network string, batch int) (Probe, error) {
	max, total, err := sumWorkspaces(network, batch)
	if err != nil {
		return Probe{}, err
	}
	if max <= 0 {
		return Probe{}, fmt.Errorf("testkit: %s requested no convolution workspace", network)
	}
	_, floor, err := sumWorkspaces(network, 1)
	if err != nil {
		return Probe{}, err
	}
	return Probe{Max: max, Total: total, FloorTotal: floor}, nil
}

// Run executes the network once, forward and backward, under the given
// mode and returns its fingerprints. Runs are fully deterministic: same
// spec, same mode, same bits.
func Run(mode Mode, spec RunSpec) (*Result, error) {
	if spec.Batch <= 0 {
		spec.Batch = 4
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	policy := spec.Policy
	if policy == core.PolicyUndivided {
		policy = core.PolicyPowerOfTwo
	}
	limit := spec.WSLimit
	if mode != Undivided && limit == 0 {
		p, err := ProbeWorkspace(spec.Network, spec.Batch)
		if err != nil {
			return nil, err
		}
		if spec.WD {
			// Midway between the batch-1 floor and the undivided total:
			// guaranteed feasible (every kernel can fall to micro-batch
			// 1), below what running every kernel whole would need (so
			// the ILP must divide or share).
			limit = (p.FloorTotal + p.Total) / 2
		} else {
			// Half the largest kernel's workspace: the biggest kernels
			// must divide, while a single-sample micro-batch always fits.
			limit = p.Max / 2
		}
	}

	var oocModel *dnn.OOCModel
	var oocPlan dnn.OOCPlan
	if spec.BlobBudget > 0 && mode != Undivided {
		m, err := ProbeFootprint(spec.Network, spec.Batch)
		if err != nil {
			return nil, err
		}
		oocPlan, err = dnn.PlanOOC(m, spec.BlobBudget)
		if err != nil {
			return nil, err
		}
		oocModel = m
	}

	inner := cudnn.NewHandle(device.P100, cudnn.ModelBackend)
	inner.SetAlgoFilter(GemmOnly)
	if spec.DeviceCap > 0 {
		inner.Mem().Cap = spec.DeviceCap
	}
	var ch dnn.ConvHandle = inner
	var h *core.Handle
	ctxLimit := int64(1) << 30
	if mode != Undivided {
		opts := []core.Option{core.WithAlgoFilter(GemmOnly), core.WithPolicy(policy)}
		if spec.WD {
			// oocPlan is zero without a blob budget: plain WD over limit.
			opts = append(opts, core.WDJointPool(limit, oocPlan.PeakBytes))
		} else {
			opts = append(opts, core.WithWorkspaceLimit(limit))
			ctxLimit = limit
		}
		var err error
		h, err = core.New(inner, opts...)
		if err != nil {
			return nil, err
		}
		ch = h
	}

	res := &Result{}
	var freg *faults.Registry
	if mode == MicroFaults {
		sched := spec.Faults
		if sched == "" {
			sched = DefaultSchedule
		}
		var err error
		freg, err = faults.Parse(sched)
		if err != nil {
			return nil, err
		}
		res.Schedule = sched
		faults.Install(freg)
		defer faults.Install(nil)
	}
	fail := func(step string, err error) (*Result, error) {
		if freg != nil {
			return nil, fmt.Errorf("testkit: %s %s under schedule %q (fired: %s): %w",
				spec.Network, step, res.Schedule, freg.ShotLog(), err)
		}
		return nil, fmt.Errorf("testkit: %s %s: %w", spec.Network, step, err)
	}

	ctx := dnn.NewContext(ch, inner, ctxLimit)
	ctx.RNG = rand.New(rand.NewSource(seed))
	if oocModel != nil {
		// After faults.Install, so an armed ucudnn_fp_ooc_plan point can
		// force the state one ladder rung finer at construction.
		ctx.OOC = dnn.NewOOCState(oocModel, oocPlan)
	}
	net, loss, err := build(ctx, spec.Network, spec.Batch)
	if err != nil {
		return nil, err
	}
	if err := net.Setup(); err != nil {
		return fail("setup", err)
	}
	if h != nil {
		if err := h.FinalizeRegistration(); err != nil {
			return fail("registration", err)
		}
	}

	in := net.InputBlob().Data
	tensor.FillUniform(in.Data, rand.New(rand.NewSource(seed+1)), 1)
	loss.Labels = make([]int, spec.Batch)
	for i := range loss.Labels {
		loss.Labels[i] = i % Classes
	}

	if err := net.Forward(); err != nil {
		return fail("forward", err)
	}
	if err := net.Backward(); err != nil {
		return fail("backward", err)
	}

	res.Output = Fingerprint(net.OutputBlob().Data.Data)
	res.Loss = uint64(math.Float32bits(loss.Loss))
	for _, p := range net.Params() {
		res.Grads = append(res.Grads, ParamSum{Name: p.Name, Sum: Fingerprint(p.Grad)})
	}
	if h != nil {
		for _, p := range h.Plans() {
			if len(p.Config) > res.MaxMicroBatches {
				res.MaxMicroBatches = len(p.Config)
			}
		}
	}
	if freg != nil {
		res.Shots = freg.ShotLog()
	}
	if ctx.OOC != nil {
		rep := ctx.OOC.Report()
		res.OOC = &rep
	}
	return res, nil
}
