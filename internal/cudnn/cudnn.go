// Package cudnn provides a cuDNN-v7-shaped convolution API over the
// algorithm zoo in internal/conv and the device models in internal/device.
// It is the substrate µ-cuDNN wraps, reproducing the interface contract
// the paper depends on:
//
//   - per-operation algorithm enumeration (Find*Algorithm, returning
//     time/workspace per algorithm, sorted fastest first);
//   - workspace-size queries (Get*WorkspaceSize);
//   - workspace-limited algorithm selection (Get*Algorithm) with the
//     hard cutoff that produces the paper's Fig. 1 "-1 byte" cliff;
//   - execution entry points (Convolution{Forward,BackwardData,
//     BackwardFilter}) with alpha/beta output blending, where beta=1
//     accumulation on BackwardFilter is what makes micro-batching exact.
//
// Arithmetic is always executed for real on the CPU kernels; *time* is
// either predicted by the device model (deterministic, used for the
// paper's figures) or measured on the wall clock (used by the training
// examples), selected by the Backend.
package cudnn

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"ucudnn/internal/conv"
	"ucudnn/internal/device"
	"ucudnn/internal/faults"
	"ucudnn/internal/tensor"
	"ucudnn/internal/trace"
)

// Backend selects how kernel execution time is attributed.
type Backend int

const (
	// ModelBackend runs the arithmetic and charges the simulated clock
	// with the device model's predicted time. Deterministic.
	ModelBackend Backend = iota
	// RealBackend runs the arithmetic and charges the wall-clock time of
	// the CPU execution.
	RealBackend
	// ModelOnlyBackend skips the arithmetic entirely and charges only the
	// model time; used by benchmark sweeps where buffers are not needed.
	ModelOnlyBackend
)

func (b Backend) String() string {
	switch b {
	case ModelBackend:
		return "model"
	case RealBackend:
		return "real"
	case ModelOnlyBackend:
		return "model-only"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// Handle is the cuDNN context object: device, timing backend, simulated
// clock and memory accounting.
type Handle struct {
	dev     device.Spec
	backend Backend
	mem     *device.MemTracker

	mu      sync.Mutex
	elapsed time.Duration
	kernels int64
	tracer  *trace.Recorder
	// algoFilter, when non-nil, restricts the algorithm universe AlgoPerfs
	// (and so Find*/Get*/PickAlgo) reports. See SetAlgoFilter.
	algoFilter func(conv.Op, conv.Algo) bool
}

// NewHandle creates a handle for the given device and timing backend.
func NewHandle(dev device.Spec, backend Backend) *Handle {
	return &Handle{dev: dev, backend: backend, mem: dev.NewMemTracker()}
}

// Device returns the handle's device spec.
func (h *Handle) Device() device.Spec { return h.dev }

// Backend returns the timing backend.
func (h *Handle) Backend() Backend { return h.backend }

// Mem returns the handle's device-memory tracker.
func (h *Handle) Mem() *device.MemTracker { return h.mem }

// Elapsed returns the accumulated kernel time on this handle.
func (h *Handle) Elapsed() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.elapsed
}

// KernelCalls returns the number of kernels executed on this handle.
func (h *Handle) KernelCalls() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.kernels
}

// SetTrace attaches a timeline recorder; every subsequent kernel charge
// appends a span (see internal/trace), and a µ-cuDNN handle wrapping
// this one records its degradation spans there too. Pass nil to detach.
func (h *Handle) SetTrace(r *trace.Recorder) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.tracer = r
}

// Trace returns the attached timeline recorder (nil when none is).
func (h *Handle) Trace() *trace.Recorder {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tracer
}

// SetAlgoFilter restricts the algorithm universe the handle's selection
// surface (AlgoPerfs, PickAlgo, Find*/Get*) reports: algorithms for which
// f returns false are treated as unsupported. The differential test
// harness uses this to pin all execution modes to one algorithm family so
// results stay bitwise comparable; pass nil to remove the restriction.
// Execution entry points (Convolve) are not filtered — they run whatever
// algorithm the caller selected.
func (h *Handle) SetAlgoFilter(f func(conv.Op, conv.Algo) bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.algoFilter = f
}

// AlgoFilter returns the installed algorithm filter (nil when unset).
func (h *Handle) AlgoFilter() func(conv.Op, conv.Algo) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.algoFilter
}

// Charge adds d to the simulated clock (used for non-convolution layers
// modeled outside this package).
func (h *Handle) Charge(d time.Duration) {
	h.ChargeNamed("kernel", "other", d)
}

// ChargeNamed adds d to the simulated clock and, when a tracer is
// attached, records a named leaf span on the device compute stream
// under the tracer's innermost open scope.
func (h *Handle) ChargeNamed(name, cat string, d time.Duration) {
	if start, tr := h.charge(d); tr != nil {
		record(tr, name, cat, start, d)
	}
}

// charge adds d to the simulated clock and returns the charge's start
// and the attached recorder (nil when tracing is off).
func (h *Handle) charge(d time.Duration) (time.Duration, *trace.Recorder) {
	h.mu.Lock()
	start := h.elapsed
	h.elapsed += d
	h.kernels++
	tr := h.tracer
	h.mu.Unlock()
	return start, tr
}

// record appends one device-stream leaf span to tr.
func record(tr *trace.Recorder, name, cat string, start, d time.Duration) {
	tr.AddLeaf(trace.Event{Name: name, Cat: cat, Start: start, Dur: d, Track: trace.TrackKernel})
}

// AlgoPerf reports the benchmark outcome of one algorithm, mirroring
// cudnnConvolutionFwdAlgoPerf_t.
type AlgoPerf struct {
	Algo   conv.Algo
	Time   time.Duration
	Memory int64
}

// TensorDesc mirrors cudnnTensorDescriptor_t for NCHW float32 tensors.
type TensorDesc struct {
	N, C, H, W int
}

// NewTensorDesc validates and builds a tensor descriptor.
func NewTensorDesc(n, c, h, w int) (TensorDesc, error) {
	d := TensorDesc{n, c, h, w}
	if !d.Shape().Valid() {
		return TensorDesc{}, fmt.Errorf("cudnn: invalid tensor descriptor %dx%dx%dx%d", n, c, h, w)
	}
	return d, nil
}

// Shape converts the descriptor to a tensor shape.
func (d TensorDesc) Shape() tensor.Shape { return tensor.Shape{N: d.N, C: d.C, H: d.H, W: d.W} }

// FilterDesc mirrors cudnnFilterDescriptor_t for KCRS float32 filters.
type FilterDesc struct {
	K, C, R, S int
}

// NewFilterDesc validates and builds a filter descriptor.
func NewFilterDesc(k, c, r, s int) (FilterDesc, error) {
	d := FilterDesc{k, c, r, s}
	if !d.Filter().Valid() {
		return FilterDesc{}, fmt.Errorf("cudnn: invalid filter descriptor %dx%dx%dx%d", k, c, r, s)
	}
	return d, nil
}

// Filter converts the descriptor to a filter shape.
func (d FilterDesc) Filter() tensor.Filter { return tensor.Filter{K: d.K, C: d.C, R: d.R, S: d.S} }

// ConvDesc mirrors cudnnConvolutionDescriptor_t.
type ConvDesc struct {
	Params tensor.ConvParams
}

// NewConvDesc builds a convolution descriptor with the given padding,
// stride and dilation.
func NewConvDesc(padH, padW, strideH, strideW, dilationH, dilationW int) (ConvDesc, error) {
	if strideH < 1 || strideW < 1 || dilationH < 1 || dilationW < 1 || padH < 0 || padW < 0 {
		return ConvDesc{}, fmt.Errorf("cudnn: invalid convolution descriptor")
	}
	return ConvDesc{Params: tensor.ConvParams{
		PadH: padH, PadW: padW,
		StrideH: strideH, StrideW: strideW,
		DilationH: dilationH, DilationW: dilationW,
	}}, nil
}

// Shape assembles the ConvShape of (x, w, cd).
func Shape(x TensorDesc, w FilterDesc, cd ConvDesc) tensor.ConvShape {
	return tensor.ConvShape{In: x.Shape(), Filt: w.Filter(), Params: cd.Params.Normalized()}
}

// GetOutputDim returns the output tensor descriptor of the convolution,
// mirroring cudnnGetConvolution2dForwardOutputDim.
func GetOutputDim(x TensorDesc, w FilterDesc, cd ConvDesc) (TensorDesc, error) {
	cs := Shape(x, w, cd)
	if !cs.Valid() {
		return TensorDesc{}, fmt.Errorf("cudnn: invalid convolution %v", cs)
	}
	o := cs.OutShape()
	return TensorDesc{o.N, o.C, o.H, o.W}, nil
}

// Pref mirrors cudnnConvolutionFwdPreference_t.
type Pref int

const (
	// PreferFastest picks the fastest algorithm regardless of workspace.
	PreferFastest Pref = iota
	// NoWorkspace picks the fastest algorithm that needs no workspace.
	NoWorkspace
	// SpecifyWorkspaceLimit picks the fastest algorithm fitting the limit.
	SpecifyWorkspaceLimit
)

// benchReps is how many times the real backend executes a kernel when
// benchmarking; the minimum is reported.
const benchReps = 1

// AlgoPerfs benchmarks every supported algorithm of op on cs, charging no
// time to the handle's clock, and returns the results sorted fastest
// first. This is the generic core of Find*Algorithm.
func (h *Handle) AlgoPerfs(op conv.Op, cs tensor.ConvShape) []AlgoPerf {
	filter := h.AlgoFilter()
	algos := conv.AlgosFor(op)
	out := make([]AlgoPerf, 0, len(algos))
	for _, algo := range algos {
		if filter != nil && !filter(op, algo) {
			continue
		}
		if !conv.Supported(op, algo, cs) {
			continue
		}
		// Injected Find* failure: drop this candidate, as cuDNN does when
		// one algorithm's benchmark run returns a bad status.
		if faults.Hit(faults.PointFind) {
			continue
		}
		mem, _ := conv.Workspace(op, algo, cs)
		var t time.Duration
		switch h.backend {
		case ModelBackend, ModelOnlyBackend:
			mt, ok := h.dev.ModelTime(op, algo, cs)
			if !ok {
				continue
			}
			t = mt
		case RealBackend:
			rt, err := h.timeReal(op, algo, cs, mem)
			if err != nil {
				continue
			}
			t = rt
		}
		out = append(out, AlgoPerf{Algo: algo, Time: t, Memory: mem})
	}
	// Stable, so equal (time, memory) entries keep enumeration order.
	slices.SortStableFunc(out, func(a, b AlgoPerf) int {
		return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Memory, b.Memory))
	})
	return out
}

// timeReal measures one algorithm on scratch buffers.
func (h *Handle) timeReal(op conv.Op, algo conv.Algo, cs tensor.ConvShape, wsBytes int64) (time.Duration, error) {
	x := tensor.NewShaped(cs.In)
	w := tensor.NewFilter(cs.Filt.K, cs.Filt.C, cs.Filt.R, cs.Filt.S)
	y := tensor.NewShaped(cs.OutShape())
	ws := make([]float32, (wsBytes+3)/4)
	best := time.Duration(0)
	for rep := 0; rep < benchReps; rep++ {
		start := time.Now()
		if err := conv.Run(op, algo, cs, x, w, y, 1, 0, ws); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if rep == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// PickAlgo selects an algorithm under the given preference and workspace
// limit. With SpecifyWorkspaceLimit it returns the fastest algorithm whose
// workspace fits; requesting one byte less than the best algorithm's
// requirement therefore falls back to a strictly slower algorithm — the
// behaviour the paper's Fig. 1 quantifies.
func (h *Handle) PickAlgo(op conv.Op, cs tensor.ConvShape, pref Pref, wsLimit int64) (AlgoPerf, error) {
	perfs := h.AlgoPerfs(op, cs)
	if len(perfs) == 0 {
		return AlgoPerf{}, fmt.Errorf("cudnn: no algorithm supports %v on %v", op, cs)
	}
	switch pref {
	case PreferFastest:
		return perfs[0], nil
	case NoWorkspace:
		for _, p := range perfs {
			if p.Memory == 0 {
				return p, nil
			}
		}
		return AlgoPerf{}, fmt.Errorf("cudnn: no zero-workspace algorithm for %v on %v", op, cs)
	case SpecifyWorkspaceLimit:
		for _, p := range perfs {
			if p.Memory <= wsLimit {
				return p, nil
			}
		}
		return AlgoPerf{}, fmt.Errorf("cudnn: no algorithm fits %d bytes for %v on %v", wsLimit, op, cs)
	}
	return AlgoPerf{}, fmt.Errorf("cudnn: unknown preference %d", pref)
}

// Convolve executes op with algo, charging the handle's clock according to
// the backend. It is the generic core of Convolution{Forward,BackwardData,
// BackwardFilter}. Like cuDNN's workSpace / workSpaceSizeInBytes pair,
// the workspace comes as a buffer and its size: the computing backends
// run on ws (wsBytes is len(ws)*4 there), while a model-only handle,
// which touches no buffer, checks the workspace floor against wsBytes
// alone, so its caller need not back the size with memory (ws may be
// nil).
func (h *Handle) Convolve(op conv.Op, algo conv.Algo, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32, ws []float32, wsBytes int64) error {
	// Injected execution failure at the cuDNN API boundary (the
	// CUDNN_STATUS_EXECUTION_FAILED analogue), before any buffer is
	// touched.
	if err := faults.Err(faults.PointConvolve); err != nil {
		return err
	}
	switch h.backend {
	case RealBackend:
		start := time.Now()
		if err := conv.Run(op, algo, cs, x, w, y, alpha, beta, ws); err != nil {
			return err
		}
		h.chargeConv(op, algo, cs, time.Since(start))
	case ModelBackend, ModelOnlyBackend:
		mt, ok := h.dev.ModelTime(op, algo, cs)
		if !ok {
			return fmt.Errorf("cudnn: %v unsupported for %v on %v", algo, op, cs)
		}
		if h.backend == ModelBackend {
			if err := conv.Run(op, algo, cs, x, w, y, alpha, beta, ws); err != nil {
				return err
			}
		} else if need, _ := conv.MinWorkspace(op, algo, cs); wsBytes < need {
			// Even without arithmetic, respect the workspace floor the
			// executing kernels would enforce.
			return fmt.Errorf("cudnn: workspace too small: have %d bytes, need %d", wsBytes, need)
		}
		h.chargeConv(op, algo, cs, mt)
	}
	return nil
}

// chargeConv charges one convolution kernel. Only an attached recorder
// reads the span label, so an untraced call does not format it.
func (h *Handle) chargeConv(op conv.Op, algo conv.Algo, cs tensor.ConvShape, d time.Duration) {
	if start, tr := h.charge(d); tr != nil {
		record(tr, fmt.Sprintf("%v %v@%d %dc %dx%d", op, algo, cs.In.N, cs.In.C, cs.In.H, cs.In.W), "conv", start, d)
	}
}
