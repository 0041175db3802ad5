// Package dnn is a small Caffe-like deep-learning framework used to
// evaluate µ-cuDNN at network scale: a layer graph with named blobs,
// forward/backward execution, SGD training, and a per-layer timer
// equivalent to `caffe time`.
//
// Convolution layers reach the kernel library exclusively through the
// ConvHandle interface, which both *cudnn.Handle (plain cuDNN) and
// *core.Handle (µ-cuDNN) satisfy. Integrating µ-cuDNN is therefore the
// paper's three-line change: construct the wrapper handle and pass it in.
//
// Non-convolution layers compute on the CPU and charge the simulated
// clock with a bandwidth-bound cost model, so whole-network timing
// breakdowns (paper Figs. 10, 11, 13) have realistic proportions.
package dnn

import (
	"fmt"
	"math/rand"

	"ucudnn/internal/causal"
	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/device"
	"ucudnn/internal/faults"
	"ucudnn/internal/prof"
	"ucudnn/internal/tensor"
	"ucudnn/internal/trace"
)

// ConvHandle is the convolution call surface shared by cuDNN and µ-cuDNN.
type ConvHandle interface {
	GetConvolutionForwardAlgorithm(x cudnn.TensorDesc, w cudnn.FilterDesc, cd cudnn.ConvDesc, y cudnn.TensorDesc, pref cudnn.Pref, wsLimit int64) (conv.Algo, error)
	GetConvolutionBackwardDataAlgorithm(w cudnn.FilterDesc, dy cudnn.TensorDesc, cd cudnn.ConvDesc, dx cudnn.TensorDesc, pref cudnn.Pref, wsLimit int64) (conv.Algo, error)
	GetConvolutionBackwardFilterAlgorithm(x cudnn.TensorDesc, dy cudnn.TensorDesc, cd cudnn.ConvDesc, dw cudnn.FilterDesc, pref cudnn.Pref, wsLimit int64) (conv.Algo, error)
	GetConvolutionForwardWorkspaceSize(x cudnn.TensorDesc, w cudnn.FilterDesc, cd cudnn.ConvDesc, y cudnn.TensorDesc, algo conv.Algo) (int64, error)
	GetConvolutionBackwardDataWorkspaceSize(w cudnn.FilterDesc, dy cudnn.TensorDesc, cd cudnn.ConvDesc, dx cudnn.TensorDesc, algo conv.Algo) (int64, error)
	GetConvolutionBackwardFilterWorkspaceSize(x cudnn.TensorDesc, dy cudnn.TensorDesc, cd cudnn.ConvDesc, dw cudnn.FilterDesc, algo conv.Algo) (int64, error)
	ConvolutionForward(alpha float32, xd cudnn.TensorDesc, x *tensor.Tensor, wd cudnn.FilterDesc, w *tensor.FilterTensor, cd cudnn.ConvDesc, algo conv.Algo, ws []float32, beta float32, yd cudnn.TensorDesc, y *tensor.Tensor) error
	ConvolutionBackwardData(alpha float32, wd cudnn.FilterDesc, w *tensor.FilterTensor, dyd cudnn.TensorDesc, dy *tensor.Tensor, cd cudnn.ConvDesc, algo conv.Algo, ws []float32, beta float32, dxd cudnn.TensorDesc, dx *tensor.Tensor) error
	ConvolutionBackwardFilter(alpha float32, xd cudnn.TensorDesc, x *tensor.Tensor, dyd cudnn.TensorDesc, dy *tensor.Tensor, cd cudnn.ConvDesc, algo conv.Algo, ws []float32, beta float32, dwd cudnn.FilterDesc, dw *tensor.FilterTensor) error
}

// Context carries the execution environment through the network.
type Context struct {
	// Conv is the convolution library: plain cuDNN or µ-cuDNN.
	Conv ConvHandle
	// Cudnn is the underlying handle, used for the simulated clock and
	// device-memory accounting (and for everything non-convolutional,
	// mirroring how frameworks use one handle for all of cuDNN).
	Cudnn *cudnn.Handle
	// WorkspaceLimit is the per-layer limit the framework passes through
	// Get*Algorithm (Caffe's convention).
	WorkspaceLimit int64
	// Pref is the algorithm-selection preference handed to Get*Algorithm.
	// Caffe passes SpecifyWorkspaceLimit with WorkspaceLimit; TensorFlow
	// passes PreferFastest and no limit, in which case µ-cuDNN falls back
	// to its own (option- or environment-configured) limit — the paper's
	// §IV-B2 integration.
	Pref cudnn.Pref
	// Training toggles training-mode behaviour (dropout, batch-norm).
	Training bool
	// RNG drives parameter init and dropout, seeded for reproducibility.
	RNG *rand.Rand
	// SkipCompute runs the network for timing/planning only (model-only
	// backends), skipping CPU arithmetic in non-convolution layers.
	SkipCompute bool
	// Trace, when non-nil, receives one span per layer per direction on
	// track 1 of the device timeline (kernel-level spans land on track 0
	// via the cudnn handle's own recorder). Point both at the same
	// recorder to get the paper's Fig. 3 view: layer rows above the
	// micro-batched kernels that implement them.
	Trace *trace.Recorder
	// OOC, when non-nil, streams the mini-batch through the network in
	// micro-batch windows under a blob-memory budget (see ooc.go). Set it
	// before the network is built: Setup sizes convolution kernels to the
	// planned windows and accounts the planned peak working set instead
	// of whole-batch activations.
	OOC *OOCState

	label string

	// wsArena backs convolution workspaces. Each layer's requirement is
	// accounted against the device-memory tracker individually (as Caffe
	// allocates them), but since kernels execute sequentially the host
	// backing can be shared.
	wsArena []float32
}

// Workspace returns a scratch slice of at least the given byte size from
// the shared arena. Valid until the next call. An armed workspace fault
// shrinks (or denies) the grant, simulating framework-side memory
// pressure: convolution layers hand the short buffer on, and the library
// below degrades (µ-cuDNN) or reports the workspace as too small (plain
// cuDNN).
func (c *Context) Workspace(bytes int64) []float32 {
	bytes = faults.Grant(faults.PointDnnWorkspace, bytes)
	if bytes <= 0 {
		return nil
	}
	n := int((bytes + 3) / 4)
	if len(c.wsArena) < n {
		//ucudnn:allow wsfloor -- arena accessor, not a size reporter: grow-and-reuse is its documented contract
		c.wsArena = make([]float32, n)
	}
	return c.wsArena[:n]
}

// NewContext builds a Caffe-style context over the given handles (the
// per-layer workspace limit is forwarded through Get*Algorithm).
func NewContext(convHandle ConvHandle, inner *cudnn.Handle, wsLimit int64) *Context {
	return &Context{
		Conv:           convHandle,
		Cudnn:          inner,
		WorkspaceLimit: wsLimit,
		Pref:           cudnn.SpecifyWorkspaceLimit,
		Training:       true,
		RNG:            rand.New(rand.NewSource(1)),
	}
}

// NewContextTF builds a TensorFlow-style context: layers request
// PreferFastest with no limit, so a wrapped µ-cuDNN handle applies its
// own configured workspace limit instead.
func NewContextTF(convHandle ConvHandle, inner *cudnn.Handle) *Context {
	ctx := NewContext(convHandle, inner, 0)
	ctx.Pref = cudnn.PreferFastest
	return ctx
}

// Device returns the context's device spec.
func (c *Context) Device() device.Spec { return c.Cudnn.Device() }

// Label names the layer currently executing; Net maintains it so the
// clock charges (and trace spans) of non-convolution kernels carry the
// layer name.
func (c *Context) Label() string {
	if c.label == "" {
		return "kernel"
	}
	return c.label
}

// ChargeMem charges the simulated clock with a bandwidth-bound kernel
// moving the given bytes.
func (c *Context) ChargeMem(bytes int64) {
	c.Cudnn.ChargeNamed(c.Label(), "layer", c.Device().MemBoundTime(bytes))
}

// ChargeGemm charges the simulated clock with a dense SGEMM.
func (c *Context) ChargeGemm(m, n, k int64) {
	c.Cudnn.ChargeNamed(c.Label(), "gemm", c.Device().GemmTime(m, n, k))
}

// Param is one learnable parameter tensor (flat storage).
type Param struct {
	Name string
	Data []float32
	Grad []float32
}

// Layer is one network operation. Layers are single-output except where
// noted; multi-input layers (Add, Concat) consume several bottoms.
type Layer interface {
	Name() string
	// Setup validates bottom shapes, allocates parameters and internal
	// state, and returns the top shape.
	Setup(ctx *Context, bottoms []tensor.Shape) (tensor.Shape, error)
	// Forward computes top from bottoms.
	Forward(ctx *Context, bottoms []*tensor.Tensor, top *tensor.Tensor) error
	// Backward computes bottom gradients (into dBottoms, overwriting) and
	// accumulates parameter gradients, given the forward activations and
	// the top gradient.
	Backward(ctx *Context, bottoms []*tensor.Tensor, top, dTop *tensor.Tensor, dBottoms []*tensor.Tensor) error
	// Params returns the learnable parameters (may be empty).
	Params() []*Param
}

// Blob is a named activation tensor with its gradient. In timing-only
// mode (Context.SkipCompute) Data and Grad are nil and only Shape is set.
type Blob struct {
	Name  string
	Shape tensor.Shape
	Data  *tensor.Tensor
	Grad  *tensor.Tensor
}

type layerInst struct {
	layer   Layer
	bottoms []string
	top     string
}

// layerBound is what the per-iteration walk of one layer reads, resolved
// from the blob names once by Setup so the walk allocates nothing: the
// bottoms' data and gradient tensors, the headers of the scratch
// gradients Backward writes into (backed by Net.bwdScratch), the top
// blob and the backward label.
type layerBound struct {
	bot, dbot, scratch []*tensor.Tensor
	topBlob            *Blob
	bwdLabel           string
}

// Net is a feed-forward network over named blobs, executed in insertion
// order (the builder adds layers topologically).
type Net struct {
	ctx    *Context
	layers []layerInst
	bound  []layerBound // parallel to layers, built by Setup
	blobs  map[string]*Blob
	order  []string // blob creation order, for deterministic iteration
	ready  bool
	// bwdScratch[j] backs the j-th bottom gradient a layer's Backward
	// writes; layers run one at a time, so every layer reuses it.
	bwdScratch [][]float32

	inputName  string
	inputShape tensor.Shape
}

// NewNet creates an empty network over ctx.
func NewNet(ctx *Context) *Net {
	return &Net{ctx: ctx, blobs: map[string]*Blob{}}
}

// Ctx returns the network's context.
func (n *Net) Ctx() *Context { return n.ctx }

// Input declares the network input blob.
func (n *Net) Input(name string, shape tensor.Shape) {
	n.inputName = name
	n.inputShape = shape
}

// Add appends a layer reading bottoms and producing top.
func (n *Net) Add(l Layer, top string, bottoms ...string) {
	n.layers = append(n.layers, layerInst{layer: l, bottoms: bottoms, top: top})
}

// Setup propagates shapes, allocates all blobs and parameters, and
// accounts activation memory against the device tracker.
func (n *Net) Setup() error {
	if n.ready {
		return nil
	}
	if n.inputName == "" || !n.inputShape.Valid() {
		return fmt.Errorf("dnn: network input not declared")
	}
	shapes := map[string]tensor.Shape{n.inputName: n.inputShape}
	if err := n.addBlobCharged(n.inputName, n.inputShape, n.ctx.OOC == nil); err != nil {
		return err
	}
	n.bound = make([]layerBound, len(n.layers))
	for i, li := range n.layers {
		var bs []tensor.Shape
		for _, b := range li.bottoms {
			s, ok := shapes[b]
			if !ok {
				return fmt.Errorf("dnn: layer %s reads unknown blob %q", li.layer.Name(), b)
			}
			bs = append(bs, s)
		}
		out, err := li.layer.Setup(n.ctx, bs)
		if err != nil {
			return fmt.Errorf("dnn: setting up %s: %w", li.layer.Name(), err)
		}
		if _, dup := shapes[li.top]; dup {
			return fmt.Errorf("dnn: blob %q written twice", li.top)
		}
		shapes[li.top] = out
		// In-place-eligible layers (ReLU, LRN, dropout, batch-norm) alias
		// their bottom blob on a real device, as Caffe runs them; their
		// tops consume no extra device memory.
		charge := true
		if ip, ok := li.layer.(inPlacer); ok && ip.InPlace() {
			charge = false
		}
		if n.ctx.OOC != nil {
			// Out-of-core execution streams activations: individual blobs
			// are not device-resident whole; the planned peak working set
			// is charged once below.
			charge = false
		}
		if err := n.addBlobCharged(li.top, out, charge); err != nil {
			return err
		}
		n.bound[i] = n.bind(li)
	}
	n.ready = true
	if ooc := n.ctx.OOC; ooc != nil {
		if err := ooc.bind(n); err != nil {
			return err
		}
		if err := n.ctx.Cudnn.Mem().Alloc(ooc.Plan.PeakBytes); err != nil {
			return fmt.Errorf("dnn: allocating OOC working set: %w", err)
		}
	}
	return nil
}

// bind resolves li's blob names into its layerBound, in as few
// allocations as that takes: a plan-only cycle is all Setup, so what the
// iteration walk no longer allocates must not be paid several times here.
func (n *Net) bind(li layerInst) layerBound {
	nb := len(li.bottoms)
	ptrs := make([]*tensor.Tensor, 2*nb)
	lb := layerBound{
		bot: ptrs[:nb:nb], dbot: ptrs[nb:],
		topBlob:  n.blobs[li.top],
		bwdLabel: li.layer.Name() + "/bwd",
	}
	for j, b := range li.bottoms {
		lb.bot[j], lb.dbot[j] = n.blobs[b].Data, n.blobs[b].Grad
	}
	if n.ctx.SkipCompute {
		// Timing-only runs hand dbot straight to Backward: no scratch.
		return lb
	}
	headers := make([]tensor.Tensor, nb)
	lb.scratch = make([]*tensor.Tensor, nb)
	for j, b := range li.bottoms {
		headers[j].Shape = n.blobs[b].Shape
		lb.scratch[j] = &headers[j]
	}
	for len(n.bwdScratch) < nb {
		n.bwdScratch = append(n.bwdScratch, nil)
	}
	return lb
}

// inPlacer marks layers whose top may alias their bottom on the device.
type inPlacer interface{ InPlace() bool }

func (n *Net) addBlobCharged(name string, s tensor.Shape, charge bool) error {
	if charge {
		if err := n.ctx.Cudnn.Mem().Alloc(2 * s.Bytes()); err != nil {
			return fmt.Errorf("dnn: allocating blob %q: %w", name, err)
		}
	}
	b := &Blob{Name: name}
	// Timing-only runs (SkipCompute) account device memory but do not
	// back the blobs with host storage: layers charge the clock without
	// touching data.
	if !n.ctx.SkipCompute {
		b.Data = tensor.NewShaped(s)
		b.Grad = tensor.NewShaped(s)
	}
	b.Shape = s
	n.blobs[name] = b
	n.order = append(n.order, name)
	return nil
}

// Blob returns a named blob (nil if absent).
func (n *Net) Blob(name string) *Blob { return n.blobs[name] }

// InputBlob returns the input blob.
func (n *Net) InputBlob() *Blob { return n.blobs[n.inputName] }

// OutputBlob returns the final layer's top blob.
func (n *Net) OutputBlob() *Blob {
	if len(n.layers) == 0 {
		return n.InputBlob()
	}
	return n.blobs[n.layers[len(n.layers)-1].top]
}

// Params returns all learnable parameters in layer order.
func (n *Net) Params() []*Param {
	var out []*Param
	for _, li := range n.layers {
		out = append(out, li.layer.Params()...)
	}
	return out
}

// ConvLayers returns the network's convolution layers in execution order.
func (n *Net) ConvLayers() []*Conv {
	var out []*Conv
	for _, li := range n.layers {
		if c, ok := li.layer.(*Conv); ok {
			out = append(out, c)
		}
	}
	return out
}

// Layers returns the layer names in execution order.
func (n *Net) Layers() []string {
	out := make([]string, len(n.layers))
	for i, li := range n.layers {
		out[i] = li.layer.Name()
	}
	return out
}

// Forward runs the full forward pass.
func (n *Net) Forward() error {
	if err := n.Setup(); err != nil {
		return err
	}
	for i := range n.layers {
		if err := n.forwardLayer(i); err != nil {
			return err
		}
	}
	return nil
}

func (n *Net) forwardLayer(i int) error {
	li, lb := n.layers[i], &n.bound[i]
	n.ctx.label = li.layer.Name()
	prof.SetLayer(li.layer.Name())
	sc := causal.Begin(causal.KindLayer, li.layer.Name())
	defer causal.End(sc)
	defer func() { n.ctx.label = ""; prof.SetLayer("") }()
	defer n.layerSpan(li.layer.Name(), "forward", sc)()
	if n.ctx.OOC != nil {
		if err := n.ctx.OOC.beginLayer(n.ctx, i, false); err != nil {
			return err
		}
	}
	if err := li.layer.Forward(n.ctx, lb.bot, lb.topBlob.Data); err != nil {
		return fmt.Errorf("dnn: forward %s: %w", li.layer.Name(), err)
	}
	return nil
}

// layerSpan opens a per-layer span on the context's trace recorder and
// returns the closure that records it; the span covers the simulated-
// clock interval the layer's kernels charged and carries the layer's
// causal scope ID. A no-op when tracing is off.
func (n *Net) layerSpan(name, dir string, sc causal.Token) func() {
	return n.spanOn(trace.TrackLayer, name, dir, sc)
}

// spanOn records a bracket span on an arbitrary track covering the
// simulated-clock interval between the call and the returned closure.
func (n *Net) spanOn(track int, name, cat string, sc causal.Token) func() {
	if n.ctx.Trace == nil {
		return func() {}
	}
	start := n.ctx.Cudnn.Elapsed()
	return func() {
		n.ctx.Trace.Add(trace.Event{
			Name:   name,
			Cat:    cat,
			Start:  start,
			Dur:    n.ctx.Cudnn.Elapsed() - start,
			Track:  track,
			Span:   uint64(sc.ID),
			Parent: uint64(sc.Parent),
		})
	}
}

// RunIteration runs one training iteration (forward + backward) inside
// an iteration-level causal scope, recording an iteration bracket span
// (the window the timeline's tiling check covers).
func (n *Net) RunIteration() error {
	if err := n.Setup(); err != nil {
		return err
	}
	sc := causal.Begin(causal.KindIteration, "iteration")
	defer causal.End(sc)
	defer n.spanOn(trace.TrackIteration, "iteration", "iteration", sc)()
	if err := n.Forward(); err != nil {
		return err
	}
	return n.Backward()
}

// Backward runs the full backward pass; loss layers seed their own bottom
// gradients, so no top gradient needs to be provided. Bottom gradients
// accumulate across consumers, so blob gradients are zeroed first.
func (n *Net) Backward() error {
	if !n.ready {
		return fmt.Errorf("dnn: Backward before Forward")
	}
	n.zeroBlobGrads()
	for i := len(n.layers) - 1; i >= 0; i-- {
		if err := n.backwardLayer(i); err != nil {
			return err
		}
	}
	return nil
}

// zeroBlobGrads clears every blob gradient ahead of a backward pass:
// bottom gradients accumulate across consumers. A timing-only context
// has no gradient buffers to clear.
func (n *Net) zeroBlobGrads() {
	if n.ctx.SkipCompute {
		return
	}
	for _, b := range n.blobs {
		b.Grad.Zero()
	}
}

func (n *Net) backwardLayer(i int) error {
	li, lb := n.layers[i], &n.bound[i]
	n.ctx.label = lb.bwdLabel
	prof.SetLayer(n.ctx.label)
	sc := causal.Begin(causal.KindLayer, li.layer.Name())
	defer causal.End(sc)
	defer func() { n.ctx.label = ""; prof.SetLayer("") }()
	defer n.layerSpan(li.layer.Name(), "backward", sc)()
	if n.ctx.OOC != nil {
		if err := n.ctx.OOC.beginLayer(n.ctx, i, true); err != nil {
			return err
		}
	}
	top := lb.topBlob
	if n.ctx.SkipCompute {
		if err := li.layer.Backward(n.ctx, lb.bot, top.Data, top.Grad, lb.dbot); err != nil {
			return fmt.Errorf("dnn: backward %s: %w", li.layer.Name(), err)
		}
		return nil
	}
	// Layers overwrite dBottoms; since a blob may feed several layers,
	// accumulate via a scratch buffer. Single-consumer blobs dominate, so
	// the extra add is cheap relative to the layer work. The buffers are
	// the net's, zeroed per use: a fresh tensor per layer per iteration was
	// garbage piling up at the iteration rate until the next GC cycle.
	for j, g := range lb.scratch {
		elems := g.Shape.Elems()
		if cap(n.bwdScratch[j]) < elems {
			n.bwdScratch[j] = make([]float32, elems)
		}
		g.Data = n.bwdScratch[j][:elems]
		clear(g.Data)
	}
	if err := li.layer.Backward(n.ctx, lb.bot, top.Data, top.Grad, lb.scratch); err != nil {
		return fmt.Errorf("dnn: backward %s: %w", li.layer.Name(), err)
	}
	for j, g := range lb.scratch {
		dst := lb.dbot[j].Data
		for k, v := range g.Data {
			dst[k] += v
		}
	}
	return nil
}

// ZeroGrads clears all parameter gradients.
func (n *Net) ZeroGrads() {
	for _, p := range n.Params() {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}
