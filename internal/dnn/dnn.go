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
	"time"

	"ucudnn/internal/blas"
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
	// SkipCompute runs the network for timing/planning only, skipping
	// CPU arithmetic in non-convolution layers and host storage for blobs
	// and parameters. NewContext sets it exactly when the inner handle is
	// model-only (cudnn.ModelOnlyBackend), which computes nothing either;
	// callers that assign it (benchmarks/e2e does) assign that value.
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
// the shared arena. Valid until the next call. A workspace fault armed
// on the run's schedule (the inner handle's) shrinks (or denies) the grant, simulating framework-side memory
// pressure: convolution layers hand the short buffer on, and the library
// below degrades (µ-cuDNN) or reports the workspace as too small (plain
// cuDNN).
func (c *Context) Workspace(bytes int64) []float32 {
	bytes = c.Cudnn.Faults().Grant(faults.PointDnnWorkspace, bytes)
	if bytes <= 0 {
		return nil
	}
	n := int((bytes + 3) / 4)
	if len(c.wsArena) < n {
		c.wsArena = make([]float32, n)
	}
	return c.wsArena[:n]
}

// NewContext builds a Caffe-style context over the given handles (the
// per-layer workspace limit is forwarded through Get*Algorithm). A
// model-only inner handle makes it a timing-only context (SkipCompute).
func NewContext(convHandle ConvHandle, inner *cudnn.Handle, wsLimit int64) *Context {
	return &Context{
		Conv:           convHandle,
		Cudnn:          inner,
		WorkspaceLimit: wsLimit,
		Pref:           cudnn.SpecifyWorkspaceLimit,
		Training:       true,
		RNG:            rand.New(rand.NewSource(1)),
		SkipCompute:    inner.Backend() == cudnn.ModelOnlyBackend,
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

// Param is one learnable parameter tensor (flat storage) of Elems
// elements. Data and Grad hold them when the context computes; a
// timing-only context reads no parameter, so there they are nil.
type Param struct {
	Name  string
	Elems int
	Data  []float32
	Grad  []float32
}

// newParam returns the parameter name of elems elements, backed by host
// memory only when ctx computes. Device memory is the layer's to account.
func newParam(ctx *Context, name string, elems int) *Param {
	p := &Param{Name: name, Elems: elems}
	if !ctx.SkipCompute {
		p.Data, p.Grad = make([]float32, elems), make([]float32, elems)
	}
	return p
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
	// Backward computes bottom gradients (into dBottoms, overwriting every
	// element: the net hands a blob's gradient itself to its first
	// consumer, see routeGrads) and accumulates parameter gradients,
	// given the forward activations and the top gradient.
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
// bottoms' data tensors, the gradient tensors Backward writes (see
// routeGrads), the sums that follow it, the top blob and the backward
// label; and the simulated clock its forward and backward passes have
// spanned (see pass.close).
type layerBound struct {
	bot, dbot []*tensor.Tensor
	sums      []gradSum
	topBlob   *Blob
	bwdLabel  string

	fwdTime, bwdTime time.Duration
}

// gradSum adds a bottom gradient that a later consumer in backward order
// wrote into scratch (a header over gradRoutes.scratch) into the blob
// gradient grad, which an earlier consumer wrote.
type gradSum struct{ scratch, grad *tensor.Tensor }

// gradRoutes is the net's half of blob-gradient routing (each layer's
// sums are in its layerBound). scratch[k] backs the k-th sum of a layer:
// layers run one at a time, so every layer reuses it. unwritten are the
// gradients no Backward writes (the loss top, an input only a
// SkipInputGrad convolution reads), which zeroBlobGrads clears. sum
// adds a gradSum at vector width over the workers.
type gradRoutes struct {
	scratch   [][]float32
	unwritten []*tensor.Tensor
	sum       *layerPass
}

// Net is a feed-forward network over named blobs, executed in insertion
// order (the builder adds layers topologically).
type Net struct {
	ctx    *Context
	layers []layerInst
	bound  []layerBound // parallel to layers, built by Setup
	blobs  map[string]*Blob
	order  []string // blob creation order, for deterministic iteration
	params []*Param // learnable parameters in layer order, built by Setup
	ready  bool
	// grads is what routeGrads built; a timing-only context has none.
	grads *gradRoutes

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
	if ooc := n.ctx.OOC; ooc != nil && n.ctx.Cudnn.Faults().Hit(faults.PointOOCPlan) {
		// Conservative planning under an unreliable allocator: the armed
		// plan fault steps the executor one rung finer than its plan
		// before any layer is sized for the windows.
		ooc.stepLadder("plan")
	}
	shapes := map[string]tensor.Shape{n.inputName: n.inputShape}
	if err := n.addBlobCharged(n.inputName, n.inputShape, n.ctx.OOC == nil); err != nil {
		return err
	}
	n.bound = make([]layerBound, len(n.layers))
	n.params = n.params[:0]
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
		n.params = append(n.params, li.layer.Params()...)
	}
	if !n.ctx.SkipCompute {
		n.routeGrads()
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
	return lb
}

// routeGrads decides who writes each blob gradient in a backward pass.
// The first consumer in backward order (the blob's last reader in
// forward order; of one layer's bottoms, the first) writes Blob.Grad
// itself: every Backward overwrites its dBottoms. Every later consumer
// writes a scratch buffer, which the sum then adds in, in backward
// order: the gradient is g1 + g2 + ... with one rounding per add, as
// when every consumer added into a cleared gradient, except that a -0
// from the first writer stays -0 (0 + -0 is +0). Gradients no Backward
// writes are left to zeroBlobGrads. A timing-only context has no
// gradients, so only a computing one routes.
func (n *Net) routeGrads() {
	n.grads = &gradRoutes{}
	written := make(map[*tensor.Tensor]bool, len(n.blobs))
	var slots []int // the largest gradient each scratch slot holds
	for i := len(n.layers) - 1; i >= 0; i-- {
		if c, ok := n.layers[i].layer.(*Conv); ok && c.skipInputGrad {
			continue // writes no bottom gradient
		}
		lb := &n.bound[i]
		for j, g := range lb.dbot {
			if !written[g] {
				written[g] = true
				continue
			}
			k := len(lb.sums)
			if k == len(slots) {
				slots = append(slots, 0)
			}
			slots[k] = max(slots[k], g.Shape.Elems())
			lb.dbot[j] = &tensor.Tensor{Shape: g.Shape, Stride: g.Stride}
			lb.sums = append(lb.sums, gradSum{scratch: lb.dbot[j], grad: g})
		}
	}
	units := 1
	for _, elems := range slots {
		n.grads.scratch = append(n.grads.scratch, make([]float32, elems))
		units = max(units, ceilDiv(elems, forkGrain))
	}
	for i := range n.bound {
		for k, sm := range n.bound[i].sums {
			sm.scratch.Data = n.grads.scratch[k][:sm.grad.Shape.Elems()]
		}
	}
	n.grads.sum = newLayerPass(units, n.sumWork)
	for _, name := range n.order {
		if g := n.blobs[name].Grad; !written[g] {
			n.grads.unwritten = append(n.grads.unwritten, g)
		}
	}
}

// sumWork is one worker's share of a gradient sum: the elements
// [lo, hi), y += 1*x. The product 1*x is exact, so every element gets
// the bits of y + x.
func (n *Net) sumWork(_, lo, hi int) {
	pass := n.grads.sum
	blas.Saxpy(1, pass.x[lo:hi], pass.y[lo:hi])
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

// Params returns all learnable parameters in layer order; Setup builds
// the list, so the network is set up first. The slice is the network's
// own: callers read it.
func (n *Net) Params() []*Param { return n.params }

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
	defer n.open(i, false).close()
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

// pass is one unit of the walk in progress: a layer's forward or
// backward pass, or a whole iteration (layer -1). Net.open starts it and
// close ends it, once; it is a value, so the walk allocates nothing.
type pass struct {
	n     *Net
	layer int
	bwd   bool
	sc    trace.Scope
	start time.Duration
}

// open starts a pass: a layer pass names its layer for the clock
// charges (Context.Label) and the profiler rows, and every pass opens
// its causal scope on the context's trace recorder (if any) and notes
// the simulated clock.
func (n *Net) open(layer int, bwd bool) pass {
	p := pass{n: n, layer: layer, bwd: bwd, start: n.ctx.Cudnn.Elapsed()}
	if layer < 0 {
		p.sc = n.ctx.Trace.Open(trace.KindIteration, "iteration")
		return p
	}
	name := n.layers[layer].layer.Name()
	n.ctx.label = name
	if bwd {
		n.ctx.label = n.bound[layer].bwdLabel
	}
	prof.SetLayer(n.ctx.label)
	p.sc = n.ctx.Trace.Open(trace.KindLayer, name)
	return p
}

// close ends the pass: a layer pass adds the simulated-clock interval
// it spanned to its layer's forward or backward total (what Time
// reports) and clears the layer name; a bracket span with the pass's
// causal scope ID goes to the context's trace recorder, if any.
func (p pass) close() {
	n := p.n
	dur := n.ctx.Cudnn.Elapsed() - p.start
	name, cat, track := "iteration", "iteration", trace.TrackIteration
	if p.layer >= 0 {
		lb := &n.bound[p.layer]
		name, cat, track = n.layers[p.layer].layer.Name(), "forward", trace.TrackLayer
		if p.bwd {
			cat = "backward"
			lb.bwdTime += dur
		} else {
			lb.fwdTime += dur
		}
		n.ctx.label = ""
		prof.SetLayer("")
	}
	if rec := n.ctx.Trace; rec != nil {
		rec.Add(trace.Event{Span: p.sc.ID, Parent: p.sc.Parent,
			Name: name, Cat: cat, Track: track, Start: p.start, Dur: dur})
		rec.Close(p.sc)
	}
}

// RunIteration runs one training iteration (forward + backward) inside
// an iteration-level causal scope, recording an iteration bracket span
// (the window the timeline's tiling check covers).
func (n *Net) RunIteration() error {
	if err := n.Setup(); err != nil {
		return err
	}
	defer n.open(-1, false).close()
	if err := n.Forward(); err != nil {
		return err
	}
	return n.Backward()
}

// Backward runs the full backward pass; loss layers seed their own bottom
// gradients, so no top gradient needs to be provided. Each blob gradient
// is written by its first consumer and summed into by the rest (see
// routeGrads); zeroBlobGrads clears those nobody writes.
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

// zeroBlobGrads clears, ahead of a backward pass, the blob gradients no
// layer's Backward writes. A timing-only context has no gradient buffers
// to clear.
func (n *Net) zeroBlobGrads() {
	if n.grads == nil {
		return
	}
	for _, g := range n.grads.unwritten {
		g.Zero()
	}
}

func (n *Net) backwardLayer(i int) error {
	li, lb := n.layers[i], &n.bound[i]
	defer n.open(i, true).close()
	if n.ctx.OOC != nil {
		if err := n.ctx.OOC.beginLayer(n.ctx, i, true); err != nil {
			return err
		}
	}
	top := lb.topBlob
	if err := li.layer.Backward(n.ctx, lb.bot, top.Data, top.Grad, lb.dbot); err != nil {
		return fmt.Errorf("dnn: backward %s: %w", li.layer.Name(), err)
	}
	for _, sm := range lb.sums {
		// At most one worker per forkGrain elements of this sum.
		s, elems := n.grads.sum, len(sm.scratch.Data)
		s.x, s.y = sm.scratch.Data, sm.grad.Data
		blas.Fork(min(blas.MaxWorkers(), s.width, ceilDiv(elems, forkGrain)), elems, s.body)
	}
	return nil
}

// ZeroGrads clears all parameter gradients.
func (n *Net) ZeroGrads() {
	for _, p := range n.params {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}
