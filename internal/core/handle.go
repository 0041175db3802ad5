package core

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"ucudnn/internal/conv"
	"ucudnn/internal/cudnn"
	"ucudnn/internal/faults"
	"ucudnn/internal/obs"
	"ucudnn/internal/prof"
	"ucudnn/internal/tensor"
	"ucudnn/internal/trace"
)

// VirtualAlgo is the algorithm identifier µ-cuDNN hands back from the
// Get*/Find* calls (§III-D): frameworks pass it to Convolution*, where the
// handle substitutes the optimized micro-batched configuration. Its
// workspace requirement is reported as zero because µ-cuDNN manages
// workspaces itself.
const VirtualAlgo conv.Algo = -1

// Mode selects the workspace policy of §III-A.
type Mode int

const (
	// WR (Workspace Reuse) optimizes each kernel independently under a
	// per-kernel workspace limit.
	WR Mode = iota
	// WD (Workspace Division) optimizes all registered kernels jointly
	// under a network-wide workspace budget.
	WD
)

func (m Mode) String() string {
	if m == WD {
		return "WD"
	}
	return "WR"
}

// DefaultWorkspaceLimit is Caffe2's per-kernel default (64 MiB), used when
// neither the framework nor the environment specifies a limit.
const DefaultWorkspaceLimit = 64 << 20

// Options configure a µ-cuDNN handle.
type Options struct {
	// Policy is the batch-size policy (default PolicyPowerOfTwo).
	Policy Policy
	// Mode selects WR or WD (default WR).
	Mode Mode
	// WorkspaceLimit is the per-kernel limit for WR and for kernels that
	// bypass WD registration; frameworks that pass an explicit limit
	// through Get*Algorithm override it per kernel.
	WorkspaceLimit int64
	// TotalWorkspaceLimit is the network-wide budget for WD.
	TotalWorkspaceLimit int64
	// BlobReserve carves activation (blob) memory out of the WD budget,
	// making TotalWorkspaceLimit a joint pool: the ILP assigns kernel
	// workspaces only from what the out-of-core scheduler's peak working
	// set leaves behind. Ignored in WR mode, where the caller folds the
	// blob peak into the per-kernel limit instead.
	BlobReserve int64
	// CachePath optionally points at the file benchmark database.
	CachePath string
	// Metrics, when non-nil, receives the handle's observability metrics
	// (algorithm selections, cache traffic, optimizer costs). Nil disables
	// collection at no cost beyond a nil check per event. The registry
	// belongs to the caller, which exports it (obs.Registry.WriteFile).
	Metrics *obs.Registry
	// AlgoFilter, when non-nil, restricts the algorithm universe the
	// optimizers and the degradation ladder may choose from; it is also
	// installed on the wrapped cuDNN handle so benchmark enumeration
	// agrees. The differential test harness uses it to pin every
	// execution mode to one bit-exact algorithm family.
	AlgoFilter func(conv.Op, conv.Algo) bool
}

// Option mutates Options.
type Option func(*Options)

// WithPolicy sets the batch-size policy.
func WithPolicy(p Policy) Option { return func(o *Options) { o.Policy = p } }

// WithWorkspaceLimit sets the per-kernel workspace limit (WR).
func WithWorkspaceLimit(bytes int64) Option {
	return func(o *Options) { o.WorkspaceLimit = bytes }
}

// WithWD enables Workspace Division with a total budget.
func WithWD(totalBytes int64) Option {
	return func(o *Options) {
		o.Mode = WD
		o.TotalWorkspaceLimit = totalBytes
	}
}

// WithBlobReserve reserves bytes of the WD joint pool for activation
// blobs (the out-of-core scheduler's peak working set); kernel
// workspaces draw from the remainder.
func WithBlobReserve(bytes int64) Option {
	return func(o *Options) { o.BlobReserve = bytes }
}

// WDJointPool enables Workspace Division over one joint pool: the
// planned blob working set (the out-of-core plan's peak; zero without a
// blob budget) is added to the workspace budget and reserved back out of
// it, so workspace and activations trade off inside one total instead
// of competing unaccounted.
func WDJointPool(wsBytes, blobPeak int64) Option {
	return func(o *Options) {
		WithWD(wsBytes + blobPeak)(o)
		WithBlobReserve(blobPeak)(o)
	}
}

// WithCachePath sets the benchmark database file.
func WithCachePath(path string) Option { return func(o *Options) { o.CachePath = path } }

// WithMetrics points the handle's instrumentation at registry r.
func WithMetrics(r *obs.Registry) Option { return func(o *Options) { o.Metrics = r } }

// WithAlgoFilter restricts algorithm selection to those f admits (nil
// removes the restriction). The filter is installed on the wrapped cuDNN
// handle by New, so Find*/benchmark enumeration and plan optimization
// see the same universe.
func WithAlgoFilter(f func(conv.Op, conv.Algo) bool) Option {
	return func(o *Options) { o.AlgoFilter = f }
}

// FromEnv applies the paper's environment-variable configuration:
// UCUDNN_BATCH_SIZE_POLICY, UCUDNN_WORKSPACE_LIMIT (bytes),
// UCUDNN_TOTAL_WORKSPACE_SIZE (bytes; enables WD) and
// UCUDNN_BENCHMARK_DB_PATH, so the Caffe-style "swap the handle type"
// integration stays transparent. A blob reserve has no variable: it
// means something only inside the joint pool it is carved from
// (WDJointPool).
func FromEnv() Option {
	return func(o *Options) {
		if v := os.Getenv("UCUDNN_BATCH_SIZE_POLICY"); v != "" {
			if p, err := ParsePolicy(v); err == nil {
				o.Policy = p
			}
		}
		if v := os.Getenv("UCUDNN_WORKSPACE_LIMIT"); v != "" {
			if b, err := strconv.ParseInt(v, 10, 64); err == nil && b > 0 {
				o.WorkspaceLimit = b
			}
		}
		if v := os.Getenv("UCUDNN_TOTAL_WORKSPACE_SIZE"); v != "" {
			if b, err := strconv.ParseInt(v, 10, 64); err == nil && b > 0 {
				o.Mode = WD
				o.TotalWorkspaceLimit = b
			}
		}
		if v := os.Getenv("UCUDNN_BENCHMARK_DB_PATH"); v != "" {
			o.CachePath = v
		}
	}
}

// Handle is µ-cuDNN's drop-in replacement for the cuDNN handle
// (UcudnnHandle_t in the paper). It exposes the same convolution call
// surface as *cudnn.Handle; all other cuDNN functionality is reached
// through Inner(), the Go analogue of the paper's cast operator.
type Handle struct {
	inner *cudnn.Handle
	// id is the process-wide creation index (1-based), reported as
	// handles[].id of the profile report.
	id      int64
	opts    Options
	cache   *Cache
	bencher *Bencher
	m       *metricSet

	// execMu serializes kernel execution on the handle (one stream, as in
	// cuDNN): every plan's workspace is carved from the shared wsArena, so
	// two overlapping Convolution* calls must not run their kernels at the
	// same time.
	execMu sync.Mutex

	mu sync.Mutex
	// kernels is the handle's one table per kernel: the workspace limit a
	// framework passed for it, whether WD registered it, and its plan once
	// decided. registered lists the WD kernels in registration order.
	kernels    map[Kernel]kernelState
	registered []Kernel
	regClosed  bool
	wdResult   *WDResult
	optTime    time.Duration
	// arena is the workspace granted so far, in floats: every plan's
	// workspace is a prefix of it. wsArena backs it on a computing inner
	// handle and stays nil on a model-only one, whose kernels touch no
	// buffer (the size alone reaches cudnn.Handle.Convolve). Both are
	// guarded by mu (growArena may reallocate wsArena); execute snapshots
	// them under mu and uses the snapshot under execMu, so device-memory
	// accounting stays per kernel segment while the host buffer is shared.
	arena   int
	wsArena []float32
	// degraded counts plans adopted by the degradation ladder (guarded by
	// mu; mirrored into the ucudnn_fault_degraded_plans gauge).
	degraded int
	// snapBuf backs execute's pre-run output snapshot for beta != 0 calls
	// (guarded by execMu), so fallback retries can restore the blended
	// output without allocating per call.
	snapBuf []float32
	// xView and yView are runConfig's micro-batch views of the call's
	// tensors (guarded by execMu), kept here so a view allocates nothing.
	xView, yView tensor.Tensor
}

// kernelState is a handle's record of one kernel. A limit of 0 means the
// framework passed none; planned says whether config, time and workspace
// hold the kernel's plan.
type kernelState struct {
	limit      int64
	registered bool
	planned    bool
	config     Config
	time       time.Duration
	workspace  int64
}

// plan returns the plan s holds for kernel k.
func (s kernelState) plan(k Kernel) Plan {
	return Plan{Kernel: k, Config: s.config, Time: s.time, Workspace: s.workspace}
}

// planLocked returns kernel k's plan, if one is decided; callers hold
// h.mu.
func (h *Handle) planLocked(k Kernel) (Plan, bool) {
	s := h.kernels[k]
	return s.plan(k), s.planned
}

// setPlanLocked installs p as its kernel's plan; callers hold h.mu.
func (h *Handle) setPlanLocked(p Plan) {
	s := h.kernels[p.Kernel]
	s.planned, s.config, s.time, s.workspace = true, p.Config, p.Time, p.Workspace
	h.kernels[p.Kernel] = s
}

// limitLocked returns the workspace limit the framework passed for k, or
// def when it passed none; callers hold h.mu.
func (h *Handle) limitLocked(k Kernel, def int64) int64 {
	if l := h.kernels[k].limit; l > 0 {
		return l
	}
	return def
}

// arenaGrant returns the arena floats a request for bytes is granted. An
// arena-growth fault armed on the run's schedule (the inner handle's)
// shrinks or denies the request — the arena then stays smaller than a
// plan's workspace, and execute's kernels degrade to fewer strips or
// fail into the degradation ladder.
func (h *Handle) arenaGrant(bytes int64) int {
	return int((h.inner.Faults().Grant(faults.PointArenaGrow, bytes) + 3) / 4)
}

// growArena ensures the arena covers n floats, backing it with memory
// unless the inner handle is model-only; callers hold h.mu.
func (h *Handle) growArena(n int) {
	if h.arena >= n {
		return
	}
	h.arena = n
	if h.inner.Backend() != cudnn.ModelOnlyBackend {
		h.wsArena = make([]float32, n)
	}
}

// New wraps a cuDNN handle. The returned µ-cuDNN handle is safe for
// concurrent use.
func New(inner *cudnn.Handle, opts ...Option) (*Handle, error) {
	o := Options{
		Policy:         PolicyPowerOfTwo,
		WorkspaceLimit: DefaultWorkspaceLimit,
	}
	for _, f := range opts {
		f(&o)
	}
	if o.Mode == WD && o.TotalWorkspaceLimit <= 0 {
		return nil, fmt.Errorf("core: WD mode requires a positive total workspace limit")
	}
	if o.BlobReserve < 0 {
		return nil, fmt.Errorf("core: negative blob reserve %d", o.BlobReserve)
	}
	if o.Mode == WD && o.BlobReserve >= o.TotalWorkspaceLimit {
		return nil, fmt.Errorf("core: blob reserve %d consumes the whole joint pool of %d bytes", o.BlobReserve, o.TotalWorkspaceLimit)
	}
	cache, err := NewCache(o.CachePath, inner.Faults())
	if err != nil {
		return nil, err
	}
	bencher := NewBencher(inner, cache)
	bencher.SetMetrics(o.Metrics)
	h := &Handle{
		inner:   inner,
		id:      handleSeq.Add(1),
		opts:    o,
		cache:   cache,
		bencher: bencher,
		m:       bencher.m,
		kernels: map[Kernel]kernelState{},
	}
	if o.AlgoFilter != nil {
		inner.SetAlgoFilter(o.AlgoFilter)
	}
	return h, nil
}

// Inner returns the wrapped cuDNN handle for non-convolution calls.
func (h *Handle) Inner() *cudnn.Handle { return h.inner }

// Options returns the handle's configuration.
func (h *Handle) Options() Options { return h.opts }

// Cache returns the benchmark cache.
func (h *Handle) Cache() *Cache { return h.cache }

// Metrics returns the handle's metrics registry (nil when observability
// is disabled).
func (h *Handle) Metrics() *obs.Registry { return h.opts.Metrics }

// OptimizationTime returns the cumulative time spent benchmarking kernels
// and solving the DP/ILP (the paper's §IV-B optimization-cost metric).
func (h *Handle) OptimizationTime() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.optTime
}

// Plans returns a snapshot of the execution plans decided so far,
// sorted by kernel name.
func (h *Handle) Plans() []Plan {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.plansLocked()
}

// plansLocked returns the plan table sorted by kernel name. The caller
// holds h.mu.
func (h *Handle) plansLocked() []Plan {
	type named struct {
		name string
		plan Plan
	}
	ns := make([]named, 0, len(h.kernels))
	for k, s := range h.kernels {
		if s.planned {
			ns = append(ns, named{k.String(), s.plan(k)})
		}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].name < ns[j].name })
	out := make([]Plan, len(ns))
	for i, n := range ns {
		out[i] = n.plan
	}
	return out
}

// WDStats returns the WD optimization result, if WD has run.
func (h *Handle) WDStats() *WDResult {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.wdResult
}

// register notes a kernel (and its per-kernel limit) seen through a
// Get*Algorithm call. In WD mode the kernel list is what the ILP later
// optimizes; after FinalizeRegistration (or the first Convolution* call),
// further registrations are ignored — the paper's Caffe integration note.
func (h *Handle) register(k Kernel, wsLimit int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	wd := h.opts.Mode == WD
	if h.regClosed || wsLimit <= 0 && !wd {
		return
	}
	s := h.kernels[k]
	if wsLimit > 0 {
		s.limit = wsLimit
	}
	if wd && !s.registered {
		s.registered = true
		h.registered = append(h.registered, k)
	}
	h.kernels[k] = s
}

// FinalizeRegistration closes kernel registration and, in WD mode, runs
// the ILP optimization immediately (the explicit library call the paper
// adds after Caffe's network initialization).
func (h *Handle) FinalizeRegistration() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.finalizeLocked()
}

func (h *Handle) finalizeLocked() error {
	if h.regClosed {
		return nil
	}
	h.regClosed = true
	if h.opts.Mode != WD || len(h.registered) == 0 {
		return nil
	}
	start := time.Now()
	res, err := OptimizeWDReserved(h.bencher, h.registered, h.opts.TotalWorkspaceLimit, h.opts.BlobReserve, h.opts.Policy)
	h.optTime += time.Since(start)
	if err != nil {
		return err
	}
	h.wdResult = res
	h.m.wsRequested.Add(h.opts.TotalWorkspaceLimit)
	h.m.wsGranted.Add(res.TotalWorkspace)
	// Identical kernels share one workspace segment; each unique segment
	// is accounted against device memory and granted arena space in plan
	// order. The arena only grows, so sizing it once for the largest
	// grant leaves it as growing it per segment would, with one
	// allocation instead of one per larger segment.
	arena := 0
	for _, p := range res.Plans {
		if _, ok := h.planLocked(p.Kernel); ok {
			continue
		}
		h.m.microbatchCount.Observe(float64(len(p.Config)))
		if err := h.inner.Mem().Alloc(p.Workspace); err != nil {
			h.growArena(arena)
			return fmt.Errorf("core: allocating WD segment for %v: %w", p.Kernel, err)
		}
		arena = max(arena, h.arenaGrant(p.Workspace))
		h.setPlanLocked(p)
	}
	h.growArena(arena)
	return nil
}

// ensurePlan returns (computing if needed) the execution plan of kernel k.
func (h *Handle) ensurePlan(k Kernel) (Plan, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p, ok := h.planLocked(k); ok {
		return p, nil
	}
	// First execution closes WD registration and optimizes the network.
	if err := h.finalizeLocked(); err != nil {
		return Plan{}, err
	}
	if p, ok := h.planLocked(k); ok {
		return p, nil
	}
	// WR path (or WD fallback for unregistered kernels).
	limit := h.limitLocked(k, h.opts.WorkspaceLimit)
	start := time.Now()
	plan, err := OptimizeWR(h.bencher, k, limit, h.opts.Policy)
	h.optTime += time.Since(start)
	if err != nil {
		return Plan{}, err
	}
	h.m.wsRequested.Add(limit)
	h.m.wsGranted.Add(plan.Workspace)
	h.m.microbatchCount.Observe(float64(len(plan.Config)))
	if err := h.inner.Mem().Alloc(plan.Workspace); err != nil {
		return Plan{}, fmt.Errorf("core: allocating workspace for %v: %w", k, err)
	}
	h.growArena(h.arenaGrant(plan.Workspace))
	h.setPlanLocked(plan)
	return plan, nil
}

// execute runs the kernel's micro-batched configuration sequentially,
// slicing the mini-batch tensors in place (no copies) and accumulating
// BackwardFilter gradients with beta=1 after the first micro-batch.
// A failed plan (or a failed planning step) does not surface to the
// framework: execute snapshots blended outputs, then walks the
// degradation ladder in degrade.go until some configuration runs.
func (h *Handle) execute(op conv.Op, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32) error {
	k := Kernel{Op: op, Shape: cs}
	plan, err := h.ensurePlan(k)
	h.execMu.Lock()
	defer h.execMu.Unlock()
	defer openCall(h.inner.Trace(), k).close()
	out := h.snapshotOutput(op, x, w, y, beta)
	if err == nil {
		err = h.runConfig(plan.Config, plan.Workspace, op, cs, x, w, y, alpha, beta)
		if err == nil {
			return nil
		}
	}
	return h.degrade(k, err, out, x, w, y, alpha, beta)
}

// callScope is a conv call's causal scope on the handle's recorder and
// its profiler row, which openCall opens together and close ends.
type callScope struct {
	rec    *trace.Recorder
	sc     trace.Scope
	pstart int64
}

// openCall opens the causal scope of a call of k on rec (nil when the
// handle records no timeline) and its profiler row. Both are named by
// the kernel, which is formatted only when one of them records.
func openCall(rec *trace.Recorder, k Kernel) callScope {
	if rec == nil && !prof.Enabled() {
		return callScope{}
	}
	name := k.String()
	return callScope{rec: rec, sc: rec.Open(trace.KindConv, name), pstart: prof.Begin(name)}
}

// close ends what openCall opened.
func (c callScope) close() {
	prof.End(c.pstart)
	c.rec.Close(c.sc)
}

// snapshotOutput copies the output buffer a beta != 0 call blends into
// to snapBuf and returns it, for restore to rewind before each fallback
// retry (a half-written blended output cannot be re-run in place). beta
// == 0 retries are idempotent — every configuration overwrites the full
// output — so no copy is taken and nil is returned. Callers hold execMu
// (snapBuf is reused across calls).
func (h *Handle) snapshotOutput(op conv.Op, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, beta float32) []float32 {
	var out []float32
	if beta != 0 {
		switch op {
		case conv.Forward:
			if y != nil {
				out = y.Data
			}
		case conv.BackwardData:
			if x != nil {
				out = x.Data
			}
		case conv.BackwardFilter:
			if w != nil {
				out = w.Data
			}
		}
	}
	if out == nil {
		return nil
	}
	if cap(h.snapBuf) < len(out) {
		h.snapBuf = make([]float32, len(out))
	}
	copy(h.snapBuf, out)
	return out
}

// restore rewinds out, the buffer snapshotOutput returned, to its
// snapshot. Callers hold execMu.
func (h *Handle) restore(out []float32) { copy(out, h.snapBuf) }

// runConfig executes one configuration over the full mini-batch. Callers
// hold execMu. The workspace is the arena prefix of the configuration's
// requirement, clamped to the arena's granted size (a fault-shrunk grant
// may have left it short — the kernels' MinWorkspace floor checks decide
// whether that is still runnable); on a model-only handle it is a size
// with no buffer.
func (h *Handle) runConfig(cfg Config, wsBytes int64, op conv.Op, cs tensor.ConvShape, x *tensor.Tensor, w *tensor.FilterTensor, y *tensor.Tensor, alpha, beta float32) error {
	h.mu.Lock()
	n := min(int((wsBytes+3)/4), h.arena)
	ws := h.wsArena[:min(n, len(h.wsArena))]
	h.mu.Unlock()
	granted := int64(n) * 4
	prof.GrantWS(granted)
	off := 0
	for i, mc := range cfg {
		h.m.algoSelected(op, mc.Algo)
		mcs := cs.WithN(mc.BatchSize)
		mx, my := x, y
		if x != nil {
			h.xView = x.SampleView(off, mc.BatchSize)
			mx = &h.xView
		}
		if y != nil {
			h.yView = y.SampleView(off, mc.BatchSize)
			my = &h.yView
		}
		mbeta := beta
		if op == conv.BackwardFilter {
			if i > 0 {
				mbeta = 1
			}
			// dW is shared across micro-batches: pass the full tensors for
			// x and dy slices, the filter stays whole.
		}
		if err := h.inner.Convolve(op, mc.Algo, mcs, mx, w, my, alpha, mbeta, ws, granted); err != nil {
			return fmt.Errorf("core: micro-batch %d of %v: %w", i, cfg, err)
		}
		off += mc.BatchSize
	}
	return nil
}
