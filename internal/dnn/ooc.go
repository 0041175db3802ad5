// Out-of-core training: streamed micro-batches under a blob-memory
// budget. The paper's micro-batching divides convolution *workspace*;
// this file extends the same division discipline to activations and
// gradients (ROADMAP "Real memory", after the Chainer out-of-core
// examples and the Micro-Batch Processing line of work): the mini-batch
// is split into streamed micro-batch windows run forward+backward with
// deterministic gradient accumulation, while activation slabs are
// fetched and spilled against the device memory model.
//
// Execution stays bitwise identical to the undivided run by
// construction. Windows are ascending contiguous sample ranges, so the
// engine's ascending-n dW reduction makes the windowed beta=1 filter-
// gradient accumulation reproduce the undivided bits exactly (the same
// contract the micro-batching differential suite pins), and per-sample-
// independent kernels (convolution forward/backward-data, bias) write
// disjoint ranges. Whole-batch layers — batch-norm (batch statistics),
// FC (one fused GEMM) and the loss (batch-mean normalization, where MBP
// would rescale) — are *barriers*: their operand slabs stay fully
// resident and their arithmetic runs unchanged, which is why no loss
// rescaling is needed: normalization falls out of running the loss on
// the whole batch.
//
// The spill/recompute planner is a pure function (property-tested
// against a brute-force oracle); the executor charges transfer traffic
// to the simulated clock serially on the one device stream (nothing
// overlaps it, and no host blob is released: a budget changes plans,
// windows and counters, not resident memory), exposes ucudnn_ooc_*
// metrics, and degrades down a ladder — drop resident slabs, then halve
// the micro-batch, then the recompute-everything floor — when
// ucudnn_fp_ooc_* fault points fire. Degradation only refines the
// window partition (never re-runs arithmetic), so every rung keeps the
// bitwise contract.
package dnn

import (
	"fmt"
	"sort"

	"ucudnn/internal/faults"
	"ucudnn/internal/obs"
)

// The out-of-core metric series (on the run's registry, see SetMetrics).
const (
	// MetricOOCFetchBytes counts bytes fetched into the working set.
	MetricOOCFetchBytes = "ucudnn_ooc_fetch_bytes_total"
	// MetricOOCSpillBytes counts bytes spilled out of the working set.
	MetricOOCSpillBytes = "ucudnn_ooc_spill_bytes_total"
	// MetricOOCRecomputeBytes counts bytes whose transfer was replaced by
	// recomputation (spill failures and the recompute floor).
	MetricOOCRecomputeBytes = "ucudnn_ooc_recompute_bytes_total"
	// MetricOOCDegraded counts degradation-ladder steps, by stage.
	MetricOOCDegraded = "ucudnn_ooc_degraded_total"
	// MetricOOCMicroBatches gauges the current per-pass window count.
	MetricOOCMicroBatches = "ucudnn_ooc_micro_batches"
	// MetricOOCPeakBytes gauges the modeled peak working set.
	MetricOOCPeakBytes = "ucudnn_ooc_peak_bytes"
)

// OOCSlab is one activation storage unit of the footprint model: a group
// of blobs that alias the same device memory (in-place tops alias their
// bottom, concat inputs alias ranges of the concat output). Grouping
// aliases into one slab is what keeps in-place layers from being charged
// twice.
type OOCSlab struct {
	// Name is a representative member blob (the group's union-find root).
	Name string
	// PerSample is the activation bytes one mini-batch sample contributes
	// (data only; the gradient doubles it).
	PerSample int64
	// Full is the slab's whole-batch footprint, data plus gradient.
	Full int64
}

// OOCLayerFoot is one layer's touch set over the slabs.
type OOCLayerFoot struct {
	Name string
	// Slabs are the distinct slab ids the layer touches (bottoms and top;
	// an in-place layer's bottom and top land on one id).
	Slabs []int
	// In are the distinct slab ids of the bottoms; Out is the top's.
	In  []int
	Out int
	// Barrier marks whole-batch layers: their slabs must be fully
	// resident and they run undivided (batch-norm, FC, softmax loss).
	Barrier bool
}

// OOCModel is the footprint model the planner and executor share.
type OOCModel struct {
	Batch  int
	Slabs  []OOCSlab
	Layers []OOCLayerFoot
}

// oocStreams reports whether a layer can execute (or be modeled) in
// micro-batch windows. Everything per-sample-independent streams;
// whole-batch layers and unknown layer types are barriers.
func oocStreams(l Layer) bool {
	switch l.(type) {
	case *Conv, *ReLU, *Pool, *GlobalAvgPool, *Add, *Concat, *Dropout, *LRN:
		return true
	}
	return false
}

// FootprintModel extracts the activation footprint model from a set-up
// network: blobs are grouped into slabs by device aliasing, and each
// layer records the slab ids it touches. The network must have completed
// Setup (shapes are needed).
func FootprintModel(n *Net) (*OOCModel, error) {
	if !n.ready {
		return nil, fmt.Errorf("dnn: FootprintModel before Setup")
	}
	batch := n.inputShape.N
	if batch <= 0 {
		return nil, fmt.Errorf("dnn: invalid batch %d", batch)
	}

	// Union-find over blob names: in-place tops join their bottom, concat
	// joins every bottom with the top (memory-efficient concat lays the
	// bottoms out as ranges of the output buffer).
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, li := range n.layers {
		if _, isConcat := li.layer.(*Concat); isConcat {
			for _, b := range li.bottoms {
				union(li.top, b)
			}
			continue
		}
		if ip, ok := li.layer.(inPlacer); ok && ip.InPlace() && len(li.bottoms) > 0 {
			union(li.top, li.bottoms[0])
		}
	}

	// Slabs in blob-creation order; a slab's per-sample size is the
	// largest member's (aliased members occupy the same storage).
	id := map[string]int{}
	m := &OOCModel{Batch: batch}
	for _, name := range n.order {
		b := n.blobs[name]
		per := b.Shape.Bytes() / int64(batch)
		root := find(name)
		if i, ok := id[root]; ok {
			if per > m.Slabs[i].PerSample {
				m.Slabs[i].PerSample = per
			}
			continue
		}
		id[root] = len(m.Slabs)
		m.Slabs = append(m.Slabs, OOCSlab{Name: root, PerSample: per})
	}
	for i := range m.Slabs {
		m.Slabs[i].Full = 2 * m.Slabs[i].PerSample * int64(batch)
	}

	for _, li := range n.layers {
		foot := OOCLayerFoot{
			Name:    li.layer.Name(),
			Out:     id[find(li.top)],
			Barrier: !oocStreams(li.layer),
		}
		seen := map[int]bool{}
		for _, b := range li.bottoms {
			s := id[find(b)]
			if !seen[s] {
				seen[s] = true
				foot.In = append(foot.In, s)
				foot.Slabs = append(foot.Slabs, s)
			}
		}
		if !seen[foot.Out] {
			foot.Slabs = append(foot.Slabs, foot.Out)
		}
		m.Layers = append(m.Layers, foot)
	}
	return m, nil
}

// ActivationBytes is the model's whole-batch activation footprint: the
// sum of every slab's data+gradient storage, each aliased group counted
// once. It equals what Setup charges against the device tracker (the
// in-place no-double-charge regression pins this).
func (m *OOCModel) ActivationBytes() int64 {
	var total int64
	for _, s := range m.Slabs {
		total += s.Full
	}
	return total
}

// Peak is the modeled peak device occupancy of one training pass at the
// given micro-batch size with the given slabs pinned resident: resident
// slabs occupy their full footprint throughout; a streaming layer holds
// one data+gradient window per non-resident touched slab; a barrier
// layer holds its non-resident slabs whole.
func (m *OOCModel) Peak(chunk int, resident map[int]bool) int64 {
	if chunk < 1 {
		chunk = 1
	}
	var base int64
	for i := range m.Slabs {
		if resident[i] {
			base += m.Slabs[i].Full
		}
	}
	peak := base
	for _, f := range m.Layers {
		mem := base
		for _, s := range f.Slabs {
			if resident[s] {
				continue
			}
			if f.Barrier {
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

// oocLadder is the micro-batch size ladder: the batch halved (rounding
// up) down to 1, descending.
func oocLadder(batch int) []int {
	var out []int
	for c := batch; ; c = c / 2 {
		if c < 1 {
			c = 1
		}
		if len(out) == 0 || out[len(out)-1] != c {
			out = append(out, c)
		}
		if c == 1 {
			return out
		}
	}
}

// OOCPlan is the planner's verdict for one model under one budget.
type OOCPlan struct {
	Batch int
	// Chunk is the micro-batch window size; Windows the per-pass count.
	Chunk   int
	Windows int
	// Budget is the blob budget; WSShare is the slice of it the planner
	// left for convolution workspace (a quarter, surrendered entirely if
	// that makes streaming infeasible).
	Budget  int64
	WSShare int64
	// PeakBytes is the modeled peak working set of the plan.
	PeakBytes int64
	// Floor marks the recompute-everything floor: even micro-batch 1 with
	// nothing resident exceeds the budget (barrier slabs alone may do
	// that), so the plan is the finest schedule there is and PeakBytes may
	// legitimately exceed Budget. This is the documented exception to the
	// "no plan exceeds the budget" property.
	Floor bool
	// Resident lists the slab ids pinned resident (ascending).
	Resident []int
}

// PlanOOC picks the coarsest feasible micro-batch size on the halving
// ladder and then greedily pins the largest slabs resident while the
// peak stays within the budget. Pure and deterministic: the property
// suite compares it against brute-force enumeration.
func PlanOOC(m *OOCModel, budget int64) (OOCPlan, error) {
	if budget <= 0 {
		return OOCPlan{}, fmt.Errorf("dnn: blob budget must be positive, got %d", budget)
	}
	if m.Batch < 1 || len(m.Layers) == 0 {
		return OOCPlan{}, fmt.Errorf("dnn: empty OOC model")
	}
	ladder := oocLadder(m.Batch)
	none := map[int]bool{}
	pick := func(limit int64) int {
		for _, c := range ladder {
			if m.Peak(c, none) <= limit {
				return c
			}
		}
		return 0
	}
	plan := OOCPlan{Batch: m.Batch, Budget: budget, WSShare: budget / 4}
	chunk := pick(budget - plan.WSShare)
	if chunk == 0 {
		plan.WSShare = 0
		chunk = pick(budget)
	}
	if chunk == 0 {
		plan.Chunk, plan.Floor = 1, true
		plan.PeakBytes = m.Peak(1, none)
	} else {
		plan.Chunk = chunk
		limit := budget - plan.WSShare
		resident := map[int]bool{}
		order := make([]int, len(m.Slabs))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return m.Slabs[order[a]].Full > m.Slabs[order[b]].Full
		})
		for _, s := range order {
			resident[s] = true
			if m.Peak(chunk, resident) > limit {
				delete(resident, s)
			}
		}
		for s := range resident {
			plan.Resident = append(plan.Resident, s)
		}
		sort.Ints(plan.Resident)
		plan.PeakBytes = m.Peak(chunk, resident)
	}
	plan.Windows = (m.Batch + plan.Chunk - 1) / plan.Chunk
	return plan, nil
}

// OOCReport summarizes one state's execution for harnesses and CLIs.
type OOCReport struct {
	Chunk, Windows int
	Floor          bool
	Degraded       int
	FetchBytes     int64
	SpillBytes     int64
	RecomputeBytes int64
}

// OOCState is the out-of-core executor: it owns the plan, models
// fetch/spill/recompute traffic against the simulated clock, and walks
// the degradation ladder when fault points fire. One state drives one
// network; execution is single-threaded like the Net it serves.
type OOCState struct {
	Plan  OOCPlan
	model *OOCModel

	chunk    int
	floor    bool
	resident map[int]bool
	degraded int
	part     []int // partition of the layer pass being executed

	reg        *obs.Registry
	fetchC     *obs.Counter
	spillC     *obs.Counter
	recomputeC *obs.Counter
	microG     *obs.Gauge
	peakG      *obs.Gauge
}

// NewOOCState builds the executor for a planned model.
func NewOOCState(m *OOCModel, plan OOCPlan) *OOCState {
	o := &OOCState{
		Plan:     plan,
		model:    m,
		chunk:    plan.Chunk,
		floor:    plan.Floor,
		resident: map[int]bool{},
		reg:      obs.NewRegistry(),
	}
	for _, s := range plan.Resident {
		o.resident[s] = true
	}
	o.resolveMetrics()
	o.microG.Set(float64(o.windows()))
	o.peakG.Set(float64(o.model.Peak(o.chunk, o.resident)))
	return o
}

// oocStages are the degradation ladder's stage labels.
var oocStages = []string{"plan", "fetch", "spill"}

// SetMetrics moves the state's ucudnn_ooc_* series into reg, the run's
// registry, carrying over what was counted before (a ladder step
// taken by Net.Setup). Until then they live on a private registry, so Report works
// without one; a nil reg keeps it.
func (o *OOCState) SetMetrics(reg *obs.Registry) {
	if reg == nil || reg == o.reg {
		return
	}
	prev := o.reg
	fetch, spill, recompute := o.fetchC.Value(), o.spillC.Value(), o.recomputeC.Value()
	micro, peak := o.microG.Value(), o.peakG.Value()
	o.reg = reg
	o.resolveMetrics()
	o.fetchC.Add(fetch)
	o.spillC.Add(spill)
	o.recomputeC.Add(recompute)
	o.microG.Set(micro)
	o.peakG.Set(peak)
	for _, stage := range oocStages {
		if n := prev.Counter(MetricOOCDegraded, obs.L("stage", stage)).Value(); n > 0 {
			reg.Counter(MetricOOCDegraded, obs.L("stage", stage)).Add(n)
		}
	}
}

// resolveMetrics points the series handles at o.reg.
func (o *OOCState) resolveMetrics() {
	o.fetchC = o.reg.Counter(MetricOOCFetchBytes)
	o.spillC = o.reg.Counter(MetricOOCSpillBytes)
	o.recomputeC = o.reg.Counter(MetricOOCRecomputeBytes)
	o.microG = o.reg.Gauge(MetricOOCMicroBatches)
	o.peakG = o.reg.Gauge(MetricOOCPeakBytes)
}

// Report summarizes execution so far.
func (o *OOCState) Report() OOCReport {
	return OOCReport{
		Chunk:          o.chunk,
		Windows:        o.windows(),
		Floor:          o.floor,
		Degraded:       o.degraded,
		FetchBytes:     o.fetchC.Value(),
		SpillBytes:     o.spillC.Value(),
		RecomputeBytes: o.recomputeC.Value(),
	}
}

func (o *OOCState) windows() int {
	return (o.model.Batch + o.chunk - 1) / o.chunk
}

// SetupSizes lists the distinct window sizes Setup should register with
// the kernel library: the current chunk and the remainder window, if
// any. Sizes the degradation ladder improvises later are queried lazily
// (the WD optimizer's WR fallback covers unregistered kernels).
func (o *OOCState) SetupSizes() []int {
	sizes := []int{o.chunk}
	if rem := o.model.Batch % o.chunk; rem != 0 {
		sizes = append(sizes, rem)
	}
	return sizes
}

// bind re-derives the footprint model from the network actually being
// executed and checks it matches the probed plan's shape.
func (o *OOCState) bind(n *Net) error {
	m, err := FootprintModel(n)
	if err != nil {
		return err
	}
	if m.Batch != o.model.Batch || len(m.Layers) != len(o.model.Layers) || len(m.Slabs) != len(o.model.Slabs) {
		return fmt.Errorf("dnn: OOC plan was built for a different network (batch %d/%d, layers %d/%d, slabs %d/%d)",
			o.model.Batch, m.Batch, len(o.model.Layers), len(m.Layers), len(o.model.Slabs), len(m.Slabs))
	}
	o.model = m
	return nil
}

// stepLadder takes one degradation step: drop the resident set, then
// halve the micro-batch (repeatable), then the recompute-everything
// floor. Every rung only refines scheduling — arithmetic and window
// ordering stay ascending contiguous, so bits do not move.
func (o *OOCState) stepLadder(stage string) {
	o.degraded++
	o.reg.Counter(MetricOOCDegraded, obs.L("stage", stage)).Inc()
	switch {
	case len(o.resident) > 0:
		o.resident = map[int]bool{}
	case o.chunk > 1:
		o.chunk = (o.chunk + 1) / 2
	default:
		o.floor = true
	}
	o.microG.Set(float64(o.windows()))
	o.peakG.Set(float64(o.model.Peak(o.chunk, o.resident)))
}

// charge models one transfer: the matching counter advances and the
// simulated clock pays a bandwidth-bound kernel on the device stream,
// serially like every other charge.
func (o *OOCState) charge(ctx *Context, c *obs.Counter, cat string, bytes int64) {
	if bytes <= 0 {
		return
	}
	c.Add(bytes)
	ctx.Cudnn.ChargeNamed(ctx.Label(), cat, ctx.Device().MemBoundTime(bytes))
}

// beginLayer models layer i's out-of-core traffic for one pass and
// computes the micro-batch partition its windowed kernels must execute
// (whole-batch for barrier layers). Fault points fire per window:
// a shrunk fetch grant or a failed spill walks the degradation ladder,
// which refines the partition from the next window on.
func (o *OOCState) beginLayer(ctx *Context, i int, backward bool) error {
	if i < 0 || i >= len(o.model.Layers) {
		return fmt.Errorf("dnn: OOC layer index %d out of range", i)
	}
	f := o.model.Layers[i]
	o.part = o.part[:0]

	// Backward moves data and gradient; forward moves data only.
	scale := int64(1)
	if backward {
		scale = 2
	}
	var fetchPer, spillPer int64
	for _, s := range f.In {
		if !o.resident[s] {
			fetchPer += o.model.Slabs[s].PerSample * scale
		}
	}
	if !o.resident[f.Out] {
		spillPer = o.model.Slabs[f.Out].PerSample * scale
	}

	batch := int64(o.model.Batch)
	if f.Barrier {
		// Whole-batch layer: operands transfer whole, no windows.
		o.part = append(o.part, o.model.Batch)
		o.charge(ctx, o.fetchC, "ooc_fetch", fetchPer*batch)
		o.charge(ctx, o.spillC, "ooc_spill", spillPer*batch)
		return nil
	}

	for lo := 0; lo < o.model.Batch; {
		c := o.chunk
		if c > o.model.Batch-lo {
			c = o.model.Batch - lo
		}
		fetch := fetchPer * int64(c)
		if granted := ctx.Cudnn.Faults().Grant(faults.PointOOCFetch, fetch); granted < fetch {
			// Transfer pressure: the window still streams (in more,
			// smaller pieces), and subsequent windows go finer.
			o.stepLadder("fetch")
		}
		o.charge(ctx, o.fetchC, "ooc_fetch", fetch)
		if spill := spillPer * int64(c); spill > 0 {
			if err := ctx.Cudnn.Faults().Err(faults.PointOOCSpill); err != nil {
				// Spill failed: drop the buffer, recompute it when next
				// needed, and degrade.
				o.charge(ctx, o.recomputeC, "ooc_recompute", spill)
				o.stepLadder("spill")
			} else {
				o.charge(ctx, o.spillC, "ooc_spill", spill)
			}
		}
		if o.floor && backward {
			// Recompute-everything floor: backward re-derives its inputs
			// instead of re-fetching spilled activations.
			o.charge(ctx, o.recomputeC, "ooc_recompute", fetchPer*int64(c))
		}
		o.part = append(o.part, c)
		lo += c
	}
	o.microG.Set(float64(len(o.part)))
	return nil
}

// partition is the window partition computed by the last beginLayer:
// ascending contiguous sample counts summing to the batch. Windowed
// layers (Conv) execute exactly this partition.
func (o *OOCState) partition() []int { return o.part }
