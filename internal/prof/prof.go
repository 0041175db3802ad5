// Package prof is the µ-cuDNN per-phase kernel profiler: an
// always-compiled, zero-allocation layer that attributes kernel time to
// the phases inside each convolution algorithm (im2col vs SGEMM,
// Winograd transforms vs element-wise work, forward vs inverse FFT),
// accounts per-worker busy/idle time for every parallel launch so
// stripe load imbalance is a first-class number, and tracks workspace
// high-watermarks per kernel plan.
//
// When profiling is disabled every hook is an atomic load plus a
// branch, and when enabled the hot-path hooks (Enter/Exit/Next, the
// launch and worker hooks) touch only fixed atomic slots — no
// allocation, no locks, //ucudnn:hotpath clean. The warm-path hooks
// (Begin/End around a whole kernel execution, SetLayer from the
// framework layer walk) may take a mutex and allocate; they run once
// per kernel call, not once per tile.
//
// Phase names are compile-time ucudnn_ph_* snake_case constants
// (enforced by the phasename analyzer) registered once at package init:
//
//	const PhGemmSgemm prof.Phase = "ucudnn_ph_gemm_sgemm"
//	var phGemmSgemm = prof.Register(PhGemmSgemm)
//
// Accounting model. A kernel execution (core.Handle.execute) brackets
// with Begin/End: the wall time between them is the kernel's total.
// Inside it, phase windows are recorded per goroutine: a phase timed
// inside a parallel worker contributes its worker-local (occupancy)
// time, a phase timed on the serial path contributes wall time. The
// matching denominator — "measured" kernel time — is therefore the
// per-worker busy time of the kernel's top-level parallel launches plus
// the serial remainder of the kernel wall. Nested launches (a quiet
// SGEMM's inner parallelism inside its caller's phase window) report
// their imbalance but keep their busy time out of the measured total,
// because the phase window around them already recorded that region as
// wall time. A launch whose workers record their own phase windows has
// no such window around it and is top-level.
package prof

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Phase is a profiler phase name. Names are compile-time ucudnn_ph_*
// snake_case constants (enforced by the phasename analyzer), so the
// phase universe is enumerable statically.
type Phase string

// Kind identifies a registered phase; the zero Kind is invalid.
type Kind uint8

// maxKinds bounds the phase universe; registration panics beyond it.
// Every row carries a fixed [maxKinds] accumulator pair, so the bound
// keeps rows small while leaving ample headroom over the ~dozen phases
// the conv algorithms define.
const maxKinds = 64

// maxWorkerSlots bounds the per-worker busy-time slot array; worker
// indices wrap beyond it (every kernel fork is bounded by the one worker
// cap, blas.MaxWorkers, far below).
const maxWorkerSlots = 256

// phaseRe is the naming scheme Register enforces (mirrored by the
// phasename analyzer's compile-time rule).
var phaseRe = regexp.MustCompile(`^ucudnn_ph(_[a-z0-9]+)+$`)

var (
	regMu sync.Mutex
	names []Phase // index Kind-1
)

// Register assigns a Kind to name. It is meant to be called from
// package init functions; it panics on a duplicate or malformed name,
// so a bad registration fails at program start, not at report time.
func Register(name Phase) Kind {
	regMu.Lock()
	defer regMu.Unlock()
	if !phaseRe.MatchString(string(name)) {
		panic(fmt.Sprintf("prof: phase name %q does not match the ucudnn_ph_* snake_case scheme", name))
	}
	for _, n := range names {
		if n == name {
			panic(fmt.Sprintf("prof: phase name %q registered twice", name))
		}
	}
	if len(names) >= maxKinds {
		panic(fmt.Sprintf("prof: too many phases (max %d)", maxKinds))
	}
	names = append(names, name)
	return Kind(len(names))
}

// phaseName returns the registered name of k ("" for unknown kinds).
func phaseName(k Kind) string {
	regMu.Lock()
	defer regMu.Unlock()
	if k < 1 || int(k) > len(names) {
		return ""
	}
	return string(names[k-1])
}

// clockBase anchors the monotonic clock; nanotime readings are offsets
// from it, shifted so a live reading is never the zero "disabled"
// token.
var clockBase = time.Now()

// nanotime returns a monotonic timestamp in nanoseconds (never 0: the
// hooks use 0 as the "profiling was disabled at Enter" token).
//
//ucudnn:hotpath
func nanotime() int64 {
	return int64(time.Since(clockBase)) + 1
}

// on gates every recording hook.
var on atomic.Bool

// Enable turns profiling on.
func Enable() { on.Store(true) }

// Disable turns profiling off; the hooks become an atomic load plus a
// branch.
func Disable() { on.Store(false) }

// Enabled reports whether profiling is on.
func Enabled() bool { return on.Load() }

// row accumulates one (layer, kernel) attribution row. All counters are
// atomic: phase windows and worker hooks fire concurrently from kernel
// workers.
type row struct {
	layer, kernel string

	execs atomic.Int64 // kernel executions (Begin calls)
	total atomic.Int64 // Begin..End wall ns

	phaseNS [maxKinds]atomic.Int64
	phaseN  [maxKinds]atomic.Int64

	launches   atomic.Int64 // top-level parallel launches
	nested     atomic.Int64 // nested parallel launches (imbalance only)
	busyNS     atomic.Int64 // Σ per-worker busy over top-level launches
	idleNS     atomic.Int64 // Σ (workers*wall - busy) over top-level launches
	launchWall atomic.Int64 // Σ wall over top-level launches

	imbMaxMicro atomic.Int64 // max over launches of imbalance * 1e6
	imbSumMicro atomic.Int64 // Σ imbalance * 1e6 (mean = sum / imbN)
	imbN        atomic.Int64

	wsHigh atomic.Int64 // workspace grant high-watermark, bytes
}

var (
	rowMu sync.Mutex
	rows  = map[string]*row{}
	// orphan absorbs phase and launch records made while no kernel is
	// current (framework GEMMs outside conv kernels, direct conv.Run
	// calls in tests). Pre-built so the hot path never allocates.
	orphan = &row{kernel: "(unattributed)"}
	// current is the row of the kernel now executing; kernel executions
	// are serialized by core.Handle.execMu, so a single slot suffices.
	current atomic.Pointer[row]

	layerMu  sync.Mutex
	curLayer string
)

// workerBusy holds per-worker busy nanoseconds between LaunchStart and
// LaunchEnd; top-level and nested launches never overlap in time (the
// engine's parallel paths force the inner SGEMM serial), so one slot
// array serves both.
var workerBusy [maxWorkerSlots]atomic.Int64

// SetLayer names the framework layer whose kernels execute next; Begin
// joins it into the attribution key. The framework layer walk calls it
// around each layer ("" to clear).
func SetLayer(name string) {
	layerMu.Lock()
	curLayer = name
	layerMu.Unlock()
}

// Begin opens a kernel execution attributed to (current layer, kernel)
// and returns its start token (0 when profiling is disabled — End with
// a zero token is a no-op). Warm path: called once per kernel call,
// under core's execution lock.
func Begin(kernel string) int64 {
	if !on.Load() {
		return 0
	}
	layerMu.Lock()
	layer := curLayer
	layerMu.Unlock()
	key := layer + "\x00" + kernel
	rowMu.Lock()
	r, ok := rows[key]
	if !ok {
		r = &row{layer: layer, kernel: kernel}
		rows[key] = r
	}
	rowMu.Unlock()
	r.execs.Add(1)
	current.Store(r)
	return nanotime()
}

// End closes the kernel execution opened by Begin.
func End(start int64) {
	if start != 0 {
		if r := current.Load(); r != nil {
			r.total.Add(nanotime() - start)
		}
	}
	current.Store(nil)
}

// GrantWS records a workspace grant against the current kernel's
// high-watermark.
//
//ucudnn:hotpath
func GrantWS(bytes int64) {
	if !on.Load() {
		return
	}
	r := current.Load()
	if r == nil {
		return
	}
	casMax(&r.wsHigh, bytes)
}

// Enter opens a phase window and returns its start token (0 when
// profiling is disabled).
//
//ucudnn:hotpath
func Enter() int64 {
	if !on.Load() {
		return 0
	}
	return nanotime()
}

// Exit closes a phase window, attributing its elapsed time to phase k
// on the current kernel row. A zero start token is a no-op.
//
//ucudnn:hotpath
func Exit(k Kind, start int64) {
	if start == 0 {
		return
	}
	record(k, nanotime()-start)
}

// Next closes phase k and opens the next phase window with a single
// clock reading, so chained phases tile their region without gaps.
//
//ucudnn:hotpath
func Next(k Kind, start int64) int64 {
	if start == 0 {
		return 0
	}
	now := nanotime()
	record(k, now-start)
	return now
}

//ucudnn:hotpath
func record(k Kind, d int64) {
	if k < 1 || int(k) > maxKinds {
		return
	}
	r := current.Load()
	if r == nil {
		r = orphan
	}
	r.phaseNS[k-1].Add(d)
	r.phaseN[k-1].Add(1)
}

// LaunchStart opens a parallel-launch window (0 when disabled).
//
//ucudnn:hotpath
func LaunchStart() int64 {
	if !on.Load() {
		return 0
	}
	return nanotime()
}

// WorkerStart opens one worker's busy window inside a launch.
//
//ucudnn:hotpath
func WorkerStart() int64 {
	if !on.Load() {
		return 0
	}
	return nanotime()
}

// WorkerEnd accumulates worker w's busy time into its launch slot.
//
//ucudnn:hotpath
func WorkerEnd(w int, start int64) {
	if start == 0 {
		return
	}
	workerBusy[w&(maxWorkerSlots-1)].Add(nanotime() - start)
}

// LaunchEnd closes a top-level parallel launch of the given worker
// count: drains the worker busy slots into the current kernel's
// busy/idle accounting and records the launch's load imbalance
// (max/mean per-worker busy ratio).
//
//ucudnn:hotpath
func LaunchEnd(workers int, start int64) {
	launchEnd(workers, start, false)
}

// LaunchEndNested closes a nested parallel launch (a quiet SGEMM's inner
// parallelism, whose workers record no phases): imbalance is recorded,
// but busy time stays out of the measured total — the caller's enclosing
// phase window already covers this region as wall time.
//
//ucudnn:hotpath
func LaunchEndNested(workers int, start int64) {
	launchEnd(workers, start, true)
}

//ucudnn:hotpath
func launchEnd(workers int, start int64, nested bool) {
	if start == 0 {
		return
	}
	wall := nanotime() - start
	n := workers
	if n > maxWorkerSlots {
		n = maxWorkerSlots
	}
	var sum, max int64
	for w := 0; w < n; w++ {
		b := workerBusy[w].Swap(0)
		sum += b
		if b > max {
			max = b
		}
	}
	r := current.Load()
	if r == nil {
		r = orphan
	}
	imb := 1.0
	if sum > 0 {
		imb = float64(max) * float64(workers) / float64(sum)
	}
	imbMicro := int64(imb * 1e6)
	if nested {
		r.nested.Add(1)
	} else {
		r.launches.Add(1)
		r.busyNS.Add(sum)
		idle := int64(workers)*wall - sum
		if idle < 0 {
			idle = 0
		}
		r.idleNS.Add(idle)
		r.launchWall.Add(wall)
	}
	casMax(&r.imbMaxMicro, imbMicro)
	r.imbSumMicro.Add(imbMicro)
	r.imbN.Add(1)
}

//ucudnn:hotpath
func casMax(v *atomic.Int64, x int64) {
	for {
		old := v.Load()
		if x <= old || v.CompareAndSwap(old, x) {
			return
		}
	}
}

// Reset discards every accumulated row (tests; the snapshot readers
// tolerate concurrent recording, so Reset during a run merely drops
// in-flight attributions).
func Reset() {
	rowMu.Lock()
	rows = map[string]*row{}
	rowMu.Unlock()
	current.Store(nil)
	zeroRow(orphan)
	for i := range workerBusy {
		workerBusy[i].Store(0)
	}
}

func zeroRow(r *row) {
	r.execs.Store(0)
	r.total.Store(0)
	for i := range r.phaseNS {
		r.phaseNS[i].Store(0)
		r.phaseN[i].Store(0)
	}
	r.launches.Store(0)
	r.nested.Store(0)
	r.busyNS.Store(0)
	r.idleNS.Store(0)
	r.launchWall.Store(0)
	r.imbMaxMicro.Store(0)
	r.imbSumMicro.Store(0)
	r.imbN.Store(0)
	r.wsHigh.Store(0)
}

// PhaseSnap is one phase's share of a row.
type PhaseSnap struct {
	Phase string `json:"phase"`
	NS    int64  `json:"ns"`
	Count int64  `json:"count"`
}

// RowSnap is one (layer, kernel) attribution row, as read by Snapshot.
type RowSnap struct {
	// Layer is the framework layer name ("" outside a layer walk);
	// Kernel is the kernel identity string ("(unattributed)" for
	// records made outside any kernel execution).
	Layer  string `json:"layer"`
	Kernel string `json:"kernel"`
	// Executions counts Begin/End brackets; TotalNS is their wall sum.
	Executions int64 `json:"executions"`
	TotalNS    int64 `json:"total_ns"`
	// AttributedNS is the sum over phases; MeasuredNS is the occupancy
	// denominator (launch busy + serial remainder of the wall);
	// Coverage is their ratio.
	AttributedNS int64   `json:"attributed_ns"`
	MeasuredNS   int64   `json:"measured_ns"`
	Coverage     float64 `json:"coverage"`
	// Phases lists the row's nonzero phases, heaviest first.
	Phases  []PhaseSnap `json:"phases"`
	Workers WorkerSnap  `json:"workers"`
	// WSHighWaterBytes is the largest workspace grant the row's kernel
	// executions actually received.
	WSHighWaterBytes int64 `json:"ws_high_water_bytes"`
}

// WorkerSnap is a row's worker-utilization accounting: top-level
// launches contribute busy/idle; nested launches contribute imbalance
// only.
type WorkerSnap struct {
	Launches       int64 `json:"launches"`
	NestedLaunches int64 `json:"nested_launches,omitempty"`
	BusyNS         int64 `json:"busy_ns"`
	IdleNS         int64 `json:"idle_ns"`
	// MeanBusyRatio is busy/(busy+idle) over top-level launches;
	// Max/MeanImbalance are the max-over-mean per-worker busy ratios
	// (1.0 = perfectly balanced stripes) over every launch.
	MeanBusyRatio float64 `json:"mean_busy_ratio"`
	MaxImbalance  float64 `json:"max_imbalance"`
	MeanImbalance float64 `json:"mean_imbalance"`
}

// used reports whether the row recorded anything.
func (r *row) used() bool {
	if r.execs.Load() != 0 || r.launches.Load() != 0 || r.nested.Load() != 0 {
		return true
	}
	for i := range r.phaseN {
		if r.phaseN[i].Load() != 0 {
			return true
		}
	}
	return false
}

func (r *row) snap() RowSnap {
	s := RowSnap{
		Layer:      r.layer,
		Kernel:     r.kernel,
		Executions: r.execs.Load(),
		TotalNS:    r.total.Load(),
		Workers: WorkerSnap{
			Launches:       r.launches.Load(),
			NestedLaunches: r.nested.Load(),
			BusyNS:         r.busyNS.Load(),
			IdleNS:         r.idleNS.Load(),
		},
		WSHighWaterBytes: r.wsHigh.Load(),
	}
	w := &s.Workers
	for i := range r.phaseNS {
		ns, n := r.phaseNS[i].Load(), r.phaseN[i].Load()
		if n == 0 && ns == 0 {
			continue
		}
		s.Phases = append(s.Phases, PhaseSnap{Phase: phaseName(Kind(i + 1)), NS: ns, Count: n})
		s.AttributedNS += ns
	}
	sort.Slice(s.Phases, func(a, b int) bool {
		if s.Phases[a].NS != s.Phases[b].NS {
			return s.Phases[a].NS > s.Phases[b].NS
		}
		return s.Phases[a].Phase < s.Phases[b].Phase
	})
	serial := s.TotalNS - r.launchWall.Load()
	if serial < 0 {
		serial = 0
	}
	s.MeasuredNS = w.BusyNS + serial
	if s.MeasuredNS > 0 {
		s.Coverage = float64(s.AttributedNS) / float64(s.MeasuredNS)
	}
	if tot := w.BusyNS + w.IdleNS; tot > 0 {
		w.MeanBusyRatio = float64(w.BusyNS) / float64(tot)
	}
	w.MaxImbalance = float64(r.imbMaxMicro.Load()) * 1e-6
	if n := r.imbN.Load(); n > 0 {
		w.MeanImbalance = float64(r.imbSumMicro.Load()) / float64(n) * 1e-6
	}
	return s
}

// Snapshot returns every attribution row, sorted by (layer, kernel),
// with the unattributed row (if any) last.
func Snapshot() []RowSnap {
	rowMu.Lock()
	rs := make([]*row, 0, len(rows))
	for _, r := range rows {
		rs = append(rs, r)
	}
	rowMu.Unlock()
	out := make([]RowSnap, 0, len(rs)+1)
	for _, r := range rs {
		out = append(out, r.snap())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Layer != out[j].Layer {
			return out[i].Layer < out[j].Layer
		}
		return out[i].Kernel < out[j].Kernel
	})
	if orphan.used() {
		out = append(out, orphan.snap())
	}
	return out
}
