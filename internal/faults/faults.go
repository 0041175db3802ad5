// Package faults is a deterministic, seedable fault-injection registry
// for exercising µ-cuDNN's degradation paths without real hardware
// failures. Code under test declares named injection points (the
// Point constants below); a test or CLI arms a Registry with one
// rule per point and attaches it to the run's cuDNN handle
// (cudnn.Handle.SetFaults). Each injection site consults the registry
// of the run it serves through its methods (Err, Hit, Grant, Mangle),
// which are safe on a nil *Registry: a run with none attached pays one
// nil check per site.
//
// Every trigger is deterministic given its rule (probability triggers
// carry their own seed), and a Registry's canonical String() form
// round-trips through Parse, so any observed failure schedule can be
// replayed exactly from the printed spec alone.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"ucudnn/internal/obs"
)

// Point names one injection site threaded through the stack. The set is
// closed: call sites name one of the constants below, and Parse resolves
// a spec's ucudnn_fp_* names through the same table, so neither can name
// a site that does not exist.
type Point uint8

// The injection points wired through the µ-cuDNN stack.
const (
	// PointConvolve fails cudnn.Handle.Convolve at entry, simulating a
	// CUDNN_STATUS_EXECUTION_FAILED return.
	PointConvolve Point = iota
	// PointFind drops one algorithm candidate from cudnn.Handle.AlgoPerfs,
	// simulating a failed Find* benchmark entry.
	PointFind
	// PointArenaGrow shrinks (or denies) core.Handle workspace-arena
	// growth, simulating a failed or partial device allocation.
	PointArenaGrow
	// PointDnnWorkspace shrinks (or denies) dnn.Context.Workspace grants,
	// simulating framework-side workspace pressure.
	PointDnnWorkspace
	// PointCacheLoad corrupts one line of the benchmark-cache file as it
	// is read, exercising the tolerant cache loader.
	PointCacheLoad
	// PointOOCFetch shrinks (or denies) an out-of-core micro-batch fetch,
	// simulating transfer pressure; the OOC executor degrades to finer
	// micro-batches.
	PointOOCFetch
	// PointOOCSpill fails an out-of-core activation spill; the executor
	// drops the buffer, marks it for recompute and degrades.
	PointOOCSpill
	// PointOOCPlan steps the out-of-core executor one rung finer than the
	// memory model requires when the network is set up (conservative
	// planning under an unreliable allocator).
	PointOOCPlan
)

// pointNames are the spec names Parse reads and String renders.
var pointNames = [...]string{
	PointConvolve:     "ucudnn_fp_convolve",
	PointFind:         "ucudnn_fp_find",
	PointArenaGrow:    "ucudnn_fp_arena_grow",
	PointDnnWorkspace: "ucudnn_fp_dnn_workspace",
	PointCacheLoad:    "ucudnn_fp_cache_load",
	PointOOCFetch:     "ucudnn_fp_ooc_fetch",
	PointOOCSpill:     "ucudnn_fp_ooc_spill",
	PointOOCPlan:      "ucudnn_fp_ooc_plan",
}

// String returns the point's spec name.
func (p Point) String() string { return pointNames[p] }

// MetricFaultInjected counts fired injections, labeled by point.
const MetricFaultInjected = "ucudnn_fault_injected_total"

// TriggerKind selects a trigger policy.
type TriggerKind int

const (
	// NthKind fires on exactly the N-th evaluation (1-based).
	NthKind TriggerKind = iota
	// EveryKind fires on every N-th evaluation.
	EveryKind
	// ProbKind fires with probability P, drawn from a stream seeded with
	// Seed — deterministic across runs.
	ProbKind
)

// Trigger is a deterministic firing policy.
type Trigger struct {
	Kind TriggerKind
	N    int64
	P    float64
	Seed int64
}

// Nth fires on exactly the n-th evaluation (1-based).
func Nth(n int64) Trigger { return Trigger{Kind: NthKind, N: n} }

// EveryK fires on every k-th evaluation.
func EveryK(k int64) Trigger { return Trigger{Kind: EveryKind, N: k} }

// Prob fires with probability p from a stream seeded with seed.
func Prob(p float64, seed int64) Trigger { return Trigger{Kind: ProbKind, P: p, Seed: seed} }

// String returns the canonical spec form of the trigger.
func (t Trigger) String() string {
	switch t.Kind {
	case NthKind:
		return "nth:" + strconv.FormatInt(t.N, 10)
	case EveryKind:
		return "every:" + strconv.FormatInt(t.N, 10)
	case ProbKind:
		return "prob:" + strconv.FormatFloat(t.P, 'g', -1, 64) + ":" + strconv.FormatInt(t.Seed, 10)
	}
	return fmt.Sprintf("trigger(%d)", int(t.Kind))
}

// Rule arms one injection point. Shrink only applies to grant-shaped
// points (PointArenaGrow, PointDnnWorkspace): a fired rule divides the
// requested byte count by Shrink (a budget-shrink schedule); Shrink <= 1
// denies the grant outright. Error- and corruption-shaped points ignore
// it.
type Rule struct {
	Point   Point
	Trigger Trigger
	Shrink  int64
}

// String returns the canonical spec form of the rule.
func (r Rule) String() string {
	s := r.Point.String() + "=" + r.Trigger.String()
	if r.Shrink > 0 {
		s += ",shrink=" + strconv.FormatInt(r.Shrink, 10)
	}
	return s
}

// Shot records one fired injection: which point, on which evaluation
// (1-based per-point call count), and the effect applied.
type Shot struct {
	Point  Point
	Call   int64
	Effect string
}

func (s Shot) String() string {
	return fmt.Sprintf("%s@%d(%s)", s.Point, s.Call, s.Effect)
}

// armed is one rule's live evaluation state.
type armed struct {
	rule  Rule
	calls int64
	rng   *rand.Rand // ProbKind only
}

func (a *armed) eval() bool {
	t := a.rule.Trigger
	switch t.Kind {
	case NthKind:
		return a.calls == t.N
	case EveryKind:
		return t.N > 0 && a.calls%t.N == 0
	case ProbKind:
		return a.rng.Float64() < t.P
	}
	return false
}

// Registry holds armed rules (at most one per point; arming a point
// again replaces its rule) and the log of fired shots. It is safe for
// concurrent use. A nil *Registry is a schedule with nothing armed:
// every method but Arm accepts it, and no point fires.
type Registry struct {
	mu    sync.Mutex
	rules map[Point]*armed
	order []Point
	shots []Shot
	reg   *obs.Registry
}

// New builds a registry armed with the given rules.
func New(rules ...Rule) *Registry {
	r := &Registry{rules: map[Point]*armed{}}
	for _, rule := range rules {
		r.Arm(rule)
	}
	return r
}

// Arm installs (or replaces) the rule for rule.Point, resetting its call
// count.
func (r *Registry) Arm(rule Rule) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.rules[rule.Point]; !ok {
		r.order = append(r.order, rule.Point)
	}
	a := &armed{rule: rule}
	if rule.Trigger.Kind == ProbKind {
		a.rng = rand.New(rand.NewSource(rule.Trigger.Seed))
	}
	r.rules[rule.Point] = a
}

// SetMetrics mirrors fired injections into reg as
// ucudnn_fault_injected_total{point=...}. Nil disables.
func (r *Registry) SetMetrics(reg *obs.Registry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reg = reg
}

// String returns the canonical spec of the armed rules; Parse of the
// result reconstructs an equivalent registry (call counts reset).
func (r *Registry) String() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parts := make([]string, 0, len(r.order))
	for _, p := range r.order {
		parts = append(parts, r.rules[p].rule.String())
	}
	return strings.Join(parts, ";")
}

// Shots returns a copy of the fired-shot log in firing order.
func (r *Registry) Shots() []Shot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Shot(nil), r.shots...)
}

// ShotLog returns the fired-shot log as one compact line.
func (r *Registry) ShotLog() string {
	shots := r.Shots()
	parts := make([]string, len(shots))
	for i, s := range shots {
		parts[i] = s.String()
	}
	return strings.Join(parts, ";")
}

// fire evaluates point p's rule; when it fires, it logs a shot with the
// given effect ("error", "skip", "deny" or "corrupt"; a "deny" whose
// rule shrinks logs "shrink:d" instead) and counts it into the metrics
// registry. It returns the 1-based call count, the rule's Shrink divisor
// and whether it fired. A nil registry, or one with no rule for p, never
// fires.
func (r *Registry) fire(p Point, effect string) (call, shrink int64, fired bool) {
	if r == nil {
		return 0, 0, false
	}
	r.mu.Lock()
	a := r.rules[p]
	if a == nil {
		r.mu.Unlock()
		return 0, 0, false
	}
	a.calls++
	call, shrink = a.calls, a.rule.Shrink
	if !a.eval() {
		r.mu.Unlock()
		return call, shrink, false
	}
	if effect == "deny" && shrink > 1 {
		effect = "shrink:" + strconv.FormatInt(shrink, 10)
	}
	r.shots = append(r.shots, Shot{Point: p, Call: call, Effect: effect})
	reg := r.reg
	r.mu.Unlock()
	if reg != nil {
		reg.Counter(MetricFaultInjected, obs.L("point", p.String())).Inc()
	}
	return call, shrink, true
}

// InjectedError is the error returned by fired error-shaped points.
// Callers can detect injected (vs organic) failures with errors.As.
type InjectedError struct {
	Point Point
	Call  int64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected failure at %s (call %d)", e.Point, e.Call)
}

// IsInjected reports whether err wraps an InjectedError anywhere in its
// chain — the test harness uses it to tell injected failures apart from
// organic ones when a degraded execution still surfaces an error.
func IsInjected(err error) bool {
	var inj *InjectedError
	return errors.As(err, &inj)
}

// Err returns an injected error when p's rule fires, nil otherwise.
func (r *Registry) Err(p Point) error {
	if call, _, fired := r.fire(p, "error"); fired {
		return &InjectedError{Point: p, Call: call}
	}
	return nil
}

// Hit reports whether p's rule fired on this evaluation.
func (r *Registry) Hit(p Point) bool {
	_, _, fired := r.fire(p, "skip")
	return fired
}

// Grant filters a byte-count request through p's rule: when it fires
// with Shrink > 1 the request is divided by Shrink, otherwise the grant
// is denied (0 bytes).
func (r *Registry) Grant(p Point, bytes int64) int64 {
	_, shrink, fired := r.fire(p, "deny")
	switch {
	case !fired:
		return bytes
	case shrink > 1:
		return bytes / shrink
	}
	return 0
}

// Mangle corrupts data when p's rule fires (returning a mangled copy;
// the input is never modified), and returns data unchanged otherwise.
func (r *Registry) Mangle(p Point, data []byte) []byte {
	if _, _, fired := r.fire(p, "corrupt"); !fired {
		return data
	}
	out := make([]byte, 0, len(data)+9)
	out = append(out, "\x00corrupt "...)
	return append(out, data...)
}

// Parse reconstructs a registry from its canonical String() spec:
//
//	spec    := rule (';' rule)*
//	rule    := point '=' trigger [',shrink=' int]
//	trigger := 'nth:' int | 'every:' int | 'prob:' float ':' seed
//
// Point names must be declared points (see Point). An empty spec yields
// an empty (armed-with-nothing) registry.
func Parse(spec string) (*Registry, error) {
	r := New()
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return r, nil
	}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rule, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		r.Arm(rule)
	}
	return r, nil
}

func parseRule(s string) (Rule, error) {
	eq := strings.Index(s, "=")
	if eq < 0 {
		return Rule{}, fmt.Errorf("faults: rule %q missing '='", s)
	}
	point, err := parsePoint(strings.TrimSpace(s[:eq]))
	if err != nil {
		return Rule{}, err
	}
	rule := Rule{Point: point}
	rest := s[eq+1:]
	trigSpec := rest
	if comma := strings.Index(rest, ","); comma >= 0 {
		trigSpec = rest[:comma]
		for _, opt := range strings.Split(rest[comma+1:], ",") {
			opt = strings.TrimSpace(opt)
			val, ok := strings.CutPrefix(opt, "shrink=")
			if !ok {
				return Rule{}, fmt.Errorf("faults: rule %q has unknown option %q", s, opt)
			}
			d, err := strconv.ParseInt(val, 10, 64)
			if err != nil || d < 2 {
				return Rule{}, fmt.Errorf("faults: rule %q shrink divisor must be an integer >= 2", s)
			}
			rule.Shrink = d
		}
	}
	trig, err := parseTrigger(strings.TrimSpace(trigSpec))
	if err != nil {
		return Rule{}, fmt.Errorf("faults: rule %q: %w", s, err)
	}
	rule.Trigger = trig
	return rule, nil
}

func parsePoint(name string) (Point, error) {
	for p, n := range pointNames {
		if n == name {
			return Point(p), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown point %q (valid: %s)", name, strings.Join(pointNames[:], ", "))
}

func parseTrigger(s string) (Trigger, error) {
	fields := strings.Split(s, ":")
	switch fields[0] {
	case "nth", "every":
		if len(fields) != 2 {
			return Trigger{}, fmt.Errorf("trigger %q wants one integer argument", s)
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || n < 1 {
			return Trigger{}, fmt.Errorf("trigger %q argument must be a positive integer", s)
		}
		if fields[0] == "nth" {
			return Nth(n), nil
		}
		return EveryK(n), nil
	case "prob":
		if len(fields) != 3 {
			return Trigger{}, fmt.Errorf("trigger %q wants probability and seed", s)
		}
		p, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || p < 0 || p > 1 {
			return Trigger{}, fmt.Errorf("trigger %q probability must be in [0, 1]", s)
		}
		seed, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return Trigger{}, fmt.Errorf("trigger %q seed must be an integer", s)
		}
		return Prob(p, seed), nil
	}
	return Trigger{}, fmt.Errorf("trigger %q has unknown kind (want nth, every or prob)", s)
}
