// Package causal is the µ-cuDNN trace-correlation layer: it assigns
// span/parent identifiers to every recorded unit of work so the
// telemetry surfaces — trace spans and the out-of-core schedule model —
// stop being disconnected silos and become one causal timeline
// (iteration → layer → convolution call → micro-batch kernel).
//
// The correlation state is a process-global scope stack, mirroring how
// prof.SetLayer threads the layer name: the framework's layer walk and
// the kernel library's execute path are serialized (Net execution is
// single-threaded; core.Handle.execute holds execMu), so one stack
// suffices. Begin/End are warm-path (a mutex once per layer or kernel
// call); Current and NewLeaf are hot-path (one atomic word), so every
// recorded span is stamped with its enclosing scope without taking a
// lock.
//
// Identifiers are allocation-ordered and therefore execution-ordered,
// but exported timelines never depend on the raw values: Build
// renumbers spans canonically (scopes in recorded order, events in
// sorted order), which is what makes the exported timeline byte-
// identical across worker counts and profiling on/off.
package causal

import (
	"sync"
	"sync/atomic"
)

// ID identifies one span (a scope or a leaf event) within a recording.
// The zero ID means "no span" (recording disabled, or no enclosing
// scope).
type ID uint64

// Scope kinds, outermost first. Kinds are plain strings so the timeline
// schema stays self-describing.
const (
	// KindIteration brackets one forward+backward pass.
	KindIteration = "iteration"
	// KindLayer brackets one layer's forward or backward execution.
	KindLayer = "layer"
	// KindConv brackets one convolution call (core.Handle.execute); its
	// children are the micro-batch kernel spans of the plan.
	KindConv = "conv"
)

// Scope is one recorded non-leaf span: a correlation node that may not
// itself appear on the device timeline (a convolution call has no
// charge of its own — its micro-batch kernels do).
type Scope struct {
	ID     ID     `json:"id"`
	Parent ID     `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
}

// Token is the handle Begin returns; End restores the previous scope.
// The zero Token (recording disabled) is safe to End.
type Token struct {
	// ID is the scope's span identifier; Parent the enclosing scope's.
	ID, Parent ID
}

var (
	enabled atomic.Bool
	next    atomic.Uint64
	cur     atomic.Uint64 // innermost open scope, hot-path readable

	mu     sync.Mutex
	scopes []Scope
)

// Enable turns scope recording on (the CLIs do this around the traced
// iterations; the hot-path hooks stay one atomic check when off).
func Enable() { enabled.Store(true) }

// Disable turns recording off. The scope log is kept until Reset so a
// timeline can still be built after the traced window closes.
func Disable() { enabled.Store(false) }

// Enabled reports whether recording is on.
func Enabled() bool { return enabled.Load() }

// Reset clears the scope log, the ID counter and the current scope.
func Reset() {
	mu.Lock()
	scopes = nil
	mu.Unlock()
	next.Store(0)
	cur.Store(0)
}

// Begin opens a scope under the current one and makes it current.
// A no-op returning the zero Token when recording is disabled.
func Begin(kind, name string) Token {
	if !enabled.Load() {
		return Token{}
	}
	mu.Lock()
	id := ID(next.Add(1))
	parent := ID(cur.Load())
	scopes = append(scopes, Scope{ID: id, Parent: parent, Kind: kind, Name: name})
	cur.Store(uint64(id))
	mu.Unlock()
	return Token{ID: id, Parent: parent}
}

// End closes the scope opened by Begin, restoring its parent as the
// current scope. Ending the zero Token is a no-op.
func End(t Token) {
	if t.ID == 0 {
		return
	}
	cur.Store(uint64(t.Parent))
}

// Current returns the innermost open scope's ID (0 when none, or when
// recording is disabled). Hot-path: one atomic load.
func Current() ID {
	if !enabled.Load() {
		return 0
	}
	return ID(cur.Load())
}

// NewLeaf allocates an ID for a leaf event (a timeline charge). Leaves
// share the scope ID space so every identifier in a recording is
// unique. Hot-path: one atomic add. Returns 0 when disabled.
func NewLeaf() ID {
	if !enabled.Load() {
		return 0
	}
	return ID(next.Add(1))
}

// Scopes returns a snapshot of the recorded scope log, in recording
// (execution) order.
func Scopes() []Scope {
	mu.Lock()
	defer mu.Unlock()
	return append([]Scope(nil), scopes...)
}
