// Package causal is the µ-cuDNN unified causal timeline: it joins the
// spans a trace.Recorder recorded — kernel and out-of-core charges,
// layer and iteration brackets, fault annotations — with the recorder's
// scope log into one tree (iteration → layer → convolution call →
// micro-batch kernel), exports it and validates it.
//
// The correlation itself (span IDs, the open-scope stack, the scope
// log) belongs to the recorder a run attaches to its handle and
// context, so this package holds no state. Recorded IDs are
// allocation-ordered and therefore execution-ordered, but exported
// timelines never depend on the raw values: Build renumbers spans
// canonically (scopes in recorded order, events in sorted order), which
// is what makes the exported timeline byte-identical across worker
// counts and profiling on/off.
package causal

// Enable, Disable and Reset do nothing: scope recording is on exactly
// while a trace.Recorder is attached, and each recorder starts with an
// empty log. They remain only because the benchmark harness
// (benchmarks/e2e) still calls them.
func Enable() {}

// Disable does nothing; see Enable.
func Disable() {}

// Reset does nothing; see Enable.
func Reset() {}
