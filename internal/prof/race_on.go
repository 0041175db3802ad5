//go:build race

package prof

// RaceEnabled reports whether the race detector is compiled in. Its
// instrumentation inflates the unphased serial dispatch around a kernel
// far more than the phased compute inside it, so tests that hold a row's
// Coverage to a wall-clock bar skip that bar (and only that) under it.
const RaceEnabled = true
