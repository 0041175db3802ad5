//go:build !race

package prof

const RaceEnabled = false
