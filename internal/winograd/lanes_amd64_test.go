package winograd

import "testing"

// TestLanesGenericTwinMatchesOracle reruns the bit contract with the AVX
// kernel switched off: the pure-Go twin (what every other architecture
// runs) against the same per-tile oracle, so AVX and twin agree through it.
func TestLanesGenericTwinMatchesOracle(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX: TestLanesMatchPerTileOracle already ran the twin")
	}
	useAVX = false
	defer func() { useAVX = true }()
	checkLanesMatchOracle(t)
}
