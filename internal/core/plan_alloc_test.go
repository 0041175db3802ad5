package core_test

import (
	"runtime"
	"testing"

	"ucudnn/internal/bench"
	"ucudnn/internal/conv"
	"ucudnn/internal/device"
)

// A cold WD plan cycle allocates only what it keeps. The cycle is the
// end-to-end benchmark's densenet_plan instance (bench.DenseNetPlan:
// DenseNet-40 at N=8 set up on a model-only handle under a 32 MiB WD
// budget, then the desirable sets and the ILP): a model-only handle
// backs no workspace arena, the desirable-set DP materialises only the
// final fronts, and a memory-only cache formats no keys. Measured at
// about 3,700 objects and 0.75 MiB per cycle; before those changes it
// took about 27,800 objects and 4.2 MiB.
func TestColdDenseNetPlanAllocs(t *testing.T) {
	const maxObjects, maxBytes = 6000, 3 << 19 // 1.5 MiB
	defer conv.SetMaxWorkers(conv.SetMaxWorkers(2))
	plan := func() {
		if _, err := bench.DenseNetPlan(device.P100); err != nil {
			t.Fatal(err)
		}
	}
	if objects := testing.AllocsPerRun(10, plan); objects > maxObjects {
		t.Errorf("a cold plan cycle allocates %v objects, want <= %d", objects, maxObjects)
	}
	const runs = 10
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		plan()
	}
	runtime.ReadMemStats(&m1)
	if bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs; bytes > maxBytes {
		t.Errorf("a cold plan cycle allocates %d bytes, want <= %d", bytes, maxBytes)
	}
}
