package blas

import (
	"sync/atomic"
	"testing"
)

// Fork hands every index of [0, n) to exactly one worker, and starts only
// workers that get work: no worker sees an empty range when n > 0 (an
// empty one would count as an idle worker in the launch's accounting).
func TestForkCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 3, 5, 6, 100} {
		for workers := 1; workers <= 5; workers++ {
			hits := make([]int32, n)
			var empty atomic.Int32
			var seen [5]atomic.Int32
			Fork(workers, n, func(w, lo, hi int) {
				if n > 0 && lo == hi {
					empty.Add(1)
				}
				seen[w].Add(1)
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d hit %d times", n, workers, i, h)
				}
			}
			if e := empty.Load(); e != 0 {
				t.Errorf("n=%d workers=%d: %d workers got an empty range", n, workers, e)
			}
			for w := range seen {
				if s := seen[w].Load(); s > 1 {
					t.Errorf("n=%d workers=%d: worker %d ran %d times", n, workers, w, s)
				}
			}
		}
	}
}
