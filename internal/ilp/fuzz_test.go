package ilp

import "testing"

// FuzzILP decodes small multiple-choice knapsacks from fuzz input and
// runs the branch-and-bound solver against exhaustive enumeration:
// feasibility and cost must agree, and the selection must be one
// in-range item per class whose weight fits the budget.
func FuzzILP(f *testing.F) {
	// A WD-shaped seed (three Pareto-front classes under a binding
	// budget), an infeasible one, and one at 2^40-byte / 2^42-ns
	// magnitudes with an LP-dominated item and a budget one byte short.
	f.Add([]byte{2, 20, 0, 0, 0, 0, 2, 30, 0, 12, 8, 5, 16, 1, 25, 0, 9, 6, 2, 40, 0, 33, 3, 21, 10})
	f.Add([]byte{1, 3, 0, 0, 0, 0, 0, 5, 4, 1, 9, 2, 7, 3})
	f.Add([]byte{1, 14, 0, 32, 34, 1, 2, 200, 0, 104, 5, 0, 10, 1, 150, 0, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := decodeProblem(data)
		if !ok {
			return
		}
		checkAgainstOracle(t, p)
	})
}

// decodeProblem builds a bounded instance from raw fuzz bytes: a header
// of class count, 16-bit budget, weight and cost shifts (magnitudes up to
// 255<<32 bytes and 255<<34 ns) and a one-byte-under flag, then per class
// an item count and (cost, weight) byte pairs. At most 6 classes of 5.
func decodeProblem(data []byte) (*Problem, bool) {
	if len(data) < 6 {
		return nil, false
	}
	classes := 1 + int(data[0])%6
	shiftW, shiftC := uint(data[3])%33, uint(data[4])%35
	p := &Problem{Budget: (int64(data[1])|int64(data[2])<<8)<<shiftW - int64(data[5]%2)}
	pos := 6
	for c := 0; c < classes; c++ {
		if pos >= len(data) {
			return nil, false
		}
		n := 1 + int(data[pos])%5
		pos++
		if pos+2*n > len(data) {
			return nil, false
		}
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Cost: int64(data[pos]) << shiftC, Weight: int64(data[pos+1]) << shiftW}
			pos += 2
		}
		p.Classes = append(p.Classes, items)
	}
	return p, true
}
