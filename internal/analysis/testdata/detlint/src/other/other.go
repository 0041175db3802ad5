// Package other is outside the detlint scope (its path leaf is not one
// of conv/core/ilp): nothing here is flagged.
package other

import "time"

func sumScores(scores map[int]float64) float64 {
	var total float64
	for _, v := range scores {
		total += v
	}
	return total
}

func stamp() time.Time { return time.Now() }
