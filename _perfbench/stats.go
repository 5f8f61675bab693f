package main

import (
	"math"
	"sort"
)

// minTail is the fewest samples that must lie beyond a reported tail
// percentile for it to count as measured rather than as the sample's
// extreme.
const minTail = 10

// percentile is one nearest-rank percentile of a latency sample.
type percentile struct {
	Want   float64 // requested percentile, in (0, 100]
	At     float64 // percentile actually reported (differs from Want when clamped)
	Value  float64 // the sample at rank ceil(At/100 · N)
	N      int     // sample count
	Beyond int     // samples ranked above Value
	// Clamped is set when fewer than minTail samples lay beyond Want:
	// Value is then the highest rank that still has minTail samples
	// beyond it, and At says which percentile that is.
	Clamped bool
	// Supported is false when N <= minTail: no rank has minTail samples
	// beyond it, and Value is the unclamped nearest-rank sample.
	Supported bool
}

// nearestRank returns the p-th percentile of sorted (ascending) by the
// nearest-rank method: the smallest sample with at least p% of the
// samples at or below it. When fewer than minTail samples would lie
// beyond it, the percentile is clamped down to the highest rank that
// keeps minTail beyond (Clamped); with minTail or fewer samples in all,
// the unclamped nearest rank is reported and Supported is false. An
// empty sample reports zero with N = 0.
func nearestRank(sorted []float64, p float64) percentile {
	n := len(sorted)
	out := percentile{Want: p, At: p, N: n}
	if n == 0 {
		return out
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	out.Supported = n > minTail
	if out.Supported && n-rank < minTail {
		rank = n - minTail
		out.Clamped = true
		out.At = 100 * float64(rank) / float64(n)
	}
	out.Value = sorted[rank-1]
	out.Beyond = n - rank
	return out
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank 50th percentile of xs (0 for no samples).
func median(xs []float64) float64 {
	return nearestRank(sortedCopy(xs), 50).Value
}
