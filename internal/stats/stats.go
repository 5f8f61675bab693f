// Package stats provides the small statistical utilities the simulator
// and evaluation harness need: means, geometric means, percentage errors
// and percentiles.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by aggregations over empty inputs.
var ErrEmpty = errors.New("stats: empty input")

// ApproxEqual is the repository's documented float comparator: it
// reports whether a and b agree to within eps, absolutely for values
// near zero and relatively otherwise. Code outside epsilon helpers must
// not compare floats with == or != (enforced by mpclint's float-eq
// check); route tolerance decisions through this function so every
// caller breaks ties the same way.
func ApproxEqual(a, b, eps float64) bool {
	if a == b {
		return true // covers infinities and exact ties
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale <= 1 {
		return diff <= eps
	}
	return diff <= eps*scale
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All inputs must be positive;
// non-positive values make the result NaN.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// MinMax returns the smallest and largest values in xs. It returns
// ErrEmpty for empty input.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// AbsPctErr returns |pred-actual|/|actual| as a fraction. A zero actual
// with nonzero pred yields +Inf; zero/zero yields 0.
func AbsPctErr(pred, actual float64) float64 {
	if actual == 0 {
		if pred == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(pred-actual) / math.Abs(actual)
}

// MAPE returns the mean absolute percentage error (as a fraction) between
// predictions and actuals. It returns ErrEmpty if the slices are empty and
// panics if their lengths differ.
func MAPE(pred, actual []float64) (float64, error) {
	if len(pred) != len(actual) {
		panic("stats: MAPE length mismatch")
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for i := range pred {
		s += AbsPctErr(pred[i], actual[i])
	}
	return s / float64(len(pred)), nil
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns ErrEmpty for empty
// input.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0], nil
	}
	if p >= 100 {
		return sorted[len(sorted)-1], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
