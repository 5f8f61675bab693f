package core

import (
	"cmp"
	"fmt"
	"slices"
)

// Profile is the per-kernel information gathered during the first
// (profiling) invocation of an application, from which the search order
// is derived.
type Profile struct {
	Insts  []float64 // instructions per invocation, execution order
	TimeMS []float64 // measured execution time per invocation
}

// Validate checks the profile for consistency.
func (p Profile) Validate() error {
	if len(p.Insts) == 0 {
		return fmt.Errorf("core: empty profile")
	}
	if len(p.Insts) != len(p.TimeMS) {
		return fmt.Errorf("core: profile has %d insts but %d times", len(p.Insts), len(p.TimeMS))
	}
	for i := range p.Insts {
		if p.Insts[i] <= 0 || p.TimeMS[i] <= 0 {
			return fmt.Errorf("core: profile entry %d non-positive", i)
		}
	}
	return nil
}

// BuildSearchOrder implements the §IV-A1a heuristic that lets MPC
// optimize a window without backtracking. Replaying the profiling run,
// each kernel whose *accumulated* application throughput is at or above
// the overall target joins the above-target cluster; the rest join the
// below-target cluster. The above-target cluster is ordered by increasing
// individual kernel throughput, the below-target cluster by decreasing,
// and the concatenation (above first) is the search order.
//
// The returned slice holds 0-based kernel indices. For the paper's Fig. 7
// example the result is (3,2,1,6,5,4) in 1-based numbering.
//
// A non-positive targetTP derives the target from the profile itself
// (total insts / total time), which preserves the clustering intent.
func BuildSearchOrder(p Profile, targetTP float64) ([]int, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.Insts)
	if targetTP <= 0 {
		ti, tt := 0.0, 0.0
		for i := 0; i < n; i++ {
			ti += p.Insts[i]
			tt += p.TimeMS[i]
		}
		targetTP = ti / tt
	}

	tp := make([]float64, n) // individual kernel throughput
	var above, below []int
	sumI, sumT := 0.0, 0.0
	for i := 0; i < n; i++ {
		sumI += p.Insts[i]
		sumT += p.TimeMS[i]
		tp[i] = p.Insts[i] / p.TimeMS[i]
		if sumI/sumT >= targetTP {
			above = append(above, i)
		} else {
			below = append(below, i)
		}
	}
	slices.SortStableFunc(above, func(a, b int) int { return ascending(tp[a], tp[b]) })
	slices.SortStableFunc(below, func(a, b int) int { return ascending(tp[b], tp[a]) })
	return append(above, below...), nil
}

// ascending compares x and y for slices.SortStableFunc. It is negative
// exactly when x < y, and the stable sort tests only for a negative
// result, so a NaN stays where a < comparison leaves it (cmp.Compare
// would move it to the front). Being module code, it is also a
// comparator mpclint's hotpath-alloc proof can follow.
func ascending[T cmp.Ordered](x, y T) int {
	switch {
	case x < y:
		return -1
	case y < x:
		return 1
	}
	return 0
}

// RankOf inverts a search order: rank[k] is the position of kernel k in
// the order (0 = optimized first).
func RankOf(order []int) []int {
	rank := make([]int, len(order))
	for pos, k := range order {
		rank[k] = pos
	}
	return rank
}

// AvgWindowLen returns N̄, the average per-kernel horizon length implied
// by the search order under a full horizon: optimizing kernel i examines
// the N−i+1 kernels not yet executed, so the average is (N+1)/2. The
// adaptive horizon generator uses it to scale measured PPK overhead into
// an MPC overhead estimate (§IV-A4).
func AvgWindowLen(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n+1) / 2
}
