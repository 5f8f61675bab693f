package policy

import (
	"fmt"
	"math"

	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/workload"
)

// TheoreticallyOptimal is the impractical upper-bound scheme of §II-E and
// Fig. 12: perfect knowledge of every kernel's behaviour at every
// configuration, a horizon covering the whole application, exhaustive
// search, and no optimization overhead.
//
// Finding the globally optimal per-kernel assignment under the total
// throughput constraint is the multiple-choice knapsack problem — the
// NP-hard core the paper reduces from — so the "full state space
// exploration" is realized here as an exact dynamic program over
// discretized time (optimal up to the discretization, which is chosen
// fine enough that the residual slack is negligible), with a Lagrangian
// relaxation available as a fast alternative for the solver ablation.
type TheoreticallyOptimal struct {
	app   *workload.App
	space hw.Space
	plan  []hw.Config
	// Bins controls the DP time discretization (default 4000).
	Bins int
	// UseLagrangian switches to the relaxation-based solver.
	UseLagrangian bool
}

// NewTheoreticallyOptimal returns the TO scheme for one application. The
// plan is computed lazily at Begin, when the performance target is known.
func NewTheoreticallyOptimal(app *workload.App, space hw.Space) *TheoreticallyOptimal {
	return &TheoreticallyOptimal{app: app, space: space, Bins: 4000}
}

// Name implements sim.Policy.
func (t *TheoreticallyOptimal) Name() string {
	if t.UseLagrangian {
		return "theoretically-optimal-lagrangian"
	}
	return "theoretically-optimal"
}

// Begin implements sim.Policy, computing the global plan.
func (t *TheoreticallyOptimal) Begin(info sim.RunInfo) {
	if info.NumKernels != t.app.Len() {
		panic(fmt.Sprintf("policy: TO built for %s (%d kernels), run has %d",
			t.app.Name, t.app.Len(), info.NumKernels))
	}
	budget := info.Target.TotalTimeMS
	if budget <= 0 {
		budget = math.Inf(1)
	}
	if t.UseLagrangian {
		t.plan = t.solveLagrangian(budget)
	} else {
		t.plan = t.solveDP(budget)
	}
}

// Decide implements sim.Policy. TO charges no overhead: it is the
// theoretical limit, not a deployable scheme.
func (t *TheoreticallyOptimal) Decide(i int) sim.Decision {
	return sim.Decision{Config: t.plan[i], Evals: 0}
}

// Observe implements sim.Policy.
func (t *TheoreticallyOptimal) Observe(sim.Observation) {}

// tables materializes per-kernel time and energy for every configuration.
func (t *TheoreticallyOptimal) tables() (times, energies [][]float64, cfgs []hw.Config) {
	cfgs = t.space.Configs()
	n := t.app.Len()
	times = make([][]float64, n)
	energies = make([][]float64, n)
	for i, k := range t.app.Kernels {
		times[i] = make([]float64, len(cfgs))
		energies[i] = make([]float64, len(cfgs))
		for j, c := range cfgs {
			m := k.Evaluate(c)
			times[i][j] = m.TimeMS
			energies[i][j] = m.EnergyMJ()
		}
	}
	return times, energies, cfgs
}

// fastestPlan returns the per-kernel minimum-time assignment — the
// fallback when even the fastest plan misses the budget.
func fastestPlan(times [][]float64, cfgs []hw.Config) []hw.Config {
	plan := make([]hw.Config, len(times))
	for i := range times {
		bj := 0
		for j := range times[i] {
			if times[i][j] < times[i][bj] {
				bj = j
			}
		}
		plan[i] = cfgs[bj]
	}
	return plan
}

// solveDP runs the multiple-choice knapsack dynamic program: minimize
// total energy subject to Σ time ≤ budget. Per-kernel times are rounded
// DOWN to bins (rounding up would make any plan sitting exactly at the
// budget — such as the baseline itself — spuriously infeasible); the
// resulting plan's real time is then verified, and the DP budget
// tightened by the overshoot until the real constraint holds.
func (t *TheoreticallyOptimal) solveDP(budgetMS float64) []hw.Config {
	times, energies, cfgs := t.tables()
	n := len(times)
	if math.IsInf(budgetMS, 1) {
		// Unconstrained: independent per-kernel minimum energy.
		plan := make([]hw.Config, n)
		for i := range times {
			bj := 0
			for j := range energies[i] {
				if energies[i][j] < energies[i][bj] {
					bj = j
				}
			}
			plan[i] = cfgs[bj]
		}
		return plan
	}

	bins := t.Bins
	if bins <= 0 {
		bins = 4000
	}
	delta := budgetMS / float64(bins)

	plan := t.dpPass(times, energies, cfgs, delta, bins)
	if plan == nil {
		return fastestPlan(times, cfgs)
	}
	// Floor rounding lets the plan overshoot the real budget by up to
	// n·delta; repair greedily by speeding up the kernel whose upgrade
	// costs the least energy per millisecond recovered.
	idx := make([]int, n)
	real := 0.0
	for i := range plan {
		idx[i] = t.space.Index(plan[i])
		real += times[i][idx[i]]
	}
	for real > budgetMS+1e-9 {
		bestI, bestJ := -1, -1
		bestRate := math.Inf(1)
		for i := range times {
			ci := idx[i]
			for j := range times[i] {
				dt := times[i][ci] - times[i][j]
				if dt <= 0 {
					continue
				}
				rate := (energies[i][j] - energies[i][ci]) / dt
				if rate < bestRate {
					bestRate, bestI, bestJ = rate, i, j
				}
			}
		}
		if bestI < 0 {
			return fastestPlan(times, cfgs)
		}
		real -= times[bestI][idx[bestI]] - times[bestI][bestJ]
		idx[bestI] = bestJ
		plan[bestI] = cfgs[bestJ]
	}
	return plan
}

// dpPass solves one knapsack instance over floor-binned weights with the
// given binned budget, returning nil if no assignment fits.
func (t *TheoreticallyOptimal) dpPass(times, energies [][]float64, cfgs []hw.Config, delta float64, bins int) []hw.Config {
	n := len(times)
	const inf = math.MaxFloat64
	dp := make([]float64, bins+1)
	next := make([]float64, bins+1)
	choice := make([][]int16, n)
	for b := 1; b <= bins; b++ {
		dp[b] = inf
	}
	for i := 0; i < n; i++ {
		choice[i] = make([]int16, bins+1)
		for b := range next {
			next[b] = inf
			choice[i][b] = -1
		}
		for j := range times[i] {
			w := int(math.Floor(times[i][j] / delta))
			if w > bins {
				continue
			}
			e := energies[i][j]
			for b := w; b <= bins; b++ {
				if dp[b-w] >= inf {
					continue
				}
				if cand := dp[b-w] + e; cand < next[b] {
					next[b] = cand
					choice[i][b] = int16(j)
				}
			}
		}
		dp, next = next, dp
	}

	bestB, bestE := -1, inf
	for b := 0; b <= bins; b++ {
		if dp[b] < bestE {
			bestE, bestB = dp[b], b
		}
	}
	if bestB < 0 {
		return nil
	}
	plan := make([]hw.Config, n)
	b := bestB
	for i := n - 1; i >= 0; i-- {
		j := choice[i][b]
		if j < 0 {
			return nil
		}
		plan[i] = cfgs[j]
		b -= int(math.Floor(times[i][j] / delta))
	}
	return plan
}

// solveLagrangian minimizes Σ(e + λ·t) per kernel and bisects λ until the
// plan meets the time budget, then returns the cheapest feasible plan
// found. It is optimal on the convex hull of the per-kernel trade-off
// curves and orders of magnitude faster than the DP.
func (t *TheoreticallyOptimal) solveLagrangian(budgetMS float64) []hw.Config {
	times, energies, cfgs := t.tables()
	n := len(times)

	solve := func(lambda float64) ([]hw.Config, float64, float64) {
		plan := make([]hw.Config, n)
		totT, totE := 0.0, 0.0
		for i := range times {
			bj := 0
			best := energies[i][0] + lambda*times[i][0]
			for j := 1; j < len(cfgs); j++ {
				if v := energies[i][j] + lambda*times[i][j]; v < best {
					best, bj = v, j
				}
			}
			plan[i] = cfgs[bj]
			totT += times[i][bj]
			totE += energies[i][bj]
		}
		return plan, totT, totE
	}

	if plan, totT, _ := solve(0); totT <= budgetMS {
		return plan // unconstrained optimum already feasible
	}
	lo, hi := 0.0, 1.0
	for it := 0; it < 60; it++ {
		if _, totT, _ := solve(hi); totT <= budgetMS {
			break
		}
		hi *= 2
	}
	bestPlan, bestT, _ := solve(hi)
	if bestT > budgetMS {
		return fastestPlan(times, cfgs)
	}
	for it := 0; it < 60; it++ {
		mid := (lo + hi) / 2
		plan, totT, _ := solve(mid)
		if totT <= budgetMS {
			bestPlan = plan
			hi = mid
		} else {
			lo = mid
		}
	}
	return bestPlan
}
