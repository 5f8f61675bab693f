package core

import (
	"math"
	"slices"

	"mpcdvfs/internal/hw"
)

// BruteForceResult reports an exhaustive (backtracking) window
// optimization: the benchmark the paper's greedy+heuristic approximation
// is measured against (§IV-A1a). Evals counts distinct model
// evaluations (M × H — each kernel/config pair priced once); Combos
// counts the configuration combinations the backtracking search walks
// (O(M^H), the term that makes true MPC infeasible at power-management
// timescales).
type BruteForceResult struct {
	Config   hw.Config // choice for the current (lowest ExecIndex) kernel
	EnergyMJ float64   // predicted window energy of the best feasible plan
	Evals    int
	Combos   int
	Feasible bool
}

// BruteForceWindow solves Eq. 3 exactly over the window: it enumerates
// every configuration assignment, keeps those whose total expected time
// fits the window's throughput budget, and returns the minimum-energy
// plan's decision for the current kernel. Exponential in the window
// length — use only with small spaces and windows.
func (o *Optimizer) BruteForceWindow(win []WindowKernel, tr *Tracker) BruteForceResult {
	if len(win) == 0 {
		return BruteForceResult{Config: o.failSafe}
	}
	o.winScratch = append(o.winScratch[:0], win...)
	ordered := o.winScratch
	slices.SortStableFunc(ordered, byExecIndex)

	// Window budget: total expected time so that cumulative throughput
	// through the window still meets the target (Eq. 3).
	budget := math.Inf(1)
	if tp := tr.TargetThroughput(); tp > 0 {
		pastI, pastT := tr.Totals()
		sumI := 0.0
		for _, w := range ordered {
			sumI += w.ExpInsts
		}
		budget = (pastI+sumI)/tp - pastT
	}

	// Price every kernel/config pair once.
	cfgs := o.space.Configs()
	times := make([][]float64, len(ordered))
	energies := make([][]float64, len(ordered))
	evals := 0
	for i, w := range ordered {
		cache := evalCache{o: o, cs: w.Rec.Counters}
		times[i] = make([]float64, len(cfgs))
		energies[i] = make([]float64, len(cfgs))
		for j, c := range cfgs {
			est, e := cache.eval(c)
			times[i][j] = est.TimeMS
			energies[i][j] = e
		}
		evals += cache.evals
	}

	res := BruteForceResult{Config: o.failSafe, EnergyMJ: math.Inf(1), Evals: evals}
	choice := make([]int, len(ordered))
	var dfs func(level int, timeSoFar, energySoFar float64)
	dfs = func(level int, timeSoFar, energySoFar float64) {
		if level == len(ordered) {
			res.Combos++
			if timeSoFar <= budget && energySoFar < res.EnergyMJ {
				res.EnergyMJ = energySoFar
				res.Config = cfgs[choice[0]]
				res.Feasible = true
			}
			return
		}
		for j := range cfgs {
			// Prune: a prefix already over budget cannot recover.
			if timeSoFar+times[level][j] > budget {
				res.Combos++ // the backtracking step still visits the node
				continue
			}
			// Prune: energy already above the incumbent cannot improve.
			if energySoFar+energies[level][j] >= res.EnergyMJ {
				res.Combos++
				continue
			}
			choice[level] = j
			dfs(level+1, timeSoFar+times[level][j], energySoFar+energies[level][j])
		}
	}
	dfs(0, 0, 0)

	if !res.Feasible {
		res.Config = o.failSafe
		res.EnergyMJ = math.NaN()
	}
	return res
}
