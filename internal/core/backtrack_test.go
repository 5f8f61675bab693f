package core

import (
	"math"
	"testing"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/predict"
)

// tinySpace keeps M^H enumerable for exact-window tests.
func tinySpace() hw.Space {
	return hw.Space{
		CPUs: []hw.CPUPState{hw.P1, hw.P7},
		NBs:  []hw.NBState{hw.NB0, hw.NB2},
		GPUs: []hw.GPUState{hw.DPM0, hw.DPM4},
		CUs:  []int8{2, 8},
	}
}

func windowOf(ks ...kernel.Kernel) ([]WindowKernel, *predict.Oracle) {
	o := predict.NewOracle()
	win := make([]WindowKernel, len(ks))
	for i, k := range ks {
		o.Register(k)
		m := k.Evaluate(hw.Config{CPU: hw.P1, NB: hw.NB0, GPU: hw.DPM4, CUs: 8})
		win[i] = WindowKernel{
			ExecIndex: i,
			Rec:       counters.Record{Counters: k.Counters(), TimeMS: m.TimeMS, PowerW: m.GPUW + m.NBW},
			ExpInsts:  k.Insts(),
			Rank:      i,
		}
	}
	return win, o
}

func TestBruteForceFindsFeasibleOptimum(t *testing.T) {
	space := tinySpace()
	win, o := windowOf(
		kernel.NewComputeBound("a", 1),
		kernel.NewMemoryBound("b", 1),
	)
	opt := NewOptimizer(predict.NewCalibrated(o), space)
	// Loose budget: the optimum is each kernel's unconstrained minimum.
	res := opt.BruteForceWindow(win, NewTracker(0))
	if !res.Feasible {
		t.Fatal("unconstrained brute force infeasible")
	}
	if res.Evals != 2*space.Size() {
		t.Errorf("evals = %d, want %d (M x H)", res.Evals, 2*space.Size())
	}
	if res.Combos <= 0 {
		t.Error("no combinations counted")
	}
	// Against independent minima.
	want := 0.0
	for _, w := range win {
		best := math.Inf(1)
		space.ForEach(func(c hw.Config) {
			e := predict.EnergyMJ(o.PredictKernel(w.Rec.Counters, c), c)
			if e < best {
				best = e
			}
		})
		want += best
	}
	if math.Abs(res.EnergyMJ-want) > 1e-9 {
		t.Errorf("unconstrained brute force %v != sum of minima %v", res.EnergyMJ, want)
	}
}

func TestBruteForceRespectsBudget(t *testing.T) {
	space := tinySpace()
	a := kernel.NewComputeBound("a", 1)
	b := kernel.NewMemoryBound("b", 1)
	win, o := windowOf(a, b)
	opt := NewOptimizer(predict.NewCalibrated(o), space)

	// Budget = exactly the fastest achievable times: only the fastest
	// plan fits.
	fast := func(k kernel.Kernel) float64 {
		best := math.Inf(1)
		space.ForEach(func(c hw.Config) {
			if tm := k.TimeMS(c); tm < best {
				best = tm
			}
		})
		return best
	}
	budget := (fast(a) + fast(b)) * 1.0001 // FP headroom over the exact sum
	tp := (a.Insts() + b.Insts()) / budget
	res := opt.BruteForceWindow(win, NewTracker(tp))
	if !res.Feasible {
		t.Fatal("tight-but-feasible window reported infeasible")
	}
	// Verify the current kernel's chosen config is near-fastest: the
	// tight budget leaves only the FP headroom as slack.
	ta := a.TimeMS(res.Config)
	if ta > fast(a)*1.0002 {
		t.Errorf("brute force current-kernel choice %v (%.4f ms) far from the fastest (%.4f ms) under a tight budget",
			res.Config, ta, fast(a))
	}
	// Impossible budget.
	res = opt.BruteForceWindow(win, NewTracker(tp*10))
	if res.Feasible {
		t.Error("impossible budget reported feasible")
	}
	if !math.IsNaN(res.EnergyMJ) {
		t.Error("infeasible result should carry NaN energy")
	}
	if res.Config != opt.FailSafe() {
		t.Error("infeasible result should fall back to fail-safe")
	}
}

func TestBruteForceEmptyWindow(t *testing.T) {
	o := predict.NewOracle()
	o.Register(kernel.NewBalanced("b", 1))
	opt := NewOptimizer(predict.NewCalibrated(o), tinySpace())
	res := opt.BruteForceWindow(nil, NewTracker(1))
	if res.Feasible || res.Evals != 0 {
		t.Errorf("empty window: %+v", res)
	}
}

func TestGreedyNearBruteForce(t *testing.T) {
	// The headline §IV-A1a claim: greedy+heuristic approximates
	// backtracking at a fraction of the cost.
	space := tinySpace()
	win, o := windowOf(
		kernel.NewComputeBound("a", 1),
		kernel.NewUnscalable("b", 1),
		kernel.NewMemoryBound("c", 1),
	)
	opt := NewOptimizer(predict.NewCalibrated(o), space)
	// A moderate budget: 15% slack over the fastest plan.
	sumFast := 0.0
	for _, w := range win {
		best := math.Inf(1)
		space.ForEach(func(c hw.Config) {
			if est := o.PredictKernel(w.Rec.Counters, c); est.TimeMS < best {
				best = est.TimeMS
			}
		})
		sumFast += best
	}
	sumI := 0.0
	for _, w := range win {
		sumI += w.ExpInsts
	}
	tp := sumI / (sumFast * 1.15)

	bt := opt.BruteForceWindow(win, NewTracker(tp))
	if !bt.Feasible {
		t.Fatal("brute force infeasible")
	}
	_, _, gEvals := opt.OptimizeWindow(win, NewTracker(tp))
	if gEvals >= bt.Combos {
		t.Errorf("greedy cost %d not below backtracking combos %d", gEvals, bt.Combos)
	}
}
