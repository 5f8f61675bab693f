package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/predict"
)

// randomWindow builds a window of 1..4 random kernels with exact
// expectations from the oracle.
func randomWindow(rng *rand.Rand) ([]WindowKernel, *predict.Oracle) {
	n := 1 + rng.Intn(4)
	o := predict.NewOracle()
	win := make([]WindowKernel, n)
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		k := kernel.Random("w", rng)
		o.Register(k)
		m := k.Evaluate(hw.FailSafe())
		win[i] = WindowKernel{
			ExecIndex: i,
			Rec:       counters.Record{Counters: k.Counters(), TimeMS: m.TimeMS, PowerW: m.GPUW + m.NBW},
			ExpInsts:  k.Insts(),
			Rank:      perm[i],
		}
	}
	return win, o
}

// Property: OptimizeWindow always returns a config inside the space,
// with positive eval count, for arbitrary windows and targets.
func TestOptimizeWindowInvariantsQuick(t *testing.T) {
	space := hw.DefaultSpace()
	prop := func(seed int64, tpRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		win, o := randomWindow(rng)
		opt := NewOptimizer(predict.NewCalibrated(o), space)
		// Target between 0 (unconstrained) and aggressive.
		sumI, sumT := 0.0, 0.0
		for _, w := range win {
			sumI += w.ExpInsts
			sumT += w.Rec.TimeMS
		}
		tp := float64(tpRaw%300) / 100 * sumI / sumT // 0..3x fail-safe pace
		cfg, est, evals := opt.OptimizeWindow(win, NewTracker(tp))
		if !space.Contains(cfg) {
			return false
		}
		if evals <= 0 || est.TimeMS <= 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(71))}); err != nil {
		t.Error(err)
	}
}

// Property: with an oracle and an achievable target, the chosen config's
// TRUE energy never exceeds the fail-safe energy when the fail-safe
// itself is feasible — optimization never makes things worse than the
// guard.
func TestClimbNeverWorseThanFeasibleFailSafeQuick(t *testing.T) {
	space := hw.DefaultSpace()
	prop := func(seed int64, slackRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := kernel.Random("k", rng)
		o := predict.NewOracle()
		o.Register(k)
		opt := NewOptimizer(predict.NewCalibrated(o), space)
		slack := 1 + float64(slackRaw%100)/50 // 1..3x fail-safe time
		head := k.TimeMS(hw.FailSafe()) * slack
		res := opt.HillClimb(k.Counters(), head)
		if !res.Feasible {
			return false // fail-safe fits by construction
		}
		return k.EnergyMJ(res.Config) <= k.EnergyMJ(opt.FailSafe())+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(72))}); err != nil {
		t.Error(err)
	}
}

// Property: the hill climb honors the headroom constraint exactly under
// an oracle (predicted == true time).
func TestClimbHonorsHeadroomQuick(t *testing.T) {
	space := hw.DefaultSpace()
	prop := func(seed int64, slackRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := kernel.Random("k", rng)
		o := predict.NewOracle()
		o.Register(k)
		opt := NewOptimizer(predict.NewCalibrated(o), space)
		head := k.TimeMS(hw.FailSafe()) * (0.5 + float64(slackRaw)/128)
		res := opt.HillClimb(k.Counters(), head)
		if !res.Feasible {
			return true // guarded by fail-safe; nothing to check
		}
		return k.TimeMS(res.Config) <= head+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(73))}); err != nil {
		t.Error(err)
	}
}

// Property: search order is a permutation for arbitrary profiles.
func TestSearchOrderPermutationQuick(t *testing.T) {
	prop := func(seedI, seedT int64, nRaw uint8) bool {
		n := 1 + int(nRaw%40)
		ri := rand.New(rand.NewSource(seedI))
		rt := rand.New(rand.NewSource(seedT))
		p := Profile{Insts: make([]float64, n), TimeMS: make([]float64, n)}
		for i := 0; i < n; i++ {
			p.Insts[i] = 0.1 + ri.Float64()*10
			p.TimeMS[i] = 0.1 + rt.Float64()*10
		}
		order, err := BuildSearchOrder(p, 0)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		for _, k := range order {
			if k < 0 || k >= n || seen[k] {
				return false
			}
			seen[k] = true
		}
		rank := RankOf(order)
		for pos, k := range order {
			if rank[k] != pos {
				return false
			}
		}
		return len(order) == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(74))}); err != nil {
		t.Error(err)
	}
}

// Property: the horizon is always within [0, N] and shrinks (weakly)
// with elapsed time.
func TestHorizonBoundsQuick(t *testing.T) {
	prop := func(nRaw, iRaw uint8, tbarRaw, ppkRaw, elRaw uint16) bool {
		n := 1 + int(nRaw%60)
		i := 1 + int(iRaw)%n
		tbar := 0.1 + float64(tbarRaw)/100
		ppk := float64(ppkRaw) / 1000
		g := NewHorizonGen(DefaultAlpha, n, tbar*float64(n), ppk)
		el := float64(elRaw) / 10
		h := g.Horizon(i, el)
		if h < 0 || h > n {
			return false
		}
		return g.Horizon(i, el+1) <= h
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(75))}); err != nil {
		t.Error(err)
	}
}

// Exhaustive search equals the true constrained optimum under an oracle.
func TestExhaustiveIsTrueOptimum(t *testing.T) {
	space := hw.DefaultSpace()
	rng := rand.New(rand.NewSource(76))
	for trial := 0; trial < 20; trial++ {
		k := kernel.Random("k", rng)
		o := predict.NewOracle()
		o.Register(k)
		opt := NewOptimizer(predict.NewCalibrated(o), space)
		head := k.TimeMS(hw.FailSafe()) * (0.8 + rng.Float64())
		res := opt.ExhaustiveSearch(k.Counters(), head)

		best := math.Inf(1)
		feasible := false
		space.ForEach(func(c hw.Config) {
			if k.TimeMS(c) > head {
				return
			}
			feasible = true
			if e := k.EnergyMJ(c); e < best {
				best = e
			}
		})
		if feasible != res.Feasible {
			t.Fatalf("trial %d: feasibility mismatch", trial)
		}
		if feasible && math.Abs(k.EnergyMJ(res.Config)-best) > 1e-9 {
			t.Fatalf("trial %d: exhaustive %v not the optimum %v", trial, k.EnergyMJ(res.Config), best)
		}
	}
}
