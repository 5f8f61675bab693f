package core

import (
	"math"
	"testing"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/predict"
)

func TestTrackerHeadroom(t *testing.T) {
	tr := NewTracker(10) // 10 insts/ms target
	// Nothing executed: headroom for a 100-inst kernel is 10 ms.
	if got := tr.HeadroomMS(100); math.Abs(got-10) > 1e-12 {
		t.Errorf("headroom = %v, want 10", got)
	}
	// Run ahead of target: extra headroom accrues.
	tr.Add(100, 5) // 20 insts/ms, 5 ms saved
	if got := tr.HeadroomMS(100); math.Abs(got-15) > 1e-12 {
		t.Errorf("headroom after fast kernel = %v, want 15", got)
	}
	// Fall behind: headroom shrinks, can go negative.
	tr.Add(100, 40) // now 200 insts / 45 ms < 10
	if got := tr.HeadroomMS(10); got >= 0 {
		t.Errorf("headroom while behind = %v, want negative", got)
	}
}

func TestTrackerUnconstrained(t *testing.T) {
	tr := NewTracker(0)
	if !math.IsInf(tr.HeadroomMS(5), 1) {
		t.Error("zero target should give infinite headroom")
	}
}

// TestSearchOrderPaperExample reproduces Fig. 7: six kernels, the first
// three above target, throughput descending within the above cluster and
// ascending within the below cluster, giving search order (3,2,1,6,5,4)
// in the paper's 1-based numbering = (2,1,0,5,4,3) 0-based.
func TestSearchOrderPaperExample(t *testing.T) {
	// Target throughput 1.0 insts/ms; accumulated throughput stays above
	// 1.0 through kernels 1..3 (3.5, 3.0, 2.5) and drops below from
	// kernel 4 (0.70, 0.47, 0.41). Individual throughputs descend
	// 3.5 > 2.5 > 1.5 in the above group and ascend
	// 0.025 < 0.058 < 0.125 in the below group.
	p := Profile{
		Insts:  []float64{3.5, 2.5, 1.5, 0.2, 0.35, 0.5},
		TimeMS: []float64{1, 1, 1, 8, 6, 4},
	}
	order, err := BuildSearchOrder(p, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1, 0, 5, 4, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("search order = %v, want %v (Fig. 7: (3,2,1,6,5,4))", order, want)
		}
	}
	rank := RankOf(order)
	if rank[2] != 0 || rank[3] != 5 {
		t.Errorf("RankOf wrong: %v", rank)
	}
}

func TestSearchOrderCoversAllKernels(t *testing.T) {
	p := Profile{
		Insts:  []float64{5, 1, 7, 2, 2, 9, 1},
		TimeMS: []float64{1, 2, 1, 3, 1, 2, 1},
	}
	order, err := BuildSearchOrder(p, 0) // derive target from profile
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, k := range order {
		if k < 0 || k >= 7 || seen[k] {
			t.Fatalf("order %v is not a permutation", order)
		}
		seen[k] = true
	}
	if len(order) != 7 {
		t.Fatalf("order len %d", len(order))
	}
}

func TestSearchOrderValidation(t *testing.T) {
	if _, err := BuildSearchOrder(Profile{}, 1); err == nil {
		t.Error("empty profile accepted")
	}
	if _, err := BuildSearchOrder(Profile{Insts: []float64{1}, TimeMS: []float64{1, 2}}, 1); err == nil {
		t.Error("mismatched profile accepted")
	}
	if _, err := BuildSearchOrder(Profile{Insts: []float64{0}, TimeMS: []float64{1}}, 1); err == nil {
		t.Error("non-positive insts accepted")
	}
}

func TestAvgWindowLen(t *testing.T) {
	if got := AvgWindowLen(6); got != 3.5 {
		t.Errorf("AvgWindowLen(6) = %v, want 3.5", got)
	}
	if got := AvgWindowLen(0); got != 0 {
		t.Errorf("AvgWindowLen(0) = %v, want 0", got)
	}
}

func oracleFor(ks ...kernel.Kernel) *predict.Oracle {
	o := predict.NewOracle()
	for _, k := range ks {
		o.Register(k)
	}
	return o
}

func TestHillClimbReducesEnergy(t *testing.T) {
	space := hw.DefaultSpace()
	for _, k := range []kernel.Kernel{
		kernel.NewComputeBound("c", 1), kernel.NewMemoryBound("m", 1),
		kernel.NewPeak("p", 1), kernel.NewUnscalable("u", 1), kernel.NewBalanced("b", 1),
	} {
		opt := NewOptimizer(predict.NewCalibrated(oracleFor(k)), space)
		res := opt.HillClimb(k.Counters(), math.Inf(1))
		if !res.Feasible {
			t.Fatalf("%s: unconstrained climb infeasible", k.Name())
		}
		failE := k.EnergyMJ(hw.FailSafe())
		gotE := k.EnergyMJ(res.Config)
		if gotE > failE+1e-9 {
			t.Errorf("%s: climb ended above fail-safe energy (%v > %v)", k.Name(), gotE, failE)
		}
		if res.Evals <= 0 {
			t.Errorf("%s: no evaluations recorded", k.Name())
		}
	}
}

func TestHillClimbEvalBudget(t *testing.T) {
	// §IV-A1a: greedy hill climbing needs ~(|cpu|+|nb|+|gpu|+|cu|)
	// evaluations instead of the full |S| sweep.
	space := hw.DefaultSpace()
	cpu, nb, gpu, cu := space.KnobStates()
	budget := 2 * (cpu + nb + gpu + cu) // generous: probes + walks
	for _, k := range []kernel.Kernel{
		kernel.NewComputeBound("c", 1), kernel.NewMemoryBound("m", 1), kernel.NewBalanced("b", 1),
	} {
		opt := NewOptimizer(predict.NewCalibrated(oracleFor(k)), space)
		res := opt.HillClimb(k.Counters(), math.Inf(1))
		if res.Evals > budget {
			t.Errorf("%s: %d evals, budget %d", k.Name(), res.Evals, budget)
		}
		if res.Evals >= space.Size() {
			t.Errorf("%s: hill climb cost the full sweep", k.Name())
		}
	}
}

func TestHillClimbNearExhaustiveQuality(t *testing.T) {
	// The greedy search trades optimality for cost; it should still land
	// within a modest factor of the exhaustive optimum.
	space := hw.DefaultSpace()
	for _, k := range []kernel.Kernel{
		kernel.NewComputeBound("c", 1), kernel.NewMemoryBound("m", 1),
		kernel.NewPeak("p", 1), kernel.NewUnscalable("u", 1), kernel.NewBalanced("b", 1),
	} {
		opt := NewOptimizer(predict.NewCalibrated(oracleFor(k)), space)
		greedy := opt.HillClimb(k.Counters(), math.Inf(1))
		exact := opt.ExhaustiveSearch(k.Counters(), math.Inf(1))
		ge := k.EnergyMJ(greedy.Config)
		ee := k.EnergyMJ(exact.Config)
		if ge > 1.35*ee {
			t.Errorf("%s: greedy energy %v vs exhaustive %v (>35%% gap)", k.Name(), ge, ee)
		}
		if exact.Evals != space.Size() {
			t.Errorf("exhaustive used %d evals, want %d", exact.Evals, space.Size())
		}
	}
}

func TestHillClimbHonorsHeadroom(t *testing.T) {
	space := hw.DefaultSpace()
	k := kernel.NewBalanced("b", 1)
	opt := NewOptimizer(predict.NewCalibrated(oracleFor(k)), space)
	// Headroom just above the fail-safe time: barely any slack.
	fsTime := k.TimeMS(hw.FailSafe())
	res := opt.HillClimb(k.Counters(), fsTime*1.02)
	if !res.Feasible {
		t.Fatal("feasible problem reported infeasible")
	}
	if got := k.TimeMS(res.Config); got > fsTime*1.02+1e-9 {
		t.Errorf("chosen config time %v exceeds headroom %v", got, fsTime*1.02)
	}
	// Impossible headroom: fail-safe fallback, infeasible.
	res = opt.HillClimb(k.Counters(), fsTime*0.01)
	if res.Feasible {
		t.Error("impossible headroom reported feasible")
	}
	if res.Config != opt.FailSafe() {
		t.Errorf("fallback config = %v, want fail-safe", res.Config)
	}
}

func TestHillClimbLooseningHeadroomNeverHurts(t *testing.T) {
	space := hw.DefaultSpace()
	k := kernel.NewMemoryBound("m", 1)
	opt := NewOptimizer(predict.NewCalibrated(oracleFor(k)), space)
	fsTime := k.TimeMS(hw.FailSafe())
	prev := math.Inf(1)
	for _, slack := range []float64{1.0, 1.3, 2, 4, 1000} {
		res := opt.HillClimb(k.Counters(), fsTime*slack)
		if !res.Feasible {
			t.Fatalf("slack %v infeasible", slack)
		}
		e := k.EnergyMJ(res.Config)
		if e > prev+1e-9 {
			t.Errorf("energy rose from %v to %v as headroom loosened to %vx", prev, e, slack)
		}
		prev = e
	}
}

func TestOptimizeWindowCarriesHeadroom(t *testing.T) {
	// Two kernels: a high-throughput one now, a slow unscalable one next.
	// With the future kernel in the window (ranked first), the optimizer
	// must keep the current kernel fast enough to bank time for the slow
	// one — the "guards against aggressively reducing kernel 1
	// performance" behaviour of the paper's example.
	space := hw.DefaultSpace()
	fast := kernel.NewComputeBound("fast", 1)
	slow := kernel.NewUnscalable("slow", 3)
	o := oracleFor(fast, slow)
	opt := NewOptimizer(predict.NewCalibrated(o), space)

	// Target: aggregate throughput of both at fail-safe (achievable but
	// tight).
	ttot := fast.TimeMS(hw.FailSafe()) + slow.TimeMS(hw.FailSafe())
	itot := fast.Insts() + slow.Insts()
	target := itot / ttot

	mkWin := func(withFuture bool) []WindowKernel {
		win := []WindowKernel{{
			ExecIndex: 0,
			Rec:       counters.Record{Counters: fast.Counters()},
			ExpInsts:  fast.Insts(),
			Rank:      1,
		}}
		if withFuture {
			win = append(win, WindowKernel{
				ExecIndex: 1,
				Rec:       counters.Record{Counters: slow.Counters()},
				ExpInsts:  slow.Insts(),
				Rank:      0, // slow low-throughput kernel optimized first
			})
		}
		return win
	}

	cfgMyopic, _, _ := opt.OptimizeWindow(mkWin(false), NewTracker(target))
	cfgFuture, _, evals := opt.OptimizeWindow(mkWin(true), NewTracker(target))
	if evals <= 0 {
		t.Fatal("window optimization spent no evaluations")
	}
	tMyopic := fast.TimeMS(cfgMyopic)
	tFuture := fast.TimeMS(cfgFuture)
	if tFuture > tMyopic+1e-9 {
		t.Errorf("future-aware choice (%.3f ms) slower than myopic (%.3f ms); headroom not reserved", tFuture, tMyopic)
	}
	// And the future-aware run must leave enough total headroom: simulate.
	tr := NewTracker(target)
	tr.Add(fast.Insts(), tFuture)
	head := tr.HeadroomMS(slow.Insts())
	if slow.TimeMS(hw.FailSafe()) > head+1e-6 {
		t.Errorf("future-aware plan leaves headroom %.3f ms < slow kernel fail-safe time %.3f ms",
			head, slow.TimeMS(hw.FailSafe()))
	}
}

func TestOptimizeWindowEmpty(t *testing.T) {
	space := hw.DefaultSpace()
	k := kernel.NewBalanced("b", 1)
	opt := NewOptimizer(predict.NewCalibrated(oracleFor(k)), space)
	cfg, _, evals := opt.OptimizeWindow(nil, NewTracker(1))
	if cfg != opt.FailSafe() || evals != 0 {
		t.Errorf("empty window: cfg %v evals %d", cfg, evals)
	}
}

func TestHorizonGenerator(t *testing.T) {
	// 10 kernels, 10 ms each, baseline 100 ms, PPK overhead 0.2 ms total.
	g := NewHorizonGen(DefaultAlpha, 10, 100, 0.2)
	// Long kernels relative to optimizer cost: horizon grows with i and
	// saturates at N. At i=1 the budget is only α·T̄ (the paper notes the
	// generator "initially selects a low horizon length").
	h1 := g.Horizon(1, 0)
	if h1 <= 0 {
		t.Fatalf("H1 = %d, want positive (ample budget)", h1)
	}
	if h5 := g.Horizon(5, 4*10); h5 < h1 {
		t.Errorf("H5 on pace = %d, want >= H1 = %d (margin accrues)", h5, h1)
	}
	hLate := g.Horizon(10, 9*10) // on pace
	if hLate != 10 {
		t.Errorf("H10 on pace = %d, want full horizon 10", hLate)
	}
	// If elapsed time already blew the bound, horizon hits zero.
	if got := g.Horizon(2, 500); got != 0 {
		t.Errorf("H with blown budget = %d, want 0", got)
	}
	// Expensive optimizer (TPPK comparable to kernel time) shrinks H.
	gExp := NewHorizonGen(DefaultAlpha, 10, 100, 60)
	if gExp.Horizon(1, 0) >= g.Horizon(1, 0) {
		t.Error("more expensive optimizer did not shrink the horizon")
	}
	// Free optimizer: full horizon.
	gFree := NewHorizonGen(DefaultAlpha, 10, 100, 0)
	if gFree.Horizon(3, 30) != 10 {
		t.Error("free optimizer should use the full horizon")
	}
	if g.Horizon(0, 0) != 0 {
		t.Error("H0 should be 0")
	}
}

func TestHorizonMonotoneInBudget(t *testing.T) {
	g := NewHorizonGen(DefaultAlpha, 20, 200, 2)
	prev := math.MaxInt
	for _, elapsed := range []float64{0, 20, 40, 80, 160, 400} {
		h := g.Horizon(5, elapsed)
		if h > prev {
			t.Errorf("horizon grew (%d -> %d) as elapsed time rose to %v", prev, h, elapsed)
		}
		prev = h
	}
}

func TestNewHorizonGenPanicsOnZeroN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("n=0 did not panic")
		}
	}()
	NewHorizonGen(DefaultAlpha, 0, 1, 1)
}
