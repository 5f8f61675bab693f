package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"mpcdvfs/internal/core"
	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/policy"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/stats"
	"mpcdvfs/internal/thermal"
	"mpcdvfs/internal/workload"
)

func init() {
	register("overheadhiding", "Hiding MPC overhead under CPU phases (§VI-E extension)", runOverheadHiding)
	register("backtrack", "Greedy+heuristic MPC vs exhaustive backtracking MPC (§IV-A1a cost claim)", runBacktrack)
	register("fullspace", "MPC on the full 560-configuration space (all five DPM states)", runFullSpace)
	register("predictorablation", "Random Forest vs linear regression predictor", runPredictorAblation)
	register("transitionablation", "Sensitivity to DVFS transition stalls", runTransitionAblation)
	register("thermalstress", "Thermally constrained package: throttling vs policy", runThermalStress)
	register("governors", "General-purpose DVFS governors as reference points", runGovernors)
	register("population", "Robustness on 40 random irregular applications", runPopulation)
	register("featureimportance", "Random Forest feature importance", runFeatureImportance)
}

// runOverheadHiding reproduces the paper's §VI-E remark: "GPGPU
// application kernels may be separated by CPU phases with an available
// CPU, which can hide the MPC overheads. As a result, the actual
// overheads will be lower, permitting longer horizon lengths."
func runOverheadHiding(f *Fixture) (*Table, error) {
	rf, err := f.RF()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "overheadhiding", Title: "MPC with back-to-back kernels vs kernels separated by 1 ms CPU phases",
		Columns: []string{"benchmark", "ov% b2b", "ov% hidden", "horizon% b2b", "horizon% hidden"},
	}
	var ovA, ovB, hA, hB []float64
	for i := range f.Apps {
		app := f.Apps[i] // copy: we add CPU phases
		base, target := f.Baseline(&app)

		mBack := policy.NewMPC(rf, f.Space)
		rsBack, err := steadyRun(f.Engine, &app, target, mBack, 1)
		if err != nil {
			return nil, err
		}
		gapped := app.WithUniformCPUGaps(1.0)
		mHid := policy.NewMPC(rf, f.Space)
		rsHid, err := steadyRun(f.Engine, &gapped, target, mHid, 1)
		if err != nil {
			return nil, err
		}
		ovBack := 100 * rsBack[1].OverheadMS() / base.TotalTimeMS()
		ovHid := 100 * rsHid[1].OverheadMS() / base.TotalTimeMS()
		fracBack, _ := mBack.AvgHorizonFrac()
		fracHid, _ := mHid.AvgHorizonFrac()
		t.AddRow(app.Name, ovBack, ovHid, 100*fracBack, 100*fracHid)
		ovA = append(ovA, ovBack)
		ovB = append(ovB, ovHid)
		hA = append(hA, 100*fracBack)
		hB = append(hB, 100*fracHid)
	}
	t.Note("mean overhead: %.2f%% back-to-back vs %.2f%% with CPU phases; mean horizon: %.0f%% vs %.0f%%",
		stats.Mean(ovA), stats.Mean(ovB), stats.Mean(hA), stats.Mean(hB))
	t.Note("paper §VI-E: hiding overheads under CPU phases lowers actual overheads and permits longer horizons")
	return t, nil
}

// runBacktrack quantifies the §IV-A1a complexity claim on a reduced
// space: the greedy+heuristic window optimization approximates
// exhaustive backtracking MPC at a tiny fraction of its search cost
// (the paper quotes 65× on its configuration sizes).
func runBacktrack(f *Fixture) (*Table, error) {
	// A reduced space keeps M^H enumerable: 3 CPU × 2 NB × 2 GPU × 2 CU
	// = 24 configurations, window of 3 -> 13824 combinations.
	space := hw.Space{
		CPUs: []hw.CPUPState{hw.P1, hw.P4, hw.P7},
		NBs:  []hw.NBState{hw.NB0, hw.NB2},
		GPUs: []hw.GPUState{hw.DPM0, hw.DPM4},
		CUs:  []int8{2, 8},
	}
	t := &Table{
		ID: "backtrack", Title: "One MPC step (window of 3) on a 24-config space: greedy vs backtracking",
		Columns: []string{"benchmark", "greedy evals", "bt combos", "cost ratio", "energy gap %"},
	}
	var ratios, gaps []float64
	for _, name := range []string{"XSBench", "Spmv", "hybridsort", "lulesh"} {
		app := f.App(name)
		oracle := f.Oracle(app)
		opt := core.NewOptimizer(predict.NewCalibrated(oracle), space)

		// Target throughput over the reduced space's fastest config.
		fast := space.Clamp(hw.MaxPerf())
		sumI, sumT := 0.0, 0.0
		for _, k := range app.Kernels {
			sumI += k.Insts()
			sumT += k.TimeMS(fast)
		}
		tp := sumI / sumT

		win := make([]core.WindowKernel, 0, 3)
		for j := 0; j < 3 && j < app.Len(); j++ {
			k := app.Kernels[j]
			m := k.Evaluate(fast)
			win = append(win, core.WindowKernel{
				ExecIndex: j,
				Rec:       counters.Record{Counters: k.Counters(), TimeMS: m.TimeMS, PowerW: m.GPUW + m.NBW},
				ExpInsts:  k.Insts(),
				Rank:      j,
			})
		}
		_, _, gEvals := opt.OptimizeWindow(win, core.NewTracker(tp))
		bt := opt.BruteForceWindow(win, core.NewTracker(tp))
		if !bt.Feasible {
			t.AddRow(name+" (infeasible)", float64(gEvals), float64(bt.Combos), 0, 0)
			continue
		}
		// Energy of the greedy plan under the same exhaustive pricing:
		// re-run greedy choices through the window to compare plan energy.
		gPlanE := windowPlanEnergy(opt, win, core.NewTracker(tp))
		gap := 100 * (gPlanE - bt.EnergyMJ) / bt.EnergyMJ
		ratio := float64(bt.Combos) / float64(gEvals)
		t.AddRow(name, float64(gEvals), float64(bt.Combos), ratio, gap)
		ratios = append(ratios, ratio)
		gaps = append(gaps, gap)
	}
	t.Note("mean search-cost ratio %.0fx, mean energy gap %.1f%% (paper: 65x cheaper than backtracking, near-optimal)",
		stats.Mean(ratios), stats.Mean(gaps))
	return t, nil
}

// windowPlanEnergy replays the greedy window optimization and sums the
// predicted energy of every kernel's chosen configuration.
func windowPlanEnergy(opt *core.Optimizer, win []core.WindowKernel, tr *core.Tracker) float64 {
	total := 0.0
	spec := *tr
	// Greedy assigns kernels in rank order with headroom carry-over; we
	// reproduce the plan by re-optimizing the shrinking window, applying
	// one decision at a time in execution order (the receding realization
	// of the plan).
	remaining := append([]core.WindowKernel(nil), win...)
	for len(remaining) > 0 {
		cfg, est, _ := opt.OptimizeWindow(remaining, &spec)
		curIdx := 0
		for i, w := range remaining {
			if w.ExecIndex < remaining[curIdx].ExecIndex {
				curIdx = i
			}
		}
		cur := remaining[curIdx]
		total += predict.EnergyMJ(est, cfg)
		spec.Add(cur.ExpInsts, est.TimeMS)
		remaining = append(remaining[:curIdx], remaining[curIdx+1:]...)
	}
	return total
}

// runFullSpace runs MPC over all five GPU DPM states — configurations
// the paper's testbed did not capture — and reports the additional
// savings the two extra states buy.
func runFullSpace(f *Fixture) (*Table, error) {
	t := &Table{
		ID: "fullspace", Title: "MPC (perfect prediction, no overhead) on the 336- vs 560-config space",
		Columns: []string{"benchmark", "save% 336", "save% 560", "speedup 336", "speedup 560"},
	}
	fullEng := sim.NewEngine(hw.FullSpace())
	fullEng.Cost = sim.CostModel{}
	var s336, s560 []float64
	for i := range f.Apps {
		app := &f.Apps[i]
		base, target := f.Baseline(app)
		oracle := f.Oracle(app)

		mDef := policy.NewMPC(oracle, f.Space, policy.WithFullHorizon())
		rsDef, err := steadyRun(f.Free, app, target, mDef, 1)
		if err != nil {
			return nil, err
		}
		mFull := policy.NewMPC(oracle, hw.FullSpace(), policy.WithFullHorizon())
		rsFull, err := steadyRun(fullEng, app, target, mFull, 1)
		if err != nil {
			return nil, err
		}
		cDef := sim.Compare(rsDef[1], base)
		cFull := sim.Compare(rsFull[1], base)
		t.AddRow(app.Name, cDef.EnergySavingsPct, cFull.EnergySavingsPct, cDef.Speedup, cFull.Speedup)
		s336 = append(s336, cDef.EnergySavingsPct)
		s560 = append(s560, cFull.EnergySavingsPct)
	}
	d := stats.Mean(s560) - stats.Mean(s336)
	if math.IsNaN(d) {
		d = 0
	}
	t.Note("the two extra DPM states buy %.1f%% additional mean savings", d)
	return t, nil
}

// runPredictorAblation compares the deployed Random Forest against the
// related-work linear-regression family (§VII, Paul et al.) — both on
// raw accuracy and driving MPC end to end.
func runPredictorAblation(f *Fixture) (*Table, error) {
	rf, err := f.RF()
	if err != nil {
		return nil, err
	}
	lin, err := predict.TrainLinearRegression(predict.DefaultTrainOptions(rfSeed))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "predictorablation", Title: "Random Forest vs linear regression: accuracy and end-to-end MPC",
		Columns: []string{"model", "time MAPE %", "power MAPE %", "MPC save%", "MPC speedup"},
	}
	models := []predict.Model{rf, lin}
	for _, model := range models {
		var tms, pms, saves, spds []float64
		for i := range f.Apps {
			app := &f.Apps[i]
			base, target := f.Baseline(app)
			uniq := map[string]bool{}
			var ks []kernel.Kernel
			for _, k := range app.Kernels {
				key := fmt.Sprintf("%s@%g", k.Name(), k.InputScale)
				if !uniq[key] {
					uniq[key] = true
					ks = append(ks, k)
				}
			}
			tm, pm := predict.MAPE(model, ks, f.Space)
			tms = append(tms, 100*tm)
			pms = append(pms, 100*pm)

			m := policy.NewMPC(model, f.Space)
			rs, err := steadyRun(f.Engine, app, target, m, 1)
			if err != nil {
				return nil, err
			}
			c := sim.Compare(rs[1], base)
			saves = append(saves, c.EnergySavingsPct)
			spds = append(spds, c.Speedup)
		}
		t.AddRow(model.Name(), stats.Mean(tms), stats.Mean(pms), stats.Mean(saves), stats.GeoMean(spds))
	}
	t.Note("the paper selected Random Forest because 'it gave the highest accuracy among other learning algorithms' (§IV-A3);")
	t.Note("MPC's feedback keeps end-to-end results close even under the weaker model (the Fig. 13 effect)")
	return t, nil
}

// runTransitionAblation charges a per-knob DVFS/CU reconfiguration stall
// that the paper (and most of the literature) ignores, and measures how
// robust each scheme's savings are to it. MPC changes configurations
// deliberately; PPK churns on every misprediction.
func runTransitionAblation(f *Fixture) (*Table, error) {
	rf, err := f.RF()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "transitionablation", Title: "Sensitivity to DVFS transition stalls (per-knob cost in ms)",
		Columns: []string{"scheme/cost", "mean save%", "geomean speedup", "mean knob changes"},
	}
	for _, transMS := range []float64{0, 0.05, 0.2} {
		eng := sim.NewEngine(f.Space)
		eng.Cost.TransitionMS = transMS
		for _, scheme := range []string{"ppk", "mpc"} {
			var saves, spds, changes []float64
			for i := range f.Apps {
				app := &f.Apps[i]
				base, target := f.Baseline(app)
				var res *sim.Result
				if scheme == "ppk" {
					r, err := eng.Run(app, policy.NewPPK(rf, f.Space), target, true)
					if err != nil {
						return nil, err
					}
					res = r
				} else {
					m := policy.NewMPC(rf, f.Space)
					rs, err := steadyRun(eng, app, target, m, 1)
					if err != nil {
						return nil, err
					}
					res = rs[1]
				}
				c := sim.Compare(res, base)
				saves = append(saves, c.EnergySavingsPct)
				spds = append(spds, c.Speedup)
				changes = append(changes, float64(res.KnobChanges()))
			}
			t.AddRow(fmt.Sprintf("%s @ %.2f ms", scheme, transMS),
				stats.Mean(saves), stats.GeoMean(spds), stats.Mean(changes))
		}
	}
	t.Note("transition stalls are absent from the paper's model; savings should degrade gracefully as they grow")
	return t, nil
}

// runThermalStress puts every scheme in a thermally constrained package
// (the pressure that motivated the paper's APU choice, §V): sustained
// Turbo Core boost overheats and throttles, while MPC's lower power
// keeps the die below the limit — energy efficiency becomes performance.
func runThermalStress(f *Fixture) (*Table, error) {
	t := &Table{
		ID: "thermalstress", Title: "Tight thermal package (1.0 C/W): throttling vs policy",
		Columns: []string{"benchmark/policy", "max temp C", "throttled ms", "speedup vs cold TC", "save%"},
	}
	tp := thermal.DefaultParams()
	tp.ResistanceCW = 1.0
	tp.TimeConstMS = 120
	hotEng := sim.NewEngine(f.Space)
	hotEng.Thermal = &tp

	for _, name := range []string{"NBody", "lbm", "XSBench"} {
		// Sustain the load past the package's RC constant by tripling the
		// kernel sequence (three consecutive invocations, thermally).
		app3 := *f.App(name)
		app3.Kernels = nil
		for r := 0; r < 3; r++ {
			app3.Kernels = append(app3.Kernels, f.App(name).Kernels...)
		}
		app := &app3
		// Cold baseline: the paper's environment (no thermal pressure).
		coldEng := f.Free
		cold, target, err := coldEng.Baseline(app)
		if err != nil {
			return nil, err
		}

		hotTC, _, err := hotEng.Baseline(app)
		if err != nil {
			return nil, err
		}
		oracle := predict.NewOracle()
		for _, k := range app.Kernels {
			oracle.Register(k)
		}
		m := policy.NewMPC(oracle, f.Space)
		rs, err := steadyRun(hotEng, app, target, m, 1)
		if err != nil {
			return nil, err
		}
		hotMPC := rs[1]

		cTC := sim.Compare(hotTC, cold)
		cMPC := sim.Compare(hotMPC, cold)
		t.AddRow(name+"/turbo-core", hotTC.MaxTempC(), hotTC.ThrottledMS(), cTC.Speedup, cTC.EnergySavingsPct)
		t.AddRow(name+"/mpc", hotMPC.MaxTempC(), hotMPC.ThrottledMS(), cMPC.Speedup, cMPC.EnergySavingsPct)
	}
	t.Note("in a tight package the baseline throttles; MPC's energy savings buy back the lost performance")
	return t, nil
}

// runGovernors adds the general-purpose DVFS governor family as extra
// reference points around Turbo Core, PPK and MPC.
func runGovernors(f *Fixture) (*Table, error) {
	t := &Table{
		ID: "governors", Title: "General-purpose governors vs kernel-aware policies (oracle predictor)",
		Columns: []string{"policy", "mean save%", "geomean speedup"},
	}
	type mk struct {
		name string
		make func(app *workload.App) sim.Policy
	}
	schemes := []mk{
		{"governor-performance", func(*workload.App) sim.Policy { return policy.NewPerformanceGovernor() }},
		{"governor-powersave", func(*workload.App) sim.Policy { return policy.NewPowersaveGovernor() }},
		{"governor-ondemand", func(*workload.App) sim.Policy { return policy.NewOndemandGovernor(f.Space) }},
		{"equalizer", func(*workload.App) sim.Policy { return policy.NewEqualizer(f.Space) }},
		{"ppk", func(app *workload.App) sim.Policy { return policy.NewPPK(f.Oracle(app), f.Space) }},
	}
	for _, s := range schemes {
		var saves, spds []float64
		for i := range f.Apps {
			app := &f.Apps[i]
			base, target := f.Baseline(app)
			res, err := f.Engine.Run(app, s.make(app), target, true)
			if err != nil {
				return nil, err
			}
			c := sim.Compare(res, base)
			saves = append(saves, c.EnergySavingsPct)
			spds = append(spds, c.Speedup)
		}
		t.AddRow(s.name, stats.Mean(saves), stats.GeoMean(spds))
	}
	// MPC steady state for the same comparison.
	var saves, spds []float64
	for i := range f.Apps {
		app := &f.Apps[i]
		base, target := f.Baseline(app)
		m := policy.NewMPC(f.Oracle(app), f.Space)
		rs, err := steadyRun(f.Engine, app, target, m, 1)
		if err != nil {
			return nil, err
		}
		c := sim.Compare(rs[1], base)
		saves = append(saves, c.EnergySavingsPct)
		spds = append(spds, c.Speedup)
	}
	t.AddRow("mpc (steady)", stats.Mean(saves), stats.GeoMean(spds))
	t.Note("powersave saves watts but destroys throughput; performance wastes energy; kernel-aware policies dominate both")
	return t, nil
}

// runPopulation checks that the headline result is not an artifact of
// the 15 hand-picked benchmarks: 40 randomly generated irregular apps,
// MPC vs PPK vs Turbo Core with perfect prediction.
func runPopulation(f *Fixture) (*Table, error) {
	const nApps = 40
	t := &Table{
		ID: "population", Title: "40 random irregular applications (oracle predictor)",
		Columns: []string{"scheme", "mean save%", "p10 save%", "p90 save%", "geomean speedup", "min speedup"},
	}
	rng := rand.New(rand.NewSource(424242))
	apps := make([]workload.App, nApps)
	for i := range apps {
		apps[i] = workload.RandomApp(fmt.Sprintf("pop%02d", i), rng, 3+rng.Intn(5), 8+rng.Intn(25))
	}
	type agg struct{ saves, spds []float64 }
	res := map[string]*agg{"ppk": {}, "mpc": {}}
	for i := range apps {
		app := &apps[i]
		base, target, err := f.Free.Baseline(app)
		if err != nil {
			return nil, err
		}
		oracle := predict.NewOracle()
		for _, k := range app.Kernels {
			oracle.Register(k)
		}
		pres, err := f.Free.Run(app, policy.NewPPK(oracle, f.Space), target, true)
		if err != nil {
			return nil, err
		}
		c := sim.Compare(pres, base)
		res["ppk"].saves = append(res["ppk"].saves, c.EnergySavingsPct)
		res["ppk"].spds = append(res["ppk"].spds, c.Speedup)

		m := policy.NewMPC(oracle, f.Space)
		rs, err := steadyRun(f.Free, app, target, m, 1)
		if err != nil {
			return nil, err
		}
		c = sim.Compare(rs[1], base)
		res["mpc"].saves = append(res["mpc"].saves, c.EnergySavingsPct)
		res["mpc"].spds = append(res["mpc"].spds, c.Speedup)
	}
	for _, name := range []string{"ppk", "mpc"} {
		a := res[name]
		p10, _ := stats.Percentile(a.saves, 10)
		p90, _ := stats.Percentile(a.saves, 90)
		minSpd, _, _ := stats.MinMax(a.spds)
		t.AddRow(name, stats.Mean(a.saves), p10, p90, stats.GeoMean(a.spds), minSpd)
	}
	t.Note("the paper sampled 15 of 73 studied benchmarks; this checks the conclusion on a fresh random population")
	return t, nil
}

// runFeatureImportance reports which model inputs carry the predictive
// signal — the reverse of the paper's §IV-A2 counter selection, which
// clustered correlated counters and kept eight representatives.
func runFeatureImportance(f *Fixture) (*Table, error) {
	rf, err := f.RF()
	if err != nil {
		return nil, err
	}
	timeImp, powerImp, err := rf.FeatureImportance(predict.DefaultTrainOptions(rfSeed))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "featureimportance", Title: "Random Forest feature importance (mean decrease in impurity)",
		Columns: []string{"feature", "time %", "power %"},
	}
	names := predict.FeatureNames()
	for i, n := range names {
		t.AddRow(n, 100*timeImp[i], 100*powerImp[i])
	}
	t.Note("time prediction leans on counters + GPU/NB physics; power on the rail voltage and CU count")
	return t, nil
}
