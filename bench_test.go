// Benchmarks regenerating every table and figure of the paper's
// evaluation (one per experiment runner), plus micro-benchmarks of the
// core mechanisms. Run with:
//
//	go test -bench=. -benchmem
//
// The heavy shared state (Turbo Core baselines, the offline-trained
// Random Forest) is built once per process by the experiments fixture.
package mpcdvfs_test

import (
	"math"
	"math/rand"
	"testing"

	"mpcdvfs/internal/core"
	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/experiments"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/pattern"
	"mpcdvfs/internal/policy"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/workload"
)

// benchExperiment reruns one registered experiment per iteration; the
// first (untimed) run warms the fixture caches.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	f := experiments.Shared()
	if _, err := r.Run(f); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(f); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper table/figure (the regenerators themselves).

func BenchmarkTableIDVFSStates(b *testing.B)             { benchExperiment(b, "tableI") }
func BenchmarkFig2KernelCharacterization(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3ThroughputTraces(b *testing.B)         { benchExperiment(b, "fig3") }
func BenchmarkTableIIExecutionPatterns(b *testing.B)     { benchExperiment(b, "tableII") }
func BenchmarkTableIVBenchmarkSuite(b *testing.B)        { benchExperiment(b, "tableIV") }
func BenchmarkFig4LimitStudy(b *testing.B)               { benchExperiment(b, "fig4") }
func BenchmarkFig8MPCvsTurboCore(b *testing.B)           { benchExperiment(b, "fig8") }
func BenchmarkFig9MPCvsPPK(b *testing.B)                 { benchExperiment(b, "fig9") }
func BenchmarkFig10GPUEnergySavings(b *testing.B)        { benchExperiment(b, "fig10") }
func BenchmarkFig11Amortization(b *testing.B)            { benchExperiment(b, "fig11") }
func BenchmarkFig12MPCvsTheoreticalLimit(b *testing.B)   { benchExperiment(b, "fig12") }
func BenchmarkMAPEPredictionAccuracy(b *testing.B)       { benchExperiment(b, "mape") }
func BenchmarkFig13PredictionErrorAblation(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14MPCOverheads(b *testing.B)            { benchExperiment(b, "fig14") }
func BenchmarkFig15AdaptiveHorizon(b *testing.B)         { benchExperiment(b, "fig15") }
func BenchmarkHorizonAblation(b *testing.B)              { benchExperiment(b, "horizonablation") }
func BenchmarkSearchAblation(b *testing.B)               { benchExperiment(b, "searchablation") }
func BenchmarkOrderAblation(b *testing.B)                { benchExperiment(b, "orderablation") }
func BenchmarkTOSolverAblation(b *testing.B)             { benchExperiment(b, "tosolver") }
func BenchmarkOverheadHidingExtension(b *testing.B)      { benchExperiment(b, "overheadhiding") }
func BenchmarkBacktrackingMPC(b *testing.B)              { benchExperiment(b, "backtrack") }
func BenchmarkFullSpaceExtension(b *testing.B)           { benchExperiment(b, "fullspace") }
func BenchmarkPredictorAblation(b *testing.B)            { benchExperiment(b, "predictorablation") }
func BenchmarkTransitionAblation(b *testing.B)           { benchExperiment(b, "transitionablation") }
func BenchmarkThermalStress(b *testing.B)                { benchExperiment(b, "thermalstress") }
func BenchmarkGovernorComparison(b *testing.B)           { benchExperiment(b, "governors") }
func BenchmarkPopulationRobustness(b *testing.B)         { benchExperiment(b, "population") }

// Micro-benchmarks of the mechanisms behind those numbers.

// BenchmarkKernelEvaluate measures one ground-truth model evaluation —
// the simulated equivalent of a hardware measurement sample.
func BenchmarkKernelEvaluate(b *testing.B) {
	k := kernel.NewBalanced("bench", 1)
	cfg := hw.FailSafe()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.Evaluate(cfg)
	}
}

// BenchmarkHillClimb measures one greedy per-kernel configuration search
// (the paper's ~19-evaluation search).
func BenchmarkHillClimb(b *testing.B) {
	k := kernel.NewBalanced("bench", 1)
	o := predict.NewOracle()
	o.Register(k)
	opt := core.NewOptimizer(predict.NewCalibrated(o), hw.DefaultSpace())
	cs := k.Counters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = opt.HillClimb(cs, math.Inf(1))
	}
}

// BenchmarkExhaustiveSearch measures the O(M)=336-evaluation sweep the
// greedy search replaces, as PPK and every profiling run make it: over
// the compiled forest behind predict.Calibrated, at a headroom of the
// fail-safe's own predicted time, so the bounded sweep prices power
// only on the configurations that can meet it.
func BenchmarkExhaustiveSearch(b *testing.B) {
	rf, err := experiments.Shared().RF()
	if err != nil {
		b.Fatal(err)
	}
	opt := core.NewOptimizer(predict.NewCalibrated(rf), hw.DefaultSpace())
	cs := kernel.NewBalanced("bench", 1).Counters()
	head := rf.PredictKernel(cs, opt.FailSafe()).TimeMS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = opt.ExhaustiveSearch(cs, head)
	}
}

// BenchmarkRFPredict measures one Random Forest time/power prediction —
// the unit the overhead cost model charges.
func BenchmarkRFPredict(b *testing.B) {
	rf, err := experiments.Shared().RF()
	if err != nil {
		b.Fatal(err)
	}
	cs := kernel.NewBalanced("bench", 1).Counters()
	cfg := hw.FailSafe()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rf.PredictKernel(cs, cfg)
	}
}

// BenchmarkMPCDecision measures one steady-state MPC run of Spmv: 30
// receding-horizon decisions with pattern lookup and tracker updates.
func BenchmarkMPCDecision(b *testing.B) { benchSteadyMPC(b, experiments.Shared().Engine) }

// BenchmarkMPCDecisionRF measures one steady-state MPC run of
// hybridsort over the deployed predictor, the compiled forest behind
// predict.Calibrated, where BenchmarkMPCDecision runs Spmv over the
// oracle. hybridsort's climbs often miss the run-scoped memo (about 225
// forest queries per run), so each op times forest descents as well as
// the search around them.
func BenchmarkMPCDecisionRF(b *testing.B) {
	f := experiments.Shared()
	rf, err := f.RF()
	if err != nil {
		b.Fatal(err)
	}
	benchSteadyRun(b, f.Engine, "hybridsort", rf)
}

// benchSteadyMPC builds one MPC over the oracle and makes its profiling
// run of Spmv on eng before the timer starts, so that each op is one
// steady-state Engine.Run.
func benchSteadyMPC(b *testing.B, eng *sim.Engine) {
	b.Helper()
	f := experiments.Shared()
	app := f.App("Spmv")
	benchSteadyRun(b, eng, app.Name, f.Oracle(app))
}

// benchSteadyRun builds one MPC over model and makes its profiling run
// of the named app on eng before the timer starts, so that each op is
// one steady-state Engine.Run.
func benchSteadyRun(b *testing.B, eng *sim.Engine, name string, model predict.Model) {
	b.Helper()
	f := experiments.Shared()
	app := f.App(name)
	_, target := f.Baseline(app)
	m := policy.NewMPC(model, f.Space)
	if _, err := eng.Run(app, m, target, true); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(app, m, target, false); err != nil {
			b.Fatal(err)
		}
	}
}

// benchObservedMPC is BenchmarkMPCDecision with an observer installed
// on a private engine (identical construction to the fixture's), so the
// three variants below isolate instrumentation cost: nil and Nop must be
// indistinguishable from the uninstrumented run (<5% is the budget), and
// the metrics observer shows the full price of live counters.
func benchObservedMPC(b *testing.B, o obs.Observer) {
	b.Helper()
	eng := sim.NewEngine(experiments.Shared().Space)
	eng.Obs = o
	benchSteadyMPC(b, eng)
}

func BenchmarkMPCDecisionNilObserver(b *testing.B) { benchObservedMPC(b, nil) }

func BenchmarkMPCDecisionNopObserver(b *testing.B) { benchObservedMPC(b, obs.Nop{}) }

func BenchmarkMPCDecisionMetricsObserver(b *testing.B) {
	benchObservedMPC(b, obs.NewMetrics(metrics.New()))
}

// BenchmarkTurboCoreRun measures the baseline controller for scale.
func BenchmarkTurboCoreRun(b *testing.B) {
	f := experiments.Shared()
	app := f.App("Spmv")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := f.Engine.Baseline(app); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTOKnapsackDP measures the exact multiple-choice-knapsack plan
// for a 30-kernel app over 336 configurations.
func BenchmarkTOKnapsackDP(b *testing.B) {
	f := experiments.Shared()
	app := f.App("Spmv")
	_, target := f.Baseline(app)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		to := policy.NewTheoreticallyOptimal(app, f.Space)
		if _, err := f.Free.Run(app, to, target, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTOLagrangian measures the relaxation-based alternative.
func BenchmarkTOLagrangian(b *testing.B) {
	f := experiments.Shared()
	app := f.App("Spmv")
	_, target := f.Baseline(app)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		to := policy.NewTheoreticallyOptimal(app, f.Space)
		to.UseLagrangian = true
		if _, err := f.Free.Run(app, to, target, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPatternExtractor measures signature computation plus pattern
// bookkeeping per observed kernel.
func BenchmarkPatternExtractor(b *testing.B) {
	app, _ := workload.ByName("hybridsort")
	recs := make([]counters.Record, app.Len())
	for i, k := range app.Kernels {
		m := k.Evaluate(hw.FailSafe())
		recs[i] = counters.Record{Counters: k.Counters(), TimeMS: m.TimeMS, PowerW: m.GPUW + m.NBW}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := pattern.New()
		e.BeginRun()
		for _, r := range recs {
			e.Observe(r)
		}
		for j := 0; j < app.Len(); j++ {
			_, _ = e.Expect(j)
		}
	}
}

// BenchmarkSignature measures the log-binned signature of one counter
// set.
func BenchmarkSignature(b *testing.B) {
	cs := kernel.NewBalanced("bench", 1).Counters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = counters.SignatureOf(cs)
	}
}

// BenchmarkWorkloadGeneration measures synthesis of a random irregular
// application.
func BenchmarkWorkloadGeneration(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = workload.RandomApp("bench", rng, 6, 40)
	}
}

// BenchmarkEngineRunFailSafe measures the simulation engine itself with
// a trivial policy, isolating engine overhead from policy cost.
func BenchmarkEngineRunFailSafe(b *testing.B) {
	f := experiments.Shared()
	app := f.App("hybridsort")
	_, target := f.Baseline(app)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Engine.Run(app, sim.NewTurboCore(), target, true); err != nil {
			b.Fatal(err)
		}
	}
}
