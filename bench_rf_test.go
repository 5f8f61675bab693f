// Paired benchmarks of the Random Forest inference engines: the
// reference tree-walking path versus the compiled branchless engine
// (clustered level-order node layout, key-transformed predicated
// descent, grid descent for sweeps — see DESIGN.md §10), at the
// three granularities the MPC runtime exercises: one scalar
// prediction, one batched space evaluation, and one full 336-config
// exhaustive sweep (the per-decision inner loop). Both engines are
// bit-identical by contract, so every pair measures the same work.
//
// The scalar pair runs twice: with one fixed kernel (every
// data-dependent branch of the tree walk repeats, so its predictor is
// perfect — the branchy engine's best case) and cycling over 64
// distinct counter snapshots (the serving regime: every decision
// carries fresh counters, branchy descent mispredicts, predicated
// descent is input-oblivious). The Parallel variant fans the batched
// sweep across GOMAXPROCS goroutines for the -cpu scaling curve.
//
// Regenerate BENCH_rf.json with:
//
//	go test -run '^$' -bench '^BenchmarkRF' -benchmem -count=3 -cpu 1,2
//	go test ./internal/rf -run '^$' -bench '^BenchmarkCompiled' -benchmem -count=3 -cpu 1,2
package mpcdvfs_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mpcdvfs/internal/core"
	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/experiments"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/predict"
)

// benchRF fetches the fixture's shared forest: the served compiled
// model, or the tree-walk reference over its tree form.
func benchRF(b *testing.B, compiled bool) predict.Model {
	b.Helper()
	m, err := experiments.Shared().RF()
	if err != nil {
		b.Fatal(err)
	}
	if compiled {
		return m
	}
	walk, err := predict.NewTreeWalk(m.Forests())
	if err != nil {
		b.Fatal(err)
	}
	return walk
}

// benchRFPredictKernel measures one scalar time+power prediction — the
// unit the overhead cost model charges per evaluation.
func benchRFPredictKernel(b *testing.B, compiled bool) {
	m := benchRF(b, compiled)
	cs := kernel.NewBalanced("bench", 1).Counters()
	cfg := hw.FailSafe()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.PredictKernel(cs, cfg)
	}
}

func BenchmarkRFPredictKernelTreeWalk(b *testing.B) { benchRFPredictKernel(b, false) }
func BenchmarkRFPredictKernelCompiled(b *testing.B) { benchRFPredictKernel(b, true) }

// benchRFPredictKernelVaried measures the same scalar prediction
// cycling over 64 distinct counter snapshots — deterministic
// perturbations of the balanced kernel, spanning the counter ranges
// serving traffic actually produces — so the engines are compared
// under realistic input variation rather than a perfectly predictable
// fixed row.
func benchRFPredictKernelVaried(b *testing.B, compiled bool) {
	m := benchRF(b, compiled)
	base := kernel.NewBalanced("bench", 1).Counters()
	cfg := hw.FailSafe()
	rng := rand.New(rand.NewSource(77))
	var css [64]counters.Set
	for i := range css {
		for j := range base {
			css[i][j] = base[j] * (0.25 + 1.5*rng.Float64())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.PredictKernel(css[i&63], cfg)
	}
}

func BenchmarkRFPredictKernelTreeWalkVaried(b *testing.B) { benchRFPredictKernelVaried(b, false) }
func BenchmarkRFPredictKernelCompiledVaried(b *testing.B) { benchRFPredictKernelVaried(b, true) }

// benchRFSpace measures evaluating one kernel at every configuration of
// the default 336-point space: the compiled engine's batched
// PredictSpace against the equivalent scalar PredictKernel loop.
func benchRFSpace(b *testing.B, compiled bool) {
	m := benchRF(b, compiled)
	sweep, _ := m.(predict.SpaceEvaluator) // nil for the tree walk, which loops below
	cs := kernel.NewBalanced("bench", 1).Counters()
	space := hw.DefaultSpace()
	dst := make([]predict.Estimate, space.Size())
	cfgs := space.Configs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if compiled {
			if !sweep.PredictSpace(cs, space, dst) {
				b.Fatal("PredictSpace declined on a compiled model")
			}
		} else {
			for j, c := range cfgs {
				dst[j] = m.PredictKernel(cs, c)
			}
		}
	}
}

func BenchmarkRFSpaceEvalTreeWalk(b *testing.B) { benchRFSpace(b, false) }
func BenchmarkRFSpaceEvalCompiled(b *testing.B) { benchRFSpace(b, true) }

// BenchmarkRFSpaceEvalParallel fans concurrent batched sweeps across
// GOMAXPROCS goroutines — each with its own kernels and dst, sharing
// one model and its immutable sweep plan, as concurrent serving
// sessions do. Run with -cpu 1,2 for the multi-core scaling curve
// (ns/op should fall roughly linearly with cores; on a single-CPU
// host every -cpu level measures the same serialized work).
func BenchmarkRFSpaceEvalParallel(b *testing.B) {
	m := benchRF(b, true).(predict.SpaceEvaluator)
	space := hw.DefaultSpace()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cs := kernel.NewBalanced("bench", 1).Counters()
		dst := make([]predict.Estimate, space.Size())
		for pb.Next() {
			if !m.PredictSpace(cs, space, dst) {
				b.Fatal("PredictSpace declined on a compiled model")
			}
		}
	})
}

// benchRFExhaustiveSweep measures the full per-decision inner loop —
// Optimizer.ExhaustiveSearch over the 336-configuration space,
// including the decision record and argmin reduction — in both modes,
// at headroom +Inf: every configuration is feasible, the bounded
// sweep's worst case, in which it prices every power as the unbounded
// sweep does.
func benchRFExhaustiveSweep(b *testing.B, compiled bool) {
	benchRFExhaustiveSweepAt(b, benchRF(b, compiled), math.Inf(1))
}

func benchRFExhaustiveSweepAt(b *testing.B, m predict.Model, headroomMS float64) {
	cs := kernel.NewBalanced("bench", 1).Counters()
	opt := core.NewOptimizer(predict.NewCalibrated(m), hw.DefaultSpace())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = opt.ExhaustiveSearch(cs, headroomMS)
	}
}

func BenchmarkRFExhaustiveSweepTreeWalk(b *testing.B) { benchRFExhaustiveSweep(b, false) }
func BenchmarkRFExhaustiveSweepCompiled(b *testing.B) { benchRFExhaustiveSweep(b, true) }

// benchRFExhaustiveSweepFeasible runs the compiled sweep at the
// headroom that exactly `feasible` of the kernel's predicted times meet
// (0: half the fastest time, which none meets). A profiling sweep of
// the suite meets its headroom at about 50 configurations on average,
// and at none in more than half of the sweeps (DESIGN §10).
func benchRFExhaustiveSweepFeasible(b *testing.B, feasible int) {
	m := benchRF(b, true)
	space := hw.DefaultSpace()
	est := make([]predict.Estimate, space.Size())
	if !m.(predict.SpaceEvaluator).PredictSpace(kernel.NewBalanced("bench", 1).Counters(), space, est) {
		b.Fatal("PredictSpace declined on a compiled model")
	}
	times := make([]float64, len(est))
	for i := range est {
		times[i] = est[i].TimeMS
	}
	slices.Sort(times)
	head := times[0] / 2
	if feasible > 0 {
		head = times[feasible-1]
	}
	benchRFExhaustiveSweepAt(b, m, head)
}

func BenchmarkRFExhaustiveSweepCompiledNoneFeasible(b *testing.B) {
	benchRFExhaustiveSweepFeasible(b, 0)
}
func BenchmarkRFExhaustiveSweepCompiled50Feasible(b *testing.B) {
	benchRFExhaustiveSweepFeasible(b, 50)
}
