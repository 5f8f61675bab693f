package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/telemetry"
)

var (
	batchedRFOnce sync.Once
	batchedRF     *predict.RandomForest
	batchedRFErr  error
)

// batchedModel trains one small Random Forest shared across the batched-
// sweep tests (the batched path only exists for compiled-forest models).
func batchedModel(t testing.TB) *predict.RandomForest {
	t.Helper()
	batchedRFOnce.Do(func() {
		opt := predict.DefaultTrainOptions(31)
		opt.NumKernels = 12
		batchedRF, batchedRFErr = predict.TrainRandomForest(opt)
	})
	if batchedRFErr != nil {
		t.Fatal(batchedRFErr)
	}
	return batchedRF
}

// treeWalkModel returns the tree-walking reference over the shared
// forest: scalar only, so an optimizer over it fills every sweep per
// configuration.
func treeWalkModel(t *testing.T) predict.Model {
	t.Helper()
	walk, err := predict.NewTreeWalk(batchedModel(t).Forests())
	if err != nil {
		t.Fatal(err)
	}
	return walk
}

// scalarOnly hides a model's batched path and its split form, so an
// optimizer over it fills every sweep per configuration through the
// same engine, and a Calibrated over it prices both forests on every
// scalar query.
type scalarOnly struct{ predict.Model }

func sameClimbResult(t *testing.T, label string, got, want climbResult) {
	t.Helper()
	if got.Config != want.Config || got.Evals != want.Evals || got.Feasible != want.Feasible ||
		math.Float64bits(got.Est.TimeMS) != math.Float64bits(want.Est.TimeMS) ||
		math.Float64bits(got.Est.GPUPowerW) != math.Float64bits(want.Est.GPUPowerW) {
		t.Fatalf("%s: batched %+v != serial %+v", label, got, want)
	}
}

// TestExhaustiveBatchedMatchesSerial checks the three-way contract of
// the exhaustive sweep: the batched compiled path, the serial scalar
// path over the compiled forests and the tree-walking serial path all
// return byte-identical results — configuration, estimate bits,
// evaluation count and feasibility — across kernels and headrooms,
// including the infeasible fail-safe fallback.
func TestExhaustiveBatchedMatchesSerial(t *testing.T) {
	m := batchedModel(t)
	walk := treeWalkModel(t)
	space := hw.DefaultSpace()
	rng := rand.New(rand.NewSource(9))

	kernels := []kernel.Kernel{
		kernel.NewComputeBound("c", 1), kernel.NewMemoryBound("m", 1),
		kernel.NewPeak("p", 1), kernel.Random("r", rng),
	}
	for _, k := range kernels {
		cs := k.Counters()
		// Headrooms: unconstrained, moderately tight (around the
		// fail-safe's own predicted time), and impossible.
		fsTime := m.PredictKernel(cs, space.Clamp(hw.FailSafe())).TimeMS
		for _, head := range []float64{math.Inf(1), fsTime * 1.05, fsTime * 0.5, -1} {
			batched := NewOptimizer(predict.NewCalibrated(m), space).ExhaustiveSearch(cs, head)
			for _, serial := range []predict.Model{scalarOnly{m}, walk} {
				want := NewOptimizer(predict.NewCalibrated(serial), space).ExhaustiveSearch(cs, head)
				sameClimbResult(t, k.Name(), batched, want)
				if want.Evals < space.Size() {
					t.Fatalf("%s: serial sweep reports %d evals, want >= %d", k.Name(), want.Evals, space.Size())
				}
			}
		}
	}
}

// tracedOnly has the shape of the benchmark's model wrapper: it
// forwards a forest's scalar call and its unbounded sweeps, and has
// neither the bounded sweep nor the split form, so a Calibrated over it
// fills every sweep from the traced one and prices both forests on
// every scalar query.
type tracedOnly struct{ m *predict.RandomForest }

func (w tracedOnly) Name() string { return w.m.Name() }
func (w tracedOnly) PredictKernel(cs counters.Set, c hw.Config) predict.Estimate {
	return w.m.PredictKernel(cs, c)
}
func (w tracedOnly) PredictSpace(cs counters.Set, space hw.Space, dst []predict.Estimate) bool {
	return w.m.PredictSpace(cs, space, dst)
}
func (w tracedOnly) PredictSpaceTraced(cs counters.Set, space hw.Space, dst []predict.Estimate, tc *telemetry.Context) bool {
	return w.m.PredictSpaceTraced(cs, space, dst, tc)
}

// declinesBounded has a bounded sweep that declines every call and no
// other sweep, so a Calibrated over it fills every sweep per
// configuration.
type declinesBounded struct{ predict.Model }

func (declinesBounded) PredictSpaceWithin(counters.Set, hw.Space, []predict.Estimate, predict.SweepBound, *telemetry.Context) bool {
	return false
}

// TestExhaustiveBoundedMatchesScalarAndUnbounded is the one fill's
// decision property. Over random kernels and a kernel with every
// counter at 1e308 (its times are +Inf, from which Feedback installs
// no ratio), at headrooms 0, ±Inf, NaN, a PPK headroom just above the
// fail-safe's time and the median time, with and without a ratio
// installed, optimizers over a Calibrated whose inner model is the
// forest (its bounded sweep prices power only on the feasible
// product), a traced-only wrapper (its unbounded sweep prices every
// row), a scalar-only model or a bounded sweep that declines (both
// filled per configuration) return the same Config, Est bits, Evals
// and Feasible.
func TestExhaustiveBoundedMatchesScalarAndUnbounded(t *testing.T) {
	m := batchedModel(t)
	space := hw.DefaultSpace()
	fs := space.Clamp(hw.FailSafe())
	rng := rand.New(rand.NewSource(28))
	var sets []counters.Set
	for i := 0; i < 12; i++ {
		sets = append(sets, kernel.Random("r", rng).Counters())
	}
	var huge counters.Set
	for i := range huge {
		huge[i] = 1e308
	}
	sets = append(sets, huge)
	inners := []predict.Model{m, tracedOnly{m}, scalarOnly{m}, declinesBounded{m}}
	est := make([]predict.Estimate, space.Size())
	for i, cs := range sets {
		fsEst := m.PredictKernel(cs, fs)
		m.PredictSpace(cs, space, est)
		times := make([]float64, len(est))
		for r := range est {
			times[r] = est[r].TimeMS
		}
		slices.Sort(times)
		heads := []float64{0, fsEst.TimeMS * 1.05, times[len(times)/2], math.Inf(1), math.Inf(-1), math.NaN()}
		measTimeMS, measPowerW := math.Min(fsEst.TimeMS*0.8, 1e6)+rng.Float64(), fsEst.GPUPowerW*1.15
		for _, ratio := range []bool{false, true} {
			opts := make([]*Optimizer, len(inners))
			for j, inner := range inners {
				cal := predict.NewCalibrated(inner)
				if ratio {
					cal.Feedback(cs, fs, measTimeMS, measPowerW)
					if cs != huge && cal.KnownKernels() != 1 {
						t.Fatalf("set %d: feedback installed no ratio", i)
					}
				}
				opts[j] = NewOptimizer(cal, space)
			}
			for _, head := range heads {
				want := opts[0].ExhaustiveSearch(cs, head)
				if want.Evals != space.Size() {
					t.Fatalf("set %d ratio=%v headroom %v: %d evals, want %d", i, ratio, head, want.Evals, space.Size())
				}
				for j, o := range opts[1:] {
					label := fmt.Sprintf("set %d ratio=%v headroom %v over %T", i, ratio, head, inners[j+1])
					sameClimbResult(t, label, o.ExhaustiveSearch(cs, head), want)
				}
			}
		}
	}
}

// TestExhaustiveBatchedThroughCalibrated checks the batched path
// through the full policy model stack (Calibrated over
// RandomForest, with a feedback ratio installed) against the
// scalar sweep over the same stack on the tree-walk reference, given
// the same feedback.
func TestExhaustiveBatchedThroughCalibrated(t *testing.T) {
	m := batchedModel(t)
	space := hw.DefaultSpace()
	k := kernel.NewMemoryBound("mb", 1)
	cs := k.Counters()

	raw := m.PredictKernel(cs, space.At(0))
	calibrated := func(inner predict.Model) *predict.Calibrated {
		cal := predict.NewCalibrated(inner)
		cal.Feedback(cs, space.At(0), raw.TimeMS*1.3, raw.GPUPowerW*0.9)
		return cal
	}
	batched := NewOptimizer(calibrated(m), space).ExhaustiveSearch(cs, math.Inf(1))
	want := NewOptimizer(calibrated(treeWalkModel(t)), space).ExhaustiveSearch(cs, math.Inf(1))
	sameClimbResult(t, "calibrated", batched, want)
}

// TestExhaustiveBatchedCacheSemantics checks the decision record of
// the batched sweep against the scalar one: both fills price the same
// set, the whole space, with the same Evals, and a configuration the
// decision priced before the sweep is not counted again.
func TestExhaustiveBatchedCacheSemantics(t *testing.T) {
	m := batchedModel(t)
	space := hw.DefaultSpace()
	cs := kernel.NewComputeBound("cb", 1).Counters()

	run := func(model predict.Model) (evalCache, climbResult) {
		o := NewOptimizer(predict.NewCalibrated(model), space)
		cache := evalCache{o: o, cs: cs}
		cache.eval(o.failSafe) // pre-seed, as OptimizeWindow does
		res := o.exhaustive(&cache, math.Inf(1))
		return cache, res
	}
	bCache, bRes := run(m)
	sCache, sRes := run(treeWalkModel(t))

	sameClimbResult(t, "pre-seeded", bRes, sRes)
	if bRes.Evals != space.Size() || bCache.evals != space.Size() {
		t.Fatalf("evals = %d (record %d) with a pre-seeded fail-safe, want %d (seeded configuration must not recount)",
			bRes.Evals, bCache.evals, space.Size())
	}
	var all evalCache
	for _, c := range space.Configs() {
		all.mark(c)
	}
	if bCache.seen != all.seen || sCache.seen != all.seen {
		t.Fatal("a sweep's record does not hold exactly the space's configurations")
	}
}

// TestEvalCacheHitZeroAlloc pins eval at zero allocations over a model
// that allocates nothing, on a first visit and on a revisit: marking a
// configuration priced sets a bit in the record's fixed-size set.
func TestEvalCacheHitZeroAlloc(t *testing.T) {
	o := NewOptimizer(predict.NewCalibrated(constModel{est: predict.Estimate{TimeMS: 1, GPUPowerW: 10}}), hw.DefaultSpace())
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		cache := evalCache{o: o}
		cfg := o.space.At(i % o.space.Size())
		cache.eval(cfg)
		cache.eval(cfg)
		i++
	}); allocs != 0 {
		t.Fatalf("evalCache.eval allocates %v times per visit and revisit, want 0", allocs)
	}
}

// TestConfigBitIsFullSpaceIndex checks the decision record's bit
// layout: every configuration's bit is its index in the full hardware
// space, so no two configurations share one.
func TestConfigBitIsFullSpaceIndex(t *testing.T) {
	full := hw.FullSpace()
	if full.Size() != numConfigs {
		t.Fatalf("full space has %d configurations, the record %d bits", full.Size(), numConfigs)
	}
	for i, c := range full.Configs() {
		if got := configBit(c); got != i {
			t.Fatalf("configBit(%v) = %d, want %d", c, got, i)
		}
	}
}

// TestExhaustiveBatchedSweepZeroAllocSteadyState pins the whole
// batched sweep at zero allocations in steady state: after the first
// sweep builds the optimizer's sweep buffers and the model's plan, a
// sweep with its own fresh decision record allocates nothing.
func TestExhaustiveBatchedSweepZeroAllocSteadyState(t *testing.T) {
	m := batchedModel(t)
	cs := kernel.NewPeak("pk", 1).Counters()
	o := NewOptimizer(predict.NewCalibrated(m), hw.DefaultSpace())
	o.ExhaustiveSearch(cs, math.Inf(1)) // warm up the sweep buffers and plan
	if allocs := testing.AllocsPerRun(20, func() { o.ExhaustiveSearch(cs, math.Inf(1)) }); allocs != 0 {
		t.Fatalf("warm batched exhaustive allocates %v times per sweep, want 0", allocs)
	}
}

// TestExhaustiveSweepSpans pins a traced search's spans under the
// search span: a sweep filled per configuration gets one forest-eval
// span, not one per configuration; the forest's bounded sweep gets its
// one featurize and one forest-eval span; and a hill climb gets none,
// however many configurations it prices, since spans mark layer
// boundaries and the decision counts its model calls (Evals).
func TestExhaustiveSweepSpans(t *testing.T) {
	m := batchedModel(t)
	cs := kernel.NewComputeBound("cb", 1).Counters()
	sweep := func(o *Optimizer) climbResult { return o.ExhaustiveSearch(cs, math.Inf(1)) }
	climb := func(o *Optimizer) climbResult { return o.HillClimb(cs, math.Inf(1)) }
	for _, tc := range []struct {
		name   string
		inner  predict.Model
		search func(*Optimizer) climbResult
		want   map[string]int
	}{
		{"scalar fill", scalarOnly{m}, sweep, map[string]int{telemetry.SpanForestEval: 1}},
		{"bounded sweep", m, sweep, map[string]int{telemetry.SpanFeaturize: 1, telemetry.SpanForestEval: 1}},
		{"hill climb", m, climb, map[string]int{}},
	} {
		tr := telemetry.NewTracer(64, 1)
		o := NewOptimizer(predict.NewCalibrated(tc.inner), hw.DefaultSpace())
		o.Trace = tr.NewContext("s")
		root := o.Trace.StartRoot(telemetry.SpanDecide, 0)
		search := o.Trace.Start(telemetry.SpanSearch)
		res := tc.search(o)
		search.End()
		root.End()
		if res.Evals == 0 {
			t.Fatalf("%s: the search priced no configuration", tc.name)
		}
		recs := tr.Snapshot(nil)
		var searchID uint64
		for _, r := range recs {
			if r.Name == telemetry.SpanSearch {
				searchID = r.SpanID
			}
		}
		got := map[string]int{}
		for _, r := range recs {
			if r.Name == telemetry.SpanDecide || r.Name == telemetry.SpanSearch {
				continue
			}
			if r.ParentID != searchID {
				t.Fatalf("%s: span %+v, want a child of the search span", tc.name, r)
			}
			got[r.Name]++
		}
		if !maps.Equal(got, tc.want) {
			t.Fatalf("%s: spans under the search %v, want %v", tc.name, got, tc.want)
		}
	}
}
