package core

import (
	"fmt"
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
			batched := NewOptimizer(m, space).ExhaustiveSearch(cs, head)
			for _, serial := range []predict.Model{scalarOnly{m}, walk} {
				want := NewOptimizer(serial, space).ExhaustiveSearch(cs, head)
				sameClimbResult(t, k.Name(), batched, want)
				if want.Evals < space.Size() {
					t.Fatalf("%s: serial sweep reports %d evals, want >= %d", k.Name(), want.Evals, space.Size())
				}
			}
		}
	}
}

// unboundedOnly gives the optimizer a model's unbounded traced sweep as
// its bounded one, pricing every row as the sweep did before it was
// bounded (the bounded contract allows it).
type unboundedOnly struct{ predict.Model }

func (u unboundedOnly) PredictSpaceWithin(cs counters.Set, space hw.Space, dst []predict.Estimate, _ predict.SweepBound, tc *telemetry.Context) bool {
	return u.Model.(predict.TracedSpaceEvaluator).PredictSpaceTraced(cs, space, dst, tc)
}

// TestExhaustiveBoundedMatchesScalarAndUnbounded is the bounded
// sweep's decision property: over random kernels and a kernel with
// every counter at 1e308 (its times are +Inf, and NaN once a ratio of 0
// multiplies them), at headrooms 0, ±Inf, NaN, a PPK headroom just
// above the fail-safe's time and the median time, bare and through a
// Calibrated with a ratio installed, the sweep that prices power only
// on the feasible product returns the Config, the Est bits, Evals and
// Feasible of the per-configuration scalar fill and of the unbounded
// sweep.
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
	est := make([]predict.Estimate, space.Size())
	for i, cs := range sets {
		fsEst := m.PredictKernel(cs, fs)
		// calibrated returns the policy stack over inner with a ratio
		// for cs's signature: for the 1e308 kernel a finite measured
		// time over an infinite prediction makes the time ratio 0.
		calibrated := func(inner predict.Model) *predict.Calibrated {
			cal := predict.NewCalibrated(inner)
			cal.Feedback(cs, fs, math.Min(fsEst.TimeMS*0.8, 1e6)+rng.Float64(), fsEst.GPUPowerW*1.15)
			return cal
		}
		m.PredictSpace(cs, space, est)
		times := make([]float64, len(est))
		for r := range est {
			times[r] = est[r].TimeMS
		}
		slices.Sort(times)
		heads := []float64{0, fsEst.TimeMS * 1.05, times[len(times)/2], math.Inf(1), math.Inf(-1), math.NaN()}
		for _, ratio := range []bool{false, true} {
			seed := rng.Int63()
			stack := func(inner predict.Model) predict.Model {
				rng.Seed(seed) // the same feedback for every stack
				if !ratio {
					return inner
				}
				return calibrated(inner)
			}
			bounded := NewOptimizer(stack(m), space)
			unbounded := NewOptimizer(unboundedOnly{stack(m)}, space)
			scalar := NewOptimizer(scalarOnly{stack(m)}, space)
			for _, head := range heads {
				label := fmt.Sprintf("set %d ratio=%v headroom %v", i, ratio, head)
				got := bounded.ExhaustiveSearch(cs, head)
				sameClimbResult(t, label+" vs unbounded", got, unbounded.ExhaustiveSearch(cs, head))
				sameClimbResult(t, label+" vs scalar", got, scalar.ExhaustiveSearch(cs, head))
				if got.Evals != space.Size() {
					t.Fatalf("%s: %d evals, want %d", label, got.Evals, space.Size())
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
		o := NewOptimizer(model, space)
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

// TestExhaustiveBatchedDeclinesScalarModels checks the fallback: a
// model without a batched path (the oracle) fills the sweep through the
// scalar path.
func TestExhaustiveBatchedDeclinesScalarModels(t *testing.T) {
	k := kernel.NewBalanced("b", 1)
	o := NewOptimizer(oracleFor(k), hw.DefaultSpace())
	if o.fillBatched(k.Counters(), math.Inf(1)) {
		t.Fatal("batched fill accepted a model with no BoundedSpaceEvaluator")
	}
	res := o.ExhaustiveSearch(k.Counters(), math.Inf(1))
	if !res.Feasible || res.Evals != o.Space.Size() {
		t.Fatalf("scalar fallback broken: %+v", res)
	}
}

// TestEvalCacheHitZeroAlloc pins eval at zero allocations over a model
// that allocates nothing, on a first visit and on a revisit: marking a
// configuration priced sets a bit in the record's fixed-size set.
func TestEvalCacheHitZeroAlloc(t *testing.T) {
	o := NewOptimizer(constModel{est: predict.Estimate{TimeMS: 1, GPUPowerW: 10}}, hw.DefaultSpace())
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		cache := evalCache{o: o}
		cfg := o.Space.At(i % o.Space.Size())
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
	o := NewOptimizer(m, hw.DefaultSpace())
	o.ExhaustiveSearch(cs, math.Inf(1)) // warm up the sweep buffers and plan
	if allocs := testing.AllocsPerRun(20, func() { o.ExhaustiveSearch(cs, math.Inf(1)) }); allocs != 0 {
		t.Fatalf("warm batched exhaustive allocates %v times per sweep, want 0", allocs)
	}
}
