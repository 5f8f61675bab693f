package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/predict"
)

var (
	batchedRFOnce sync.Once
	batchedRF     *predict.RandomForest
	batchedRFErr  error
)

// batchedModel trains one small Random Forest shared across the batched-
// sweep tests (the batched path only exists for compiled-forest models).
func batchedModel(t *testing.T) *predict.RandomForest {
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

// scalarOnly hides a model's batched path, so an optimizer over it
// fills every sweep per configuration through the same engine.
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

// TestExhaustiveBatchedCacheSemantics checks the decision-cache
// contract of the batched sweep: pre-seeded entries are reused without
// counting an evaluation, new entries land in the cache with the same
// values the scalar path would store, and the final count matches.
func TestExhaustiveBatchedCacheSemantics(t *testing.T) {
	m := batchedModel(t)
	space := hw.DefaultSpace()
	cs := kernel.NewComputeBound("cb", 1).Counters()

	run := func(model predict.Model) (*evalCache, climbResult) {
		o := NewOptimizer(model, space)
		cache := newEvalCache(o, cs)
		cache.eval(o.failSafe) // pre-seed, as OptimizeWindow does
		res := o.exhaustive(cache, math.Inf(1))
		return cache, res
	}
	bCache, bRes := run(m)
	sCache, sRes := run(treeWalkModel(t))

	sameClimbResult(t, "pre-seeded", bRes, sRes)
	if bRes.Evals != space.Size() {
		t.Fatalf("evals = %d with a pre-seeded fail-safe, want %d (seeded entry must not recount)",
			bRes.Evals, space.Size())
	}
	if len(bCache.seen) != len(sCache.seen) {
		t.Fatalf("batched cache holds %d entries, serial %d", len(bCache.seen), len(sCache.seen))
	}
	for c, sv := range sCache.seen {
		bv, ok := bCache.seen[c]
		if !ok {
			t.Fatalf("config %+v missing from batched cache", c)
		}
		if math.Float64bits(bv.e) != math.Float64bits(sv.e) ||
			math.Float64bits(bv.est.TimeMS) != math.Float64bits(sv.est.TimeMS) ||
			math.Float64bits(bv.est.GPUPowerW) != math.Float64bits(sv.est.GPUPowerW) {
			t.Fatalf("config %+v: batched cache %+v != serial %+v", c, bv, sv)
		}
	}
}

// TestExhaustiveBatchedDeclinesScalarModels checks the fallback: a
// model without a batched path (the oracle) fills the sweep through the
// scalar path.
func TestExhaustiveBatchedDeclinesScalarModels(t *testing.T) {
	k := kernel.NewBalanced("b", 1)
	o := NewOptimizer(oracleFor(k), hw.DefaultSpace())
	if o.fillBatched(k.Counters()) {
		t.Fatal("batched fill accepted a model with no SpaceEvaluator")
	}
	res := o.ExhaustiveSearch(k.Counters(), math.Inf(1))
	if !res.Feasible || res.Evals != o.Space.Size() {
		t.Fatalf("scalar fallback broken: %+v", res)
	}
}

// TestEvalCacheHitZeroAlloc pins the warm decision-cache path at zero
// allocations: within one decision, re-evaluating a seen configuration
// is a map hit and nothing else.
func TestEvalCacheHitZeroAlloc(t *testing.T) {
	k := kernel.NewBalanced("b", 1)
	o := NewOptimizer(oracleFor(k), hw.DefaultSpace())
	cache := newEvalCache(o, k.Counters())
	cfg := o.failSafe
	cache.eval(cfg) // miss once
	if allocs := testing.AllocsPerRun(200, func() { cache.eval(cfg) }); allocs != 0 {
		t.Fatalf("warm evalCache.eval allocates %v times per call, want 0", allocs)
	}
}

// TestEvalCachePoolWarmZeroAlloc pins the pooled decision-cache
// lifecycle at zero allocations in steady state: once a pooled cache's
// map has grown to sweep size, a full acquire / evaluate / release
// cycle reuses it without touching the allocator (clear() keeps the
// buckets). This is the per-window-kernel cost OptimizeWindow pays on
// every receding-horizon step.
func TestEvalCachePoolWarmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops 1 in 4 Puts under -race, so pooled reuse cannot be pinned at 0 allocs")
	}
	m := batchedModel(t)
	o := NewOptimizer(m, hw.DefaultSpace())
	cs := kernel.NewBalanced("b", 1).Counters()

	// Grow one pooled cache to full-sweep size, then return it.
	warm := acquireEvalCache(o, cs)
	o.Space.ForEach(func(cfg hw.Config) { warm.eval(cfg) })
	releaseEvalCache(warm)

	cfg := o.failSafe
	if allocs := testing.AllocsPerRun(200, func() {
		c := acquireEvalCache(o, cs)
		c.eval(cfg)
		releaseEvalCache(c)
	}); allocs != 0 {
		t.Fatalf("warm pooled evalCache cycle allocates %v times, want 0", allocs)
	}
}

// TestEvalCachePoolResetOnRelease pins the per-kernel isolation of the
// pool: a released cache comes back empty (no other kernel's entries,
// zero eval count) even though its map storage is reused.
func TestEvalCachePoolResetOnRelease(t *testing.T) {
	k := kernel.NewBalanced("b", 1)
	o := NewOptimizer(oracleFor(k), hw.DefaultSpace())
	c := acquireEvalCache(o, k.Counters())
	c.eval(o.failSafe)
	if c.evals != 1 || len(c.seen) != 1 {
		t.Fatalf("fresh cache after one miss: evals=%d entries=%d", c.evals, len(c.seen))
	}
	releaseEvalCache(c)
	c2 := acquireEvalCache(o, k.Counters())
	defer releaseEvalCache(c2)
	if c2.evals != 0 || len(c2.seen) != 0 {
		t.Fatalf("pooled cache not reset: evals=%d entries=%d", c2.evals, len(c2.seen))
	}
}

// TestExhaustiveBatchedSweepZeroAllocSteadyState pins the whole batched
// sweep reduction (minus the per-decision cache, which each decision
// owns) at a bounded steady state: after the first sweep builds the
// optimizer's sweep buffers and the model's plan, a sweep's only
// allocations are the decision cache's own map growth.
func TestExhaustiveBatchedSweepZeroAllocSteadyState(t *testing.T) {
	m := batchedModel(t)
	space := hw.DefaultSpace()
	cs := kernel.NewPeak("pk", 1).Counters()
	o := NewOptimizer(m, space)
	o.exhaustive(newEvalCache(o, cs), math.Inf(1)) // warm up the sweep buffers and plan

	cache := newEvalCache(o, cs)
	o.exhaustive(cache, math.Inf(1)) // fill this decision's cache
	if allocs := testing.AllocsPerRun(20, func() { o.exhaustive(cache, math.Inf(1)) }); allocs != 0 {
		t.Fatalf("warm batched exhaustive allocates %v times per sweep, want 0", allocs)
	}
}
