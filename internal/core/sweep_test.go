package core

import (
	"math"
	"testing"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/telemetry"
)

// constModel predicts the same estimate for every configuration, so
// every feasible configuration ties on energy apart from the CPU power
// term; within one CPU state the tie is total. It has no batched path.
type constModel struct{ est predict.Estimate }

func (constModel) Name() string { return "const" }
func (m constModel) PredictKernel(counters.Set, hw.Config) predict.Estimate {
	return m.est
}

// constSpaceModel is constModel with a bounded sweep that prices every
// row, which the bounded contract allows.
type constSpaceModel struct{ constModel }

func (m constSpaceModel) PredictSpaceWithin(_ counters.Set, _ hw.Space, dst []predict.Estimate, _ predict.SweepBound, _ *telemetry.Context) bool {
	for i := range dst {
		dst[i] = m.est
	}
	return true
}

// TestExhaustiveTieBreak checks the reduce's tie-break under both
// fills: among equal-energy configurations the lowest Space.At index
// wins.
func TestExhaustiveTieBreak(t *testing.T) {
	space := hw.DefaultSpace()
	m := constModel{est: predict.Estimate{TimeMS: 1, GPUPowerW: 10}}
	minE, first, ties := math.Inf(1), -1, 0
	for i := 0; i < space.Size(); i++ {
		switch e := predict.EnergyMJ(m.est, space.At(i)); {
		case e < minE:
			minE, first, ties = e, i, 1
		case e == minE:
			ties++
		}
	}
	if ties < 2 {
		t.Fatalf("fixture has %d minimum-energy configurations, want a tie", ties)
	}
	for _, model := range []predict.Model{m, constSpaceModel{m}} {
		got := NewOptimizer(predict.NewCalibrated(model), space).ExhaustiveSearch(counters.Set{}, 2)
		if !got.Feasible || got.Config != space.At(first) || got.Evals != space.Size() {
			t.Fatalf("%T: got %+v, want config %v (At %d) with %d evals",
				model, got, space.At(first), first, space.Size())
		}
	}
}

// countingModel counts its scalar calls; it has no batched path.
type countingModel struct {
	inner predict.Model
	calls int
}

func (c *countingModel) Name() string { return c.inner.Name() }
func (c *countingModel) PredictKernel(cs counters.Set, cfg hw.Config) predict.Estimate {
	c.calls++
	return c.inner.PredictKernel(cs, cfg)
}

// TestExhaustiveScalarFillReusesSeed checks the scalar fill's decision
// record: a pre-seeded fail-safe (as OptimizeWindow seeds it) is counted
// once, and the sweep asks the model for every configuration, the seed
// included, because neither the record nor a Calibrated without a memo
// keeps estimates: n+1 calls in all. (TestExhaustiveBatchedCacheSemantics
// covers the batched fill.)
func TestExhaustiveScalarFillReusesSeed(t *testing.T) {
	k := kernel.NewMemoryBound("mb", 1)
	m := &countingModel{inner: oracleFor(k)}
	o := NewOptimizer(predict.NewCalibrated(m), hw.DefaultSpace())
	cache := evalCache{o: o, cs: k.Counters()}
	cache.eval(o.failSafe)
	res := o.exhaustive(&cache, math.Inf(1))
	n := o.space.Size()
	if m.calls != n+1 || res.Evals != n || cache.evals != n {
		t.Fatalf("pre-seeded scalar sweep: %d model calls, %d evals (record %d); want %d calls and %d evals",
			m.calls, res.Evals, cache.evals, n+1, n)
	}
}
