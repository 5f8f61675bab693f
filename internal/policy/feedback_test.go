package policy

import (
	"testing"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/sim"
)

// countingModel counts scalar predictions.
type countingModel struct {
	inner predict.Model
	calls int
}

func (c *countingModel) Name() string { return "counting" }
func (c *countingModel) PredictKernel(cs counters.Set, cfg hw.Config) predict.Estimate {
	c.calls++
	return c.inner.PredictKernel(cs, cfg)
}

// observeCounter wraps a policy and records how many predictions each
// Observe made, and whether the policy's run kept a memo (MPC's
// steady-state runs do; PPK's and MPC's profiling runs do not).
type observeCounter struct {
	sim.Policy
	m      *countingModel
	perObs []int
	memo   []bool
}

func (o *observeCounter) SetObserver(ob obs.Observer) { o.Policy.(obs.Instrumentable).SetObserver(ob) }

func (o *observeCounter) Observe(ob sim.Observation) {
	mpc, ok := o.Policy.(*MPC)
	o.memo = append(o.memo, ok && !mpc.Profiling())
	before := o.m.calls
	o.Policy.Observe(ob)
	o.perObs = append(o.perObs, o.m.calls-before)
}

// TestObserveOnePredictionPerObservation pins the single model-error
// computation: without a memo an observation costs MPC and PPK exactly
// one predictor evaluation, the feedback's, and with one at most one,
// because the feedback's query is usually one its decision priced. The
// bound holds with or without an observer attached, because the
// reported model error is the estimate Feedback returns.
func TestObserveOnePredictionPerObservation(t *testing.T) {
	f := newFixture(t, "Spmv")
	for _, observer := range []obs.Observer{nil, obs.NewMetrics(metrics.New())} {
		for _, mk := range []func(predict.Model) sim.Policy{
			func(m predict.Model) sim.Policy { return NewMPC(m, f.eng.Space) },
			func(m predict.Model) sim.Policy { return NewPPK(m, f.eng.Space) },
		} {
			cm := &countingModel{inner: f.oracle}
			p := &observeCounter{Policy: mk(cm), m: cm}
			f.eng.Obs = observer
			if _, err := f.eng.RunRepeated(&f.app, p, f.target, 2); err != nil {
				t.Fatal(err)
			}
			answered := 0
			for i, n := range p.perObs {
				switch {
				case !p.memo[i] && n != 1:
					t.Fatalf("%s, observer %T: observation %d made %d predictions without a memo, want 1", p.Name(), observer, i, n)
				case p.memo[i] && n > 1:
					t.Fatalf("%s, observer %T: observation %d made %d predictions with a memo, want at most 1", p.Name(), observer, i, n)
				case p.memo[i] && n == 0:
					answered++
				}
			}
			if p.Name() == "mpc" && answered == 0 {
				t.Fatalf("observer %T: the memo answered no steady-state feedback", observer)
			}
		}
	}
}
