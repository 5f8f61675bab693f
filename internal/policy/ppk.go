// Package policy implements the power-management schemes the paper
// evaluates as sim.Policy implementations: Predict Previous Kernel (the
// state-of-the-art history-based scheme), Theoretically Optimal (the
// impractical global optimum), and MPC (the paper's contribution, wiring
// the core optimizer, pattern extractor, predictor and adaptive horizon
// together).
package policy

import (
	"mpcdvfs/internal/core"
	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/telemetry"
)

// PPK is the Predict Previous Kernel scheme (§II-E, §III): it assumes the
// kernel that just finished will repeat next, and picks the configuration
// minimizing that kernel's predicted energy subject to the cumulative
// throughput constraint of Eq. 2, via an exhaustive O(M) sweep. It
// represents history-based state of the art (Harmonia, Equalizer, …): no
// future knowledge, but full feedback.
type PPK struct {
	opt     *core.Optimizer
	calib   *predict.Calibrated
	tracker core.Tracker
	space   hw.Space

	appName string
	obsv    obs.Observer
	tc      *telemetry.Context
	last    sim.Observation
	haveObs bool
}

// NewPPK returns a PPK policy over the given predictor and space. The
// predictor is wrapped with the runtime measurement-feedback loop
// (predict.Calibrated), as in the feedback-driven schemes PPK stands for.
func NewPPK(m predict.Model, space hw.Space) *PPK {
	c := predict.NewCalibrated(m)
	return &PPK{opt: core.NewOptimizer(c, space), calib: c, space: space, obsv: obs.Nop{}}
}

// Name implements sim.Policy.
func (p *PPK) Name() string { return "ppk" }

// SetObserver implements obs.Instrumentable: PPK reports per-kernel
// prediction errors when an observer is attached.
func (p *PPK) SetObserver(o obs.Observer) {
	if o == nil {
		o = obs.Nop{}
	}
	p.obsv = o
}

// SetTraceContext implements telemetry.Traceable; tracing never
// perturbs decisions.
func (p *PPK) SetTraceContext(tc *telemetry.Context) {
	p.tc = tc
	p.opt.Trace = tc
}

// Begin implements sim.Policy.
func (p *PPK) Begin(info sim.RunInfo) {
	p.appName = info.AppName
	p.tracker.Reset(info.Target.Throughput())
	p.haveObs = false
}

// Decide implements sim.Policy.
func (p *PPK) Decide(i int) sim.Decision {
	return decidePPK(p.opt, &p.tracker, p.tc, &p.last, p.haveObs)
}

// decidePPK is the PPK decision, which PPK makes for every kernel and
// MPC for its profiling run (§V-B): it assumes the last observed kernel
// repeats and picks, with one exhaustive sweep, the lowest-energy
// configuration for it that meets the tracker's headroom. The very
// first kernel (no observation yet) runs at fail-safe, since no
// performance counters exist to predict it.
func decidePPK(opt *core.Optimizer, tr *core.Tracker, tc *telemetry.Context, last *sim.Observation, haveObs bool) sim.Decision {
	if !haveObs {
		return sim.Decision{Config: opt.FailSafe(), Evals: 0, Fallback: obs.FallbackColdStart}
	}
	head := tr.HeadroomMS(last.Insts)
	sp := tc.Start(telemetry.SpanSearch)
	res := opt.ExhaustiveSearch(last.Counters, head)
	sp.End()
	return sim.Decision{
		Config: res.Config, Evals: res.Evals, SearchIters: 1,
		PredTimeMS: res.Est.TimeMS, PredGPUPowerW: res.Est.GPUPowerW,
	}
}

// Observe implements sim.Policy.
func (p *PPK) Observe(o sim.Observation) {
	p.tracker.Add(o.Insts, o.TimeMS)
	feedback(p.obsv, p.calib, p.Name(), p.appName, o)
	p.last = o
	p.haveObs = true
}

// feedback applies an executed kernel's measurement to the calibrated
// predictor and, when a real observer is attached, reports the model
// error Feedback returns: its estimate for the executed configuration
// from before the update, against the measurement. The estimate is a
// by-product of the feedback's own lookup, so reporting costs no
// predictor evaluation.
func feedback(o obs.Observer, calib *predict.Calibrated, policy, app string, ob sim.Observation) {
	est := calib.Feedback(ob.Counters, ob.Config, ob.TimeMS, ob.GPUPowerW)
	if !obs.Enabled(o) {
		return
	}
	o.OnModelError(obs.ModelErrorEvent{
		Policy:          policy,
		App:             app,
		Index:           ob.Index,
		Config:          ob.Config,
		PredictedTimeMS: est.TimeMS,
		MeasuredTimeMS:  ob.TimeMS,
		PredictedPowerW: est.GPUPowerW,
		MeasuredPowerW:  ob.GPUPowerW,
	})
}

// record converts an observation into the extractor's stored form.
func record(obs sim.Observation) counters.Record {
	return counters.Record{Counters: obs.Counters, TimeMS: obs.TimeMS, PowerW: obs.GPUPowerW}
}
