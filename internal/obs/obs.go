// Package obs is the structured observability layer of the MPC runtime:
// a hook API that the simulation engine and the policies call at every
// decision point of the Fig. 6 feedback loop. Consumers implement
// Observer (or compose the provided ones) to export metrics, stream
// decision events as JSONL, or log them; the default Nop observer makes
// the instrumented paths free when observability is disabled.
//
// Event producers:
//
//   - sim.Engine emits OnDecision after charging a decision's overhead,
//     OnFallback when the decision records a degraded path, and
//     OnKernelDone with the full measured accounting of the kernel; a
//     served session emits the same three (sim.Report) when its client
//     reports the kernel's measurement;
//   - policy.MPC emits OnHorizonChange when the adaptive horizon
//     generator moves, and OnModelError with the predicted-vs-measured
//     feedback of each kernel;
//   - policy.PPK emits OnModelError;
//   - sim.TurboCore reports its reactive thermal guard through the
//     decision Fallback field.
package obs

import "mpcdvfs/internal/hw"

// DecisionEvent describes one configuration decision as charged by the
// engine: what was chosen, what the search spent, and what it cost.
type DecisionEvent struct {
	Policy string    `json:"policy"` // policy name (sim.Policy.Name)
	App    string    `json:"app"`    // application name
	Index  int       `json:"index"`  // kernel invocation index within the run
	Config hw.Config `json:"config"` // configuration chosen
	// Evals is the number of predictor evaluations the decision spent.
	Evals int `json:"evals"`
	// SearchIters is the number of per-kernel configuration searches the
	// decision ran (window length for MPC, 1 for PPK's sweep, 0 for
	// search-free policies).
	SearchIters int `json:"search_iters"`
	// Horizon is the prediction-horizon length used (0 when the policy
	// has no horizon concept or could not afford one).
	Horizon int `json:"horizon"`
	// OverheadMS is the optimizer wall time charged after CPU-phase
	// hiding, including any DVFS transition stall.
	OverheadMS float64 `json:"overhead_ms"`
	// KnobChanges counts knobs reconfigured relative to the previous
	// kernel.
	KnobChanges int `json:"knob_changes"`
}

// KernelEvent is the measured outcome of one kernel invocation — the
// per-kernel accounting the engine appends to the run result.
type KernelEvent struct {
	Policy string    `json:"policy"`
	App    string    `json:"app"`
	Index  int       `json:"index"`
	Kernel string    `json:"kernel"`
	Config hw.Config `json:"config"`

	TimeMS     float64 `json:"time_ms"`
	OverheadMS float64 `json:"overhead_ms"`
	CPUPhaseMS float64 `json:"cpu_phase_ms"`
	Insts      float64 `json:"insts"`

	GPUEnergyMJ      float64 `json:"gpu_energy_mj"`
	CPUEnergyMJ      float64 `json:"cpu_energy_mj"`
	OverheadEnergyMJ float64 `json:"overhead_energy_mj"`
	CPUPhaseEnergyMJ float64 `json:"cpu_phase_energy_mj"`

	Evals          int     `json:"evals"`
	TempC          float64 `json:"temp_c"`
	ThrottleFactor float64 `json:"throttle_factor"`
}

// HorizonEvent reports a change of the adaptive prediction horizon
// (§IV-A4): the silent shrinking the issue's motivation calls out.
type HorizonEvent struct {
	Policy  string `json:"policy"`
	App     string `json:"app"`
	Index   int    `json:"index"`   // decision index at which the horizon changed
	Horizon int    `json:"horizon"` // new horizon length
	Prev    int    `json:"prev"`    // previous horizon length (-1 on the first MPC decision)
	Full    int    `json:"full"`    // N, the full-horizon bound
}

// ModelErrorEvent compares the predictor's estimate for the executed
// configuration against the measurement fed back to the policy. The
// estimate is the calibrated one from before this measurement's
// feedback (predict.Calibrated.Feedback returns it); every model-error
// consumer — the prediction-error histogram, the model scoreboard and
// the energy ledger — reads this one event.
type ModelErrorEvent struct {
	Policy string    `json:"policy"`
	App    string    `json:"app"`
	Index  int       `json:"index"`
	Config hw.Config `json:"config"` // the executed configuration

	PredictedTimeMS float64 `json:"predicted_time_ms"`
	MeasuredTimeMS  float64 `json:"measured_time_ms"`
	PredictedPowerW float64 `json:"predicted_power_w"` // GPU+NB power
	MeasuredPowerW  float64 `json:"measured_power_w"`
}

// TimeError returns the relative time error |pred−meas|/meas (0 when the
// measurement is non-positive).
func (e ModelErrorEvent) TimeError() float64 {
	return relErr(e.PredictedTimeMS, e.MeasuredTimeMS)
}

// PowerError returns the relative power error |pred−meas|/meas.
func (e ModelErrorEvent) PowerError() float64 {
	return relErr(e.PredictedPowerW, e.MeasuredPowerW)
}

func relErr(pred, meas float64) float64 {
	if meas <= 0 {
		return 0
	}
	d := pred - meas
	if d < 0 {
		d = -d
	}
	return d / meas
}

// Fallback reasons reported through FallbackEvent and
// sim.Decision.Fallback.
const (
	// FallbackColdStart: no performance counters exist yet, fail-safe
	// applied (§V-B first kernel).
	FallbackColdStart = "cold-start"
	// FallbackProfiling: MPC's first invocation runs PPK while the
	// pattern extractor learns the kernel sequence (§V-B).
	FallbackProfiling = "profiling"
	// FallbackZeroHorizon: the adaptive horizon hit zero — optimization
	// is unaffordable, fail-safe applied.
	FallbackZeroHorizon = "zero-horizon"
	// FallbackPatternDivergence: the app diverged from its recorded
	// kernel sequence; MPC degraded to history-based behaviour.
	FallbackPatternDivergence = "pattern-divergence"
	// FallbackThermalGuard: Turbo Core's reactive thermal guard shed CPU
	// power.
	FallbackThermalGuard = "thermal-guard"
)

// FallbackEvent reports that a decision took a degraded path rather than
// the policy's steady-state behaviour.
type FallbackEvent struct {
	Policy string `json:"policy"`
	App    string `json:"app"`
	Index  int    `json:"index"`
	Reason string `json:"reason"` // one of the Fallback* constants
}

// Observer receives runtime events. Implementations must be safe for
// concurrent use when the engine they observe is shared across
// goroutines; all callbacks are invoked synchronously on the simulation
// path, so heavy work should be deferred.
type Observer interface {
	OnDecision(DecisionEvent)
	OnKernelDone(KernelEvent)
	OnHorizonChange(HorizonEvent)
	OnModelError(ModelErrorEvent)
	OnFallback(FallbackEvent)
}

// Nop is the disabled observer: every callback is empty, and producers
// use Enabled to skip event construction entirely, so instrumentation
// costs nothing when observability is off.
type Nop struct{}

// OnDecision implements Observer.
func (Nop) OnDecision(DecisionEvent) {}

// OnKernelDone implements Observer.
func (Nop) OnKernelDone(KernelEvent) {}

// OnHorizonChange implements Observer.
func (Nop) OnHorizonChange(HorizonEvent) {}

// OnModelError implements Observer.
func (Nop) OnModelError(ModelErrorEvent) {}

// OnFallback implements Observer.
func (Nop) OnFallback(FallbackEvent) {}

// Enabled reports whether o is a real observer (non-nil and not Nop).
// Producers guard event construction with it so the disabled path costs
// one comparison.
func Enabled(o Observer) bool {
	if o == nil {
		return false
	}
	_, nop := o.(Nop)
	return !nop
}

// Instrumentable is implemented by policies that emit their own events
// (horizon changes, model errors). The engine threads its observer into
// such policies at the start of every run.
type Instrumentable interface {
	SetObserver(Observer)
}

// multi fans events out to several observers.
type multi []Observer

// Multi composes observers, dropping nil and Nop entries. It returns Nop
// when nothing remains and the observer itself when only one does.
func Multi(os ...Observer) Observer {
	var m multi
	for _, o := range os {
		if Enabled(o) {
			m = append(m, o)
		}
	}
	switch len(m) {
	case 0:
		return Nop{}
	case 1:
		return m[0]
	}
	return m
}

// OnDecision implements Observer.
func (m multi) OnDecision(e DecisionEvent) {
	for _, o := range m {
		o.OnDecision(e)
	}
}

// OnKernelDone implements Observer.
func (m multi) OnKernelDone(e KernelEvent) {
	for _, o := range m {
		o.OnKernelDone(e)
	}
}

// OnHorizonChange implements Observer.
func (m multi) OnHorizonChange(e HorizonEvent) {
	for _, o := range m {
		o.OnHorizonChange(e)
	}
}

// OnModelError implements Observer.
func (m multi) OnModelError(e ModelErrorEvent) {
	for _, o := range m {
		o.OnModelError(e)
	}
}

// OnFallback implements Observer.
func (m multi) OnFallback(e FallbackEvent) {
	for _, o := range m {
		o.OnFallback(e)
	}
}
