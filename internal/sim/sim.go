// Package sim executes GPGPU applications under a power-management
// policy against the ground-truth hardware model, with the same
// accounting the paper uses: per-kernel time and energy split into GPU
// (including NB) and CPU domains, plus the time and energy overhead of
// running the optimizer itself on the host CPU between kernels (§V).
//
// It also provides the AMD Turbo Core baseline — the state-of-the-practice
// controller every figure normalizes against — and the repeated-execution
// runner behind the Fig. 11 amortization study.
package sim

import (
	"fmt"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/telemetry"
	"mpcdvfs/internal/thermal"
	"mpcdvfs/internal/workload"
)

// CostModel converts a policy's predictor-evaluation count into host-CPU
// optimization time. The paper measures this overhead directly on the
// A10-7850K; we charge it per model evaluation, which preserves the
// complexity separation between greedy hill climbing
// (|cpu|+|nb|+|gpu|+|cu| evals), exhaustive per-kernel search (M evals)
// and exhaustive MPC (M^H evals).
type CostModel struct {
	PerEvalMS float64 // host time per predictor evaluation
	PerKnobMS float64 // fixed cost per decision (bookkeeping, headroom update)
	PowerW    float64 // chip power while optimizing (CPU busy + GPU idle)
	// TransitionMS charges a DVFS/CU reconfiguration stall per knob whose
	// state differs from the previous kernel's configuration (voltage
	// ramps and CU power gating are not free on real silicon). The paper
	// ignores transition costs; zero (the default) reproduces that, and
	// the transitionablation experiment quantifies the sensitivity.
	TransitionMS float64
}

// DefaultCostModel matches the paper's setup: the MPC framework runs on
// the host CPU at [P5, NB0, DPM0, 2 CUs] (§V) between kernels, in the
// worst case with no CPU phase to hide under. Two microseconds per
// Random-Forest evaluation makes PPK's 336-point sweep cost ~0.7 ms —
// comparable to the short kernels of hybridsort/Spmv (which is what
// forces the adaptive horizon to shrink there, Fig. 15) and negligible
// next to the tens-of-milliseconds kernels of NBody or XSBench.
func DefaultCostModel() CostModel {
	return CostModel{
		PerEvalMS: 0.002,
		PerKnobMS: 0.004,
		PowerW:    overheadPowerW(),
	}
}

// overheadPowerW estimates chip power during optimization: the host CPU
// at P5 running the optimizer plus the idle GPU/NB at the MPC framework's
// [P5, NB0, DPM0, 2 CUs] configuration. Derived from the ground-truth
// model so the accounting stays consistent with kernel energy.
func overheadPowerW() float64 {
	cfg := hw.Config{CPU: hw.P5, NB: hw.NB0, GPU: hw.DPM0, CUs: 2}
	// A zero-length probe kernel isn't representable; use a tiny one and
	// take its power, which is dominated by static/idle terms.
	probe := kernel.New(kernel.Params{
		Name: "idleprobe", Insts: 1, Threads: 1, ComputeWork: 1e-6, MemWork: 0,
		ParallelFrac: 0.5,
	})
	m := probe.Evaluate(cfg)
	return m.TotalW()
}

// OverheadMS returns the optimization time for a decision that spent
// evals predictor evaluations.
func (c CostModel) OverheadMS(evals int) float64 {
	if evals <= 0 {
		return 0
	}
	return c.PerKnobMS + c.PerEvalMS*float64(evals)
}

// Target is the performance target of Eq. 1: the Turbo Core baseline's
// aggregate kernel throughput.
type Target struct {
	TotalInsts  float64 // Itotal
	TotalTimeMS float64 // Ttotal under the baseline
}

// Throughput returns Itotal/Ttotal in instructions per millisecond.
//
// A zero TotalTimeMS returns 0 rather than dividing by zero. Callers
// must treat a zero target with care: policies given a zero throughput
// target face no performance constraint at all and will sit at their
// lowest-energy configuration. The engine's Baseline never produces one
// for a valid app (Engine.Run rejects empty apps before they can yield a
// zero-time baseline), so a zero here means either the deliberate
// unconstrained Target{} (as used for baseline runs, where the policy
// ignores the target) or a bug upstream.
func (t Target) Throughput() float64 {
	if t.TotalTimeMS == 0 {
		return 0
	}
	return t.TotalInsts / t.TotalTimeMS
}

// RunInfo is what a policy learns when an application (re)starts.
type RunInfo struct {
	AppName    string
	NumKernels int
	Target     Target
	// FirstRun is true on the first invocation of the app under this
	// policy instance — the profiling run during which the paper's
	// framework falls back to PPK while the pattern extractor learns the
	// kernel sequence (§V-B).
	FirstRun bool
}

// Decision is a policy's configuration choice for one upcoming kernel.
type Decision struct {
	Config hw.Config
	// Evals is the number of predictor evaluations spent on this
	// decision; the engine converts it to time and energy overhead.
	Evals int

	// The remaining fields are observability metadata: the engine folds
	// them into the obs.DecisionEvent/obs.FallbackEvent it emits. They do
	// not affect the simulation.

	// SearchIters is the number of per-kernel configuration searches run
	// (MPC window length, 1 for an exhaustive sweep, 0 for search-free
	// decisions).
	SearchIters int
	// Horizon is the prediction-horizon length used (0 when the policy
	// has no horizon concept or could not afford one).
	Horizon int
	// Fallback, when non-empty, names the degraded path this decision
	// took (one of the obs.Fallback* reasons).
	Fallback string
	// PredTimeMS/PredGPUPowerW carry the predictor's estimate for the
	// chosen configuration (0 when the policy made no prediction, e.g.
	// Turbo Core). The serving layer returns them to clients; the engine
	// ignores them.
	PredTimeMS    float64
	PredGPUPowerW float64
}

// Observation is the measured outcome of one kernel invocation, fed back
// to the policy — the "performance counter feedback" loop of Fig. 6.
type Observation struct {
	Index     int
	Counters  counters.Set
	Insts     float64
	TimeMS    float64
	GPUPowerW float64 // measured GPU+NB power
	CPUPowerW float64
	Config    hw.Config
	// OverheadMS is the wall time the engine actually charged for this
	// decision's optimization, after hiding under any CPU phase. The
	// adaptive horizon generator feeds on this measurement.
	OverheadMS float64
	// TempC is the die temperature after the kernel (0 if the engine's
	// thermal path is disabled). Turbo Core reacts to it.
	TempC float64
}

// Policy decides hardware configurations between successive kernels.
// Implementations live in internal/policy.
type Policy interface {
	Name() string
	// Begin resets per-run state. Policies keep cross-run state (pattern
	// knowledge) across Begin calls for the same app.
	Begin(info RunInfo)
	// Decide returns the configuration for invocation i (0-based).
	Decide(i int) Decision
	// Observe reports invocation i's measured result.
	Observe(obs Observation)
}

// KernelRecord is the accounting for one kernel invocation.
type KernelRecord struct {
	Index            int
	Kernel           string
	Config           hw.Config
	TimeMS           float64 // kernel execution time
	OverheadMS       float64 // optimizer wall time charged (after CPU-phase hiding)
	CPUPhaseMS       float64 // host CPU phase preceding the kernel (Fig. 1)
	Insts            float64
	GPUEnergyMJ      float64 // GPU+NB energy during the kernel
	CPUEnergyMJ      float64 // CPU energy during the kernel
	OverheadEnergyMJ float64 // chip energy while optimizing (hidden or not)
	CPUPhaseEnergyMJ float64 // chip energy during the CPU phase
	Evals            int
	KnobChanges      int     // knobs reconfigured relative to the previous kernel
	TempC            float64 // die temperature at kernel end (0 if thermal disabled)
	ThrottleFactor   float64 // execution stretch applied by throttling (1 = none)
}

// Result aggregates one application run.
type Result struct {
	App     string
	Policy  string
	Records []KernelRecord
}

// KernelTimeMS returns total kernel execution time, excluding overheads.
func (r *Result) KernelTimeMS() float64 {
	s := 0.0
	for _, rec := range r.Records {
		s += rec.TimeMS
	}
	return s
}

// TotalTimeMS returns wall time including optimization overheads and CPU
// phases — the number performance comparisons use ("including MPC
// overheads").
func (r *Result) TotalTimeMS() float64 {
	s := 0.0
	for _, rec := range r.Records {
		s += rec.TimeMS + rec.OverheadMS + rec.CPUPhaseMS
	}
	return s
}

// CPUPhaseMS returns total host CPU phase time.
func (r *Result) CPUPhaseMS() float64 {
	s := 0.0
	for _, rec := range r.Records {
		s += rec.CPUPhaseMS
	}
	return s
}

// OverheadMS returns total optimizer time.
func (r *Result) OverheadMS() float64 {
	s := 0.0
	for _, rec := range r.Records {
		s += rec.OverheadMS
	}
	return s
}

// TotalInsts returns total executed instructions.
func (r *Result) TotalInsts() float64 {
	s := 0.0
	for _, rec := range r.Records {
		s += rec.Insts
	}
	return s
}

// Throughput returns aggregate instruction throughput including
// overheads.
func (r *Result) Throughput() float64 {
	t := r.TotalTimeMS()
	if t == 0 {
		return 0
	}
	return r.TotalInsts() / t
}

// TotalEnergyMJ returns chip energy including optimization overhead and
// CPU phases.
func (r *Result) TotalEnergyMJ() float64 {
	s := 0.0
	for _, rec := range r.Records {
		s += rec.GPUEnergyMJ + rec.CPUEnergyMJ + rec.OverheadEnergyMJ + rec.CPUPhaseEnergyMJ
	}
	return s
}

// GPUEnergyMJ returns GPU+NB energy including the GPU's static share of
// the optimization overhead (the paper's Fig. 10 accounting).
func (r *Result) GPUEnergyMJ() float64 {
	s := 0.0
	for _, rec := range r.Records {
		s += rec.GPUEnergyMJ + rec.OverheadEnergyMJ*gpuShareOfOverhead
	}
	return s
}

// CPUEnergyMJ returns CPU energy including its share of optimization
// overhead and the CPU phases.
func (r *Result) CPUEnergyMJ() float64 {
	s := 0.0
	for _, rec := range r.Records {
		s += rec.CPUEnergyMJ + rec.OverheadEnergyMJ*(1-gpuShareOfOverhead) + rec.CPUPhaseEnergyMJ
	}
	return s
}

// OverheadEnergyMJ returns total optimization energy.
func (r *Result) OverheadEnergyMJ() float64 {
	s := 0.0
	for _, rec := range r.Records {
		s += rec.OverheadEnergyMJ
	}
	return s
}

// gpuShareOfOverhead apportions optimization-time chip power between the
// idle GPU/NB (static) and the busy CPU, for the Fig. 10 split.
const gpuShareOfOverhead = 0.25

// Evals returns the total predictor evaluations of the run.
func (r *Result) Evals() int {
	s := 0
	for _, rec := range r.Records {
		s += rec.Evals
	}
	return s
}

// Engine runs applications under policies.
type Engine struct {
	Space hw.Space
	Cost  CostModel
	// Obs receives structured runtime events (decisions, kernel
	// completions, fallbacks) and is threaded into policies that emit
	// their own (horizon changes, model errors). Nil disables
	// observability; the instrumented paths then cost one comparison per
	// kernel.
	Obs obs.Observer
	// Thermal, when non-nil, simulates die temperature and thermal
	// throttling: each kernel's execution is stretched by the current
	// throttle factor and heats the die with its average power. The
	// paper's platform manages power "under thermal constraints" (§V-B);
	// nil disables the thermal path (the default, matching the paper's
	// measurements, which never pushed the package past its envelope).
	Thermal *thermal.Params
	// Trace, when non-nil, wraps each policy decision in a root span
	// and is threaded into telemetry.Traceable policies so the decision
	// decomposes into search/featurize/forest-eval children. Tracing is
	// read-only with respect to results: a traced replay is
	// byte-identical to an untraced one (pinned by the root golden
	// test).
	Trace *telemetry.Context
}

// NewEngine returns an engine over the given configuration space with the
// default cost model.
func NewEngine(space hw.Space) *Engine {
	return &Engine{Space: space, Cost: DefaultCostModel()}
}

// Run executes app under policy p against the performance target. The
// info.FirstRun flag is passed through to the policy.
//
// A nil or empty app is rejected with a descriptive error rather than
// silently producing an empty result and a zero-throughput target
// downstream (see Target.Throughput).
func (e *Engine) Run(app *workload.App, p Policy, target Target, firstRun bool) (*Result, error) {
	if app == nil {
		return nil, fmt.Errorf("sim: Run called with nil app (policy %s)", p.Name())
	}
	if len(app.Kernels) == 0 {
		return nil, fmt.Errorf("sim: app %q has no kernels to run under policy %s — an empty app would yield a zero performance target", app.Name, p.Name())
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	o := e.Obs
	observed := obs.Enabled(o)
	if in, ok := p.(obs.Instrumentable); ok {
		// Always (re)set: a policy previously run under an instrumented
		// engine must not keep streaming to the old observer.
		if observed {
			in.SetObserver(o)
		} else {
			in.SetObserver(obs.Nop{})
		}
	}
	if tr, ok := p.(telemetry.Traceable); ok {
		// Same always-reset rule as the observer: a policy moving
		// between engines must not trace into a stale context.
		tr.SetTraceContext(e.Trace)
	}
	p.Begin(RunInfo{
		AppName:    app.Name,
		NumKernels: app.Len(),
		Target:     target,
		FirstRun:   firstRun,
	})
	res := &Result{App: app.Name, Policy: p.Name(), Records: make([]KernelRecord, 0, app.Len())}
	var die *thermal.Model
	if e.Thermal != nil {
		die = thermal.New(*e.Thermal)
	}
	for i, k := range app.Kernels {
		root := e.Trace.StartRoot(telemetry.SpanDecide, i)
		//mpclint:ignore determinism-taint CHA may-target: serve.Client.Decide only times the RPC for latency callbacks; decisions are computed server-side from replayable inputs
		d := p.Decide(i)
		root.End()
		if !d.Config.Valid() {
			return nil, fmt.Errorf("sim: policy %s returned invalid config %v for kernel %d", p.Name(), d.Config, i)
		}
		if !e.Space.Contains(d.Config) {
			return nil, fmt.Errorf("sim: policy %s chose %v outside the engine's space", p.Name(), d.Config)
		}
		m := k.Evaluate(d.Config)
		timeMS := m.TimeMS
		throttle := 1.0
		if die != nil {
			// Firmware throttling stretches execution; the kernel's
			// energy is unchanged (lower clocks, same joules) while its
			// average power drops. The stretched run then heats the die.
			throttle = die.ThrottleFactor()
			timeMS *= throttle
			die.Step(m.TotalW()/throttle, timeMS)
		}
		rawOvMS := e.Cost.OverheadMS(d.Evals)
		gap := app.CPUGapMS(i)
		// Optimization runs concurrently with the host CPU phase when one
		// exists: only the excess shows up as wall time (§VI-E).
		ovMS := rawOvMS - gap
		if ovMS < 0 {
			ovMS = 0
		}
		// DVFS transition stalls cannot hide under CPU phases: the GPU
		// waits for the rail to settle.
		knobChanges := 0
		if i > 0 {
			knobChanges = KnobDiff(res.Records[i-1].Config, d.Config)
		}
		transMS := float64(knobChanges) * e.Cost.TransitionMS
		ovMS += transMS
		rawOvMS += transMS
		tempC := 0.0
		if die != nil {
			tempC = die.TempC()
		}
		rec := KernelRecord{
			Index:            i,
			Kernel:           k.Name(),
			Config:           d.Config,
			TimeMS:           timeMS,
			OverheadMS:       ovMS,
			CPUPhaseMS:       gap,
			Insts:            k.Insts(),
			GPUEnergyMJ:      m.GPUEnergyMJ(),
			CPUEnergyMJ:      m.CPUEnergyMJ(),
			OverheadEnergyMJ: rawOvMS * e.Cost.PowerW,
			CPUPhaseEnergyMJ: gap * cpuPhasePowerW,
			Evals:            d.Evals,
			KnobChanges:      knobChanges,
			TempC:            tempC,
			ThrottleFactor:   throttle,
		}
		res.Records = append(res.Records, rec)
		if observed {
			Report(o, res.Policy, app.Name, d, rec)
		}
		p.Observe(Observation{
			Index:      i,
			Counters:   k.Counters(),
			Insts:      k.Insts(),
			TimeMS:     timeMS,
			GPUPowerW:  (m.GPUW + m.NBW) / throttle,
			CPUPowerW:  m.CPUW / throttle,
			Config:     d.Config,
			OverheadMS: ovMS,
			TempC:      tempC,
		})
	}
	return res, nil
}

// Report emits the events of one executed kernel, in order: the
// decision d that chose it (with rec's config, evals, charged overhead
// and knob changes), its fallback when d took one, and the kernel's
// measured accounting rec. The engine reports every kernel it runs; a
// served session reports each kernel its client measured.
func Report(o obs.Observer, policy, app string, d Decision, rec KernelRecord) {
	o.OnDecision(obs.DecisionEvent{
		Policy:      policy,
		App:         app,
		Index:       rec.Index,
		Config:      rec.Config,
		Evals:       rec.Evals,
		SearchIters: d.SearchIters,
		Horizon:     d.Horizon,
		OverheadMS:  rec.OverheadMS,
		KnobChanges: rec.KnobChanges,
	})
	if d.Fallback != "" {
		o.OnFallback(obs.FallbackEvent{
			Policy: policy, App: app, Index: rec.Index, Reason: d.Fallback,
		})
	}
	o.OnKernelDone(obs.KernelEvent{
		Policy:           policy,
		App:              app,
		Index:            rec.Index,
		Kernel:           rec.Kernel,
		Config:           rec.Config,
		TimeMS:           rec.TimeMS,
		OverheadMS:       rec.OverheadMS,
		CPUPhaseMS:       rec.CPUPhaseMS,
		Insts:            rec.Insts,
		GPUEnergyMJ:      rec.GPUEnergyMJ,
		CPUEnergyMJ:      rec.CPUEnergyMJ,
		OverheadEnergyMJ: rec.OverheadEnergyMJ,
		CPUPhaseEnergyMJ: rec.CPUPhaseEnergyMJ,
		Evals:            rec.Evals,
		TempC:            rec.TempC,
		ThrottleFactor:   rec.ThrottleFactor,
	})
}

// KnobDiff counts the knobs whose state differs between two
// configurations: the knob changes a decision costs after the previous
// kernel ran at a.
func KnobDiff(a, b hw.Config) int {
	n := 0
	if a.CPU != b.CPU {
		n++
	}
	if a.NB != b.NB {
		n++
	}
	if a.GPU != b.GPU {
		n++
	}
	if a.CUs != b.CUs {
		n++
	}
	return n
}

// MaxTempC returns the hottest die temperature of the run (0 if the
// thermal path is disabled).
func (r *Result) MaxTempC() float64 {
	max := 0.0
	for _, rec := range r.Records {
		if rec.TempC > max {
			max = rec.TempC
		}
	}
	return max
}

// ThrottledMS returns the execution time added by thermal throttling.
func (r *Result) ThrottledMS() float64 {
	s := 0.0
	for _, rec := range r.Records {
		if rec.ThrottleFactor > 1 {
			s += rec.TimeMS * (1 - 1/rec.ThrottleFactor)
		}
	}
	return s
}

// KnobChanges returns the total knob reconfigurations of the run.
func (r *Result) KnobChanges() int {
	s := 0
	for _, rec := range r.Records {
		s += rec.KnobChanges
	}
	return s
}

// cpuPhasePowerW is chip power while the host runs a CPU phase between
// kernels: the CPU busy at a boosted state plus the idle GPU. CPU phases
// cost the same under every policy, so this only dilutes percentages,
// but the accounting must still close.
var cpuPhasePowerW = kernel.CPUPowerW(hw.P2) + 6.0

// RunRepeated executes app under p for `times` consecutive invocations
// (the Fig. 11 amortization study): the first run is flagged FirstRun,
// and the policy carries its learned pattern knowledge forward.
func (e *Engine) RunRepeated(app *workload.App, p Policy, target Target, times int) ([]*Result, error) {
	if times <= 0 {
		return nil, fmt.Errorf("sim: RunRepeated needs times > 0")
	}
	out := make([]*Result, 0, times)
	for r := 0; r < times; r++ {
		res, err := e.Run(app, p, target, r == 0)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// Comparison summarizes a policy result against a baseline result, in the
// paper's reporting conventions.
type Comparison struct {
	EnergySavingsPct    float64 // 100·(1 − E/E_base), chip-wide incl overheads
	GPUEnergySavingsPct float64 // 100·(1 − E_gpu/E_gpu_base)
	Speedup             float64 // T_base / T (≥ 1 is faster), incl overheads
}

// Compare computes the standard paper metrics of res against base.
func Compare(res, base *Result) Comparison {
	return Comparison{
		EnergySavingsPct:    100 * (1 - res.TotalEnergyMJ()/base.TotalEnergyMJ()),
		GPUEnergySavingsPct: 100 * (1 - res.GPUEnergyMJ()/base.GPUEnergyMJ()),
		Speedup:             base.TotalTimeMS() / res.TotalTimeMS(),
	}
}
