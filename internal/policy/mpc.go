package policy

import (
	"fmt"
	"math"
	"slices"

	"mpcdvfs/internal/core"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/pattern"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/telemetry"
)

// MPC is the paper's power-management scheme (Fig. 6): a model-predictive
// controller that, between kernels, optimizes a receding window of
// expected future kernels and applies the decision for the current one.
//
// Lifecycle per application (§V-B, Fig. 11): the first invocation runs
// PPK while the pattern extractor records kernel signatures, counters and
// the PPK optimization overhead T_PPK; from the second invocation onward
// the search order, adaptive horizon generator and stored kernel records
// drive true MPC decisions. One MPC instance serves one application.
type MPC struct {
	opt   *core.Optimizer
	calib *predict.Calibrated
	space hw.Space

	// Alpha is the total performance-loss bound for the adaptive horizon
	// (default core.DefaultAlpha = 5%).
	alpha float64
	// fullHorizon disables horizon adaptation (the §VI-E ablation).
	fullHorizon bool
	// naiveOrder disables the search-order heuristic (ordering ablation).
	naiveOrder bool

	ext *pattern.Extractor

	// obsv receives the policy's own events (horizon changes, model
	// errors); the engine threads its observer in via SetObserver. Never
	// nil — obs.Nop when observability is disabled.
	obsv obs.Observer

	// tc is the decision-path trace context threaded in via
	// SetTraceContext (nil when tracing is off); it also rides on the
	// optimizer so its sweeps' featurize and forest-eval spans land in
	// the same trace. The hill climb's scalar predictor calls get no
	// span: the decision counts them (Evals).
	tc *telemetry.Context

	// Cross-run state.
	appName       string
	profile       core.Profile
	rank          []int
	horizon       *core.HorizonGen
	ppkOverheadMS float64

	// suffixDeficit[j] is the total execution time (ms) by which kernels
	// j..N-1 are expected to exceed their individual throughput
	// allowances even at the fail-safe configuration. The tracker
	// reserves this headroom so that kernels outside a shortened horizon
	// still get the banked time they need — the §IV-A1b behaviour of
	// adjusting headroom using the "performance behavior of future
	// kernels" from the pattern extractor. Recomputed on each run's first
	// decision; empty until then and while profiling.
	suffixDeficit []float64
	// win is the decision window's buffer. Begin sizes it and
	// suffixDeficit's storage for a steady-state run, whose n is the
	// profiled kernel count (never a profiling run's caller-supplied
	// count), so steady-state decisions allocate nothing.
	win []core.WindowKernel

	// Per-run state.
	tracker   core.Tracker
	profiling bool
	n         int
	elapsedMS float64
	last      sim.Observation
	haveObs   bool
	// lastHorizon is the previous decision's horizon length, for
	// OnHorizonChange edge detection (-1 before the first MPC decision
	// of a run).
	lastHorizon int

	// Horizon statistics for Fig. 15.
	horizonSum float64
	horizonCnt int
}

// MPCOption configures an MPC policy.
type MPCOption func(*MPC)

// WithAlpha overrides the performance-loss bound α.
func WithAlpha(a float64) MPCOption { return func(m *MPC) { m.alpha = a } }

// WithFullHorizon disables the adaptive horizon: every decision optimizes
// over all remaining kernels regardless of overhead (§VI-E ablation).
func WithFullHorizon() MPCOption { return func(m *MPC) { m.fullHorizon = true } }

// WithExhaustiveSearch replaces greedy hill climbing with a full sweep
// per window kernel — the search-cost ablation.
func WithExhaustiveSearch() MPCOption {
	return func(m *MPC) { m.opt.UseExhaustive = true }
}

// WithExecutionOrder replaces the above/below-target search-order
// heuristic with plain execution order — the ordering ablation.
func WithExecutionOrder() MPCOption { return func(m *MPC) { m.naiveOrder = true } }

// NewMPC returns an MPC policy using the given predictor and
// configuration space. Optimization overhead is measured, not assumed:
// the engine reports the wall time it charged for each decision (after
// any CPU-phase hiding) and the adaptive horizon feeds on those
// measurements.
func NewMPC(model predict.Model, space hw.Space, opts ...MPCOption) *MPC {
	c := predict.NewCalibrated(model)
	m := &MPC{
		opt:   core.NewOptimizer(c, space),
		calib: c,
		space: space,
		alpha: core.DefaultAlpha,
		ext:   pattern.New(),
		obsv:  obs.Nop{},
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// SetObserver implements obs.Instrumentable: the engine threads its
// observer in before every run so MPC can report horizon changes and
// prediction errors.
func (m *MPC) SetObserver(o obs.Observer) {
	if o == nil {
		o = obs.Nop{}
	}
	m.obsv = o
}

// SetTraceContext implements telemetry.Traceable: the serving session
// (or the engine) threads its trace context in so decisions decompose
// into search/featurize/forest-eval spans. Tracing never perturbs
// decisions.
func (m *MPC) SetTraceContext(tc *telemetry.Context) {
	m.tc = tc
	m.opt.Trace = tc
}

// Name implements sim.Policy.
func (m *MPC) Name() string {
	if m.fullHorizon {
		return "mpc-full-horizon"
	}
	return "mpc"
}

// Begin implements sim.Policy.
func (m *MPC) Begin(info sim.RunInfo) {
	if m.appName == "" {
		m.appName = info.AppName
	} else if m.appName != info.AppName {
		panic(fmt.Sprintf("policy: MPC instance for %s reused on %s", m.appName, info.AppName))
	}
	m.ext.BeginRun()
	m.tracker.Reset(info.Target.Throughput())
	m.n = info.NumKernels
	m.elapsedMS = 0
	m.haveObs = false
	m.lastHorizon = -1

	m.profiling = info.FirstRun || len(m.profile.Insts) != m.n
	m.suffixDeficit = m.suffixDeficit[:0]
	if !m.profiling && m.rank == nil {
		if m.naiveOrder {
			m.rank = make([]int, m.n)
			for i := range m.rank {
				m.rank[i] = i
			}
		} else {
			order, err := core.BuildSearchOrder(m.profile, info.Target.Throughput())
			if err != nil {
				// Profiling produced unusable data; stay in profiling mode.
				m.profiling = true
				return
			}
			m.rank = core.RankOf(order)
		}
		m.horizon = core.NewHorizonGen(m.alpha, m.n, info.Target.TotalTimeMS, m.ppkOverheadMS)
	}
	if !m.profiling {
		m.win = slices.Grow(m.win[:0], m.n)
		m.suffixDeficit = slices.Grow(m.suffixDeficit, m.n+1)
	}
	// A steady-state run prices the same expected kernels at the same
	// configurations decision after decision, so it memoizes the raw
	// model's answers for the run. A profiling run's searches are
	// batched sweeps, which the memo never sees, so it keeps none (nor
	// does the early return above: no steady-state run has begun yet).
	m.calib.BeginRun(!m.profiling)
}

// Profiling reports whether the policy is in its PPK profiling run.
func (m *MPC) Profiling() bool { return m.profiling }

// Decide implements sim.Policy.
func (m *MPC) Decide(i int) sim.Decision {
	if m.profiling {
		d := decidePPK(m.opt, &m.tracker, m.tc, &m.last, m.haveObs)
		// The profiling run is the §V-B PPK fallback while the pattern
		// extractor learns; record it as such (the cold-start reason of
		// the very first kernel takes precedence).
		if d.Fallback == "" {
			d.Fallback = obs.FallbackProfiling
		}
		return d
	}
	return m.decideMPC(i)
}

// decideMPC is the steady-state behaviour: adaptive horizon, windowed
// optimization in search order, receding application.
//
//mpclint:hotpath steady-state run pinned at 0 allocs by TestMPCSteadyStateRunZeroAlloc
func (m *MPC) decideMPC(i int) sim.Decision {
	extraEvals := 0
	if len(m.suffixDeficit) == 0 {
		extraEvals = m.computeDeficits()
	}

	h := m.n
	if !m.fullHorizon {
		h = m.horizon.Horizon(i+1, m.elapsedMS)
	}
	m.horizonSum += float64(h)
	m.horizonCnt++
	if h != m.lastHorizon && obs.Enabled(m.obsv) {
		//mpclint:ignore hotpath-alloc observer interface call; the deployed obs.Metrics sink is pinned with the whole run at 0 allocs by TestMPCSteadyStateRunZeroAlloc
		m.obsv.OnHorizonChange(obs.HorizonEvent{
			Policy: m.Name(), App: m.appName, Index: i,
			Horizon: h, Prev: m.lastHorizon, Full: m.n,
		})
	}
	m.lastHorizon = h
	if h <= 0 {
		// Cannot afford any optimization: guard with the fail-safe.
		return sim.Decision{Config: m.opt.FailSafe(), Evals: extraEvals, Fallback: obs.FallbackZeroHorizon}
	}

	win := m.win[:0]
	end := i + h
	if end > m.n {
		end = m.n
	}
	for j := i; j < end; j++ {
		rec, ok := m.ext.Expect(j)
		if !ok {
			end = j
			break
		}
		//mpclint:ignore hotpath-alloc stays within the n-kernel capacity Begin reserved (the window ends at n); TestMPCSteadyStateRunZeroAlloc pins a steady-state run at 0 allocs
		win = append(win, core.WindowKernel{
			ExecIndex: j,
			Rec:       rec,
			ExpInsts:  pattern.ExpectedInsts(rec),
			Rank:      m.rank[j],
		})
	}
	if len(win) == 0 {
		// Pattern knowledge ran out (e.g. the app diverged from its
		// recorded sequence): fall back to history-based behaviour.
		//mpclint:ignore hotpath-alloc pattern-divergence fallback: an exhaustive PPK sweep through the model interface, off the steady state TestMPCSteadyStateRunZeroAlloc pins
		d := decidePPK(m.opt, &m.tracker, m.tc, &m.last, m.haveObs)
		d.Evals += extraEvals
		d.Horizon = h
		d.Fallback = obs.FallbackPatternDivergence
		return d
	}

	// Reserve the future deficit beyond the window: kernels the horizon
	// cannot see must still find their banked time when they arrive.
	tr := &m.tracker
	if res := m.reservedBeyond(end); res > 0 {
		reserved := m.tracker
		reserved.Add(0, res)
		tr = &reserved
	}
	sp := m.tc.Start(telemetry.SpanSearch)
	cfg, est, evals := m.opt.OptimizeWindow(win, tr)
	sp.End()
	return sim.Decision{
		Config: cfg, Evals: evals + extraEvals, SearchIters: len(win), Horizon: h,
		PredTimeMS: est.TimeMS, PredGPUPowerW: est.GPUPowerW,
	}
}

// computeDeficits fills suffixDeficit from the pattern extractor's
// expected kernels: deficit_j = max(0, E[T_j at fail-safe] − E[I_j]/target).
// One predictor evaluation per kernel, charged to the decision that
// triggered it; it reads only the time, so it prices no power.
func (m *MPC) computeDeficits() (evals int) {
	def := m.suffixDeficit[:m.n+1]
	clear(def)
	tp := m.tracker.TargetThroughput()
	for j := 0; j < m.n; j++ {
		rec, ok := m.ext.Expect(j)
		if !ok {
			continue
		}
		t := m.calib.PredictKernelWithin(rec.Counters, m.opt.FailSafe(), math.Inf(-1)).TimeMS
		evals++
		if tp > 0 {
			allowance := pattern.ExpectedInsts(rec) / tp
			if d := t - allowance; d > 0 {
				def[j] = d
			}
		}
	}
	// Suffix sums: suffixDeficit[j] = Σ_{k ≥ j} def[k].
	for j := m.n - 1; j >= 0; j-- {
		def[j] += def[j+1]
	}
	m.suffixDeficit = def
	return evals
}

// reservedBeyond returns the headroom to reserve for kernels at or after
// position end.
func (m *MPC) reservedBeyond(end int) float64 {
	if end >= len(m.suffixDeficit) {
		return 0
	}
	return m.suffixDeficit[end]
}

// Observe implements sim.Policy.
func (m *MPC) Observe(o sim.Observation) {
	m.tracker.Add(o.Insts, o.TimeMS)
	m.ext.Observe(record(o))
	feedback(m.obsv, m.calib, m.Name(), m.appName, o)
	m.elapsedMS += o.TimeMS + o.OverheadMS
	if m.profiling {
		m.profile.Insts = append(m.profile.Insts, o.Insts)
		m.profile.TimeMS = append(m.profile.TimeMS, o.TimeMS)
		m.ppkOverheadMS += o.OverheadMS
	}
	m.last = o
	m.haveObs = true
}

// AvgHorizonFrac returns the average adaptive horizon as a fraction of N
// over all MPC-mode decisions so far — the Fig. 15 metric. ok is false if
// no MPC-mode decision has been made.
func (m *MPC) AvgHorizonFrac() (float64, bool) {
	if m.horizonCnt == 0 || m.n == 0 {
		return 0, false
	}
	return m.horizonSum / float64(m.horizonCnt) / float64(m.n), true
}

// PPKOverheadMS returns the measured T_PPK from the profiling run.
func (m *MPC) PPKOverheadMS() float64 { return m.ppkOverheadMS }

// StorageBytes returns the pattern extractor's record storage.
func (m *MPC) StorageBytes() int { return m.ext.StorageBytes() }
