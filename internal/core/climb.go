package core

import (
	"math"
	"slices"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/telemetry"
)

// Optimizer performs the greedy hill-climbing configuration search of
// §IV-A1a over one kernel, and the windowed MPC optimization over a
// horizon of kernels.
type Optimizer struct {
	// UseExhaustive replaces the greedy hill climb with a full O(M)
	// sweep per kernel — the search-cost ablation. The result quality
	// bound improves; the evaluation count explodes by the |S|/Σ|knob|
	// factor the paper quotes as ~19×.
	UseExhaustive bool
	// Trace, when non-nil, receives the search's span decomposition:
	// batched sweeps emit featurize/forest-eval child spans, a sweep
	// filled per configuration one forest-eval span, and the climb's
	// scalar predictor calls accumulate into a forest-eval aggregate.
	// Tracing is read-only with respect to decisions — every search
	// returns the same bytes with Trace nil, unsampled, or active
	// (pinned by the traced-replay golden test).
	Trace *telemetry.Context
	// c is the calibrated predictor the search prices every
	// configuration through, space the configuration space it walks and
	// failSafe the guard configuration, clamped into space. All three
	// are fixed at construction.
	c        *predict.Calibrated
	space    hw.Space
	failSafe hw.Config

	// Exhaustive-sweep arena, built lazily on the first sweep: the
	// space's configurations in At order, the fail-safe's index among
	// them and the estimate slice the sweep fills, so steady-state
	// sweeps allocate nothing. Optimizer methods are not safe for
	// concurrent use: the arena and the window scratch below are shared
	// state.
	sweepCfgs     []hw.Config
	sweepFailSafe int
	sweepEsts     []predict.Estimate

	// Window scratch, reused across OptimizeWindow/BruteForceWindow
	// steps so the receding-horizon hot loop stops re-allocating the
	// sorted window copy and its per-kernel bookkeeping every decision.
	// Consistent with the not-concurrent-use contract above.
	winScratch  []WindowKernel
	slotScratch []windowSlot
}

// windowSlot is one ordered window kernel's decision record and
// fail-safe time deficit.
type windowSlot struct {
	cache   evalCache
	deficit float64
}

// NewOptimizer returns an optimizer that searches space, pricing
// configurations through c.
func NewOptimizer(c *predict.Calibrated, space hw.Space) *Optimizer {
	return &Optimizer{c: c, space: space, failSafe: space.Clamp(hw.FailSafe())}
}

// FailSafe returns the fail-safe configuration used on constraint
// failure, mapped into the optimizer's space.
func (o *Optimizer) FailSafe() hw.Config { return o.failSafe }

// climbResult is the outcome of one per-kernel search.
type climbResult struct {
	Config   hw.Config
	Est      predict.Estimate
	Evals    int
	Feasible bool
}

// evalCache records which configurations one decision priced for one
// kernel: a bit per configuration of the full hardware space, and the
// count of distinct ones, which the search reports as Evals. The
// overhead model charges one model evaluation per distinct
// configuration, as a runtime that cached its estimates would pay,
// whether the search read the configuration's power or only its time.
// The record keeps no estimates: every call asks the predictor, and a
// steady-state MPC's run-scoped memo (predict.Calibrated.BeginRun)
// answers a revisit.
type evalCache struct {
	o     *Optimizer
	cs    counters.Set
	seen  [(numConfigs + 63) / 64]uint64
	evals int
}

// numConfigs is the size of the full hardware space (hw.FullSpace),
// which holds every configuration any Space can.
const numConfigs = hw.NumCPUStates * hw.NumNBStates * hw.NumGPUStates * hw.NumCUs

// configBit returns cfg's position in hw.FullSpace's At order.
func configBit(cfg hw.Config) int {
	return ((int(cfg.CPU)*hw.NumNBStates+int(cfg.NB))*hw.NumGPUStates+int(cfg.GPU))*hw.NumCUs +
		int(cfg.CUs-hw.MinCUs)/hw.CUStep
}

// mark records cfg as priced, counting it the first time.
func (c *evalCache) mark(cfg hw.Config) {
	i := configBit(cfg)
	if bit := uint64(1) << (i % 64); c.seen[i/64]&bit == 0 {
		c.seen[i/64] |= bit
		c.evals++
	}
}

// Headrooms for evalWithin: every time is within +Inf, so the
// predictor prices every power, and no time but NaN or −Inf is within
// −Inf.
var (
	everyTime = math.Inf(1)
	noTime    = math.Inf(-1)
)

// eval marks cfg as priced and returns its full estimate and energy.
func (c *evalCache) eval(cfg hw.Config) (predict.Estimate, float64) {
	return c.evalWithin(cfg, everyTime)
}

// evalTime marks cfg as priced and returns its estimate for a caller
// that reads only its time: the power, and so the energy, may be NaN.
func (c *evalCache) evalTime(cfg hw.Config) predict.Estimate {
	est, _ := c.evalWithin(cfg, noTime)
	return est
}

// evalWithin marks cfg as priced and returns its calibrated estimate
// and energy (predict.Calibrated.PredictKernelWithin), for a caller
// that reads the energy only where the time is not above headroomMS:
// elsewhere the power, and so the energy, may be NaN. Over an inner
// model that does not allocate, it allocates nothing.
//
//mpclint:hotpath pinned at 0 allocs/op over a non-allocating model by TestEvalCacheHitZeroAlloc
func (c *evalCache) evalWithin(cfg hw.Config, headroomMS float64) (predict.Estimate, float64) {
	c.mark(cfg)
	t0 := c.o.Trace.StartPhase()
	est := c.o.c.PredictKernelWithin(c.cs, cfg, headroomMS)
	c.o.Trace.EndPhase(telemetry.SpanForestEval, t0)
	return est, predict.EnergyMJ(est, cfg)
}

// HillClimb finds a low-energy configuration for a kernel with counters
// cs whose expected execution time must not exceed headroomMS.
//
// It starts at the fail-safe configuration, estimates each knob's energy
// sensitivity (predicted ΔE to its neighbouring states), then walks the
// knobs in descending sensitivity order, moving while predicted energy
// keeps decreasing and the headroom constraint keeps holding — stopping a
// knob as soon as energy rises (§IV-A1a). If even the fail-safe
// configuration cannot meet the headroom, it returns the fail-safe with
// Feasible=false, the paper's constraint-failure behaviour.
func (o *Optimizer) HillClimb(cs counters.Set, headroomMS float64) climbResult {
	cache := evalCache{o: o, cs: cs}
	return o.hillClimb(&cache, headroomMS, true, 0)
}

// hillClimb runs the search against an existing decision record; Evals
// in the result reports its cumulative count. When recover is
// true and the fail-safe start misses the headroom, the search first
// descends on predicted time to regain feasibility — for peak kernels
// the fastest configuration is NOT the largest one, so this walk can
// both recover feasibility and reduce energy (e.g. lbm at 4 CUs). The
// recovery walk is only worth its evaluations for the decision actually
// being applied; speculative window kernels skip it and conservatively
// assume the fail-safe.
//
// refTimeMS, when positive, is the kernel's last measured execution time;
// the recovery walk refuses to chase predictions below half of it. An
// imperfect model can hallucinate implausibly fast configurations, and a
// decision built on one would blow the very constraint recovery is
// trying to save — runtime measurements are the only trustworthy anchor
// (the same feedback principle as §IV-A1b).
//
// The search reads a configuration's energy only where its time meets
// the headroom, so it asks for the power only there (evalWithin);
// fastestNeighbor reads times alone. Every result carries a full
// estimate but one: a speculative search that misses the headroom
// hands on the fail-safe's time alone, since OptimizeWindow reads
// nothing else of it, and its power may be NaN.
func (o *Optimizer) hillClimb(cache *evalCache, headroomMS float64, recover bool, refTimeMS float64) climbResult {
	cur := o.failSafe
	curEst, curE := cache.evalWithin(cur, headroomMS)
	if curEst.TimeMS > headroomMS {
		if !recover {
			return climbResult{Config: cur, Est: curEst, Evals: cache.evals, Feasible: false}
		}
		trustFloor := refTimeMS / 2
		for curEst.TimeMS > headroomMS {
			next, nextEst, nextE, ok := o.fastestNeighbor(cache, cur, curEst.TimeMS, trustFloor)
			if !ok {
				curEst, _ = cache.eval(cur)
				return climbResult{Config: o.failSafe, Est: curEst, Evals: cache.evals, Feasible: false}
			}
			cur, curEst, curE = next, nextEst, nextE
		}
	}

	// Energy sensitivity per knob: the best feasible single-step energy
	// reduction in either direction.
	type knobSens struct {
		knob hw.Knob
		dir  int
		sens float64
	}
	var order [hw.NumKnobs]knobSens
	n := 0
	for _, k := range hw.Knobs() {
		best := knobSens{knob: k}
		for _, dir := range [2]int{+1, -1} {
			nb, ok := o.space.Step(cur, k, dir)
			if !ok {
				continue
			}
			est, e := cache.evalWithin(nb, headroomMS)
			if est.TimeMS <= headroomMS && curE-e > best.sens {
				best.sens = curE - e
				best.dir = dir
			}
		}
		if best.dir != 0 {
			order[n] = best
			n++
		}
	}
	slices.SortStableFunc(order[:n], func(a, b knobSens) int { return ascending(b.sens, a.sens) }) // descending

	for _, ks := range order[:n] {
		for {
			nb, ok := o.space.Step(cur, ks.knob, ks.dir)
			if !ok {
				break
			}
			est, e := cache.evalWithin(nb, headroomMS)
			// The search stops once the move would violate the
			// performance headroom or the energy increases.
			if est.TimeMS > headroomMS || e >= curE {
				break
			}
			cur, curEst, curE = nb, est, e
		}
	}
	return climbResult{Config: cur, Est: curEst, Evals: cache.evals, Feasible: true}
}

// ExhaustiveSearch sweeps every configuration in the space for the
// minimum predicted energy under the headroom constraint — the O(M)
// per-kernel search PPK and the search-cost ablation use. Evals equals
// the space size.
func (o *Optimizer) ExhaustiveSearch(cs counters.Set, headroomMS float64) climbResult {
	cache := evalCache{o: o, cs: cs}
	return o.exhaustive(&cache, headroomMS)
}

// exhaustive is the one O(M) sweep. One call to the predictor fills
// the At-order estimate slice (predict.Calibrated.PredictSpaceWithin):
// every configuration's time, and the power wherever the reduce reads
// it, on the configurations that meet the headroom, or on the fail-safe
// when none does. One At-order reduce then marks every configuration
// priced and picks the argmin: strictly smaller energy wins, so ties
// keep the lower Space.At index. A configuration the decision already
// priced (e.g. the fail-safe OptimizeWindow seeds) is not counted
// again, so Evals is the space size. When no configuration meets the
// headroom, the result is the fail-safe with Feasible=false.
func (o *Optimizer) exhaustive(cache *evalCache, headroomMS float64) climbResult {
	if o.sweepCfgs == nil {
		o.sweepCfgs = o.space.Configs()
		o.sweepFailSafe = o.space.Index(o.failSafe)
		o.sweepEsts = make([]predict.Estimate, len(o.sweepCfgs))
	}
	o.c.PredictSpaceWithin(cache.cs, o.space, o.sweepEsts, headroomMS, o.sweepFailSafe, o.Trace)
	best := climbResult{Config: o.failSafe, Feasible: false}
	bestE := 0.0
	for i, c := range o.sweepCfgs {
		cache.mark(c)
		est := o.sweepEsts[i]
		if est.TimeMS > headroomMS {
			continue
		}
		if e := predict.EnergyMJ(est, c); !best.Feasible || e < bestE {
			best = climbResult{Config: c, Est: est, Feasible: true}
			bestE = e
		}
	}
	if !best.Feasible {
		best.Est = o.sweepEsts[o.sweepFailSafe]
	}
	best.Evals = cache.evals
	return best
}

// fastestNeighbor returns the single-knob neighbour of cur with the
// smallest predicted time, provided it improves on curTime and stays at
// or above the trust floor, with its full estimate and energy. It reads
// every neighbour's time and prices the power of the one it returns.
func (o *Optimizer) fastestNeighbor(cache *evalCache, cur hw.Config, curTime, floor float64) (hw.Config, predict.Estimate, float64, bool) {
	var best hw.Config
	bestTime := 0.0
	found := false
	for _, k := range hw.Knobs() {
		for _, dir := range [2]int{+1, -1} {
			nb, ok := o.space.Step(cur, k, dir)
			if !ok {
				continue
			}
			t := cache.evalTime(nb).TimeMS
			if t < curTime && t >= floor && (!found || t < bestTime) {
				best, bestTime, found = nb, t, true
			}
		}
	}
	if !found {
		return best, predict.Estimate{}, 0, false
	}
	bestEst, bestE := cache.eval(best)
	return best, bestEst, bestE, true
}

// byRank and byExecIndex order window kernels for the two window
// optimizers, which stable-sort a scratch copy of the window so ties
// keep their window order (argmin/eval-count parity is pinned by the
// window invariant tests).
func byRank(a, b WindowKernel) int      { return ascending(a.Rank, b.Rank) }
func byExecIndex(a, b WindowKernel) int { return ascending(a.ExecIndex, b.ExecIndex) }

// WindowKernel is one kernel of an MPC optimization window.
type WindowKernel struct {
	ExecIndex int             // position in execution order
	Rec       counters.Record // expected counters (from the pattern extractor)
	ExpInsts  float64         // expected instruction count
	Rank      int             // position in the global search order
}

// OptimizeWindow performs one receding-horizon MPC step (Eq. 3): it
// optimizes every kernel in the window in search-order priority, letting
// performance headroom carry over from one kernel to the next on a
// speculative copy of the tracker, and returns the configuration chosen
// for the current kernel — the one with the smallest ExecIndex — along
// with its expected estimate and the total model evaluations spent.
//
// While a kernel is being optimized, the fail-safe-time deficits of the
// window kernels not yet speculated (ranked after it) are reserved from
// its headroom: a low-throughput kernel later in the search order must
// still find the banked time it needs when its turn comes. This is the
// §IV-A1b tracker behaviour of adjusting headroom with the "performance
// behavior of future kernels".
//
// If the window is empty, the fail-safe configuration is returned with
// zero evaluations.
//
//mpclint:hotpath steady-state MPC run pinned at 0 allocs by TestMPCSteadyStateRunZeroAlloc
func (o *Optimizer) OptimizeWindow(win []WindowKernel, tr *Tracker) (hw.Config, predict.Estimate, int) {
	if len(win) == 0 {
		return o.failSafe, o.c.PredictKernel(counters.Set{}, o.failSafe), 0
	}
	// Order the window by search-order rank, in the reused scratch copy
	// (stable sort of identical data: identical order every step,
	// whatever buffer holds it).
	//mpclint:ignore hotpath-alloc scratch grows only past the longest window so far, at most the run's kernel count; TestMPCSteadyStateRunZeroAlloc pins a warm run at 0 allocs
	o.winScratch = append(o.winScratch[:0], win...)
	ordered := o.winScratch
	slices.SortStableFunc(ordered, byRank)

	cur := win[0]
	for _, w := range win[1:] {
		if w.ExecIndex < cur.ExecIndex {
			cur = w
		}
	}

	// Per-kernel decision records and fail-safe deficits, in reused
	// scratch.
	tp := tr.TargetThroughput()
	slots := o.slotScratch[:0]
	remaining := 0.0
	for _, w := range ordered {
		cache := evalCache{o: o, cs: w.Rec.Counters}
		fsTime := cache.evalTime(o.failSafe).TimeMS
		d := 0.0
		if tp > 0 {
			if fd := fsTime - w.ExpInsts/tp; fd > 0 {
				d = fd
			}
		}
		//mpclint:ignore hotpath-alloc scratch grows only past the longest window so far, at most the run's kernel count; TestMPCSteadyStateRunZeroAlloc pins a warm run at 0 allocs
		slots = append(slots, windowSlot{cache, d})
		remaining += d
	}
	o.slotScratch = slots

	spec := *tr // speculative copy: the real tracker advances only on measurements
	evals := 0
	var curChoice climbResult
	haveCur := false
	for i, w := range ordered {
		remaining -= slots[i].deficit
		head := spec.HeadroomMS(w.ExpInsts) - remaining
		var res climbResult
		if o.UseExhaustive {
			//mpclint:ignore hotpath-alloc exhaustive-ablation sweep (WithExhaustiveSearch), off the deployed steady-state path TestMPCSteadyStateRunZeroAlloc pins
			res = o.exhaustive(&slots[i].cache, head)
		} else {
			res = o.hillClimb(&slots[i].cache, head, w.ExecIndex == cur.ExecIndex, w.Rec.TimeMS)
		}
		evals += res.Evals
		spec.Add(w.ExpInsts, res.Est.TimeMS)
		if w.ExecIndex == cur.ExecIndex && !haveCur {
			curChoice = res
			haveCur = true
		}
	}
	return curChoice.Config, curChoice.Est, evals
}
