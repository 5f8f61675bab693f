package predict

import (
	"fmt"
	"math"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/rf"
	"mpcdvfs/internal/telemetry"
)

// SpaceEvaluator is the batched extension of Model: a model that can
// evaluate one kernel at every configuration of a space in a single
// call. PredictSpace fills dst (which must hold space.Size() estimates)
// in hw.Space.At order and returns true, or returns false — touching
// nothing — when the batched path cannot take the space.
//
// The contract is strict bit-exactness: dst[i] must equal
// PredictKernel(cs, space.At(i)) bit for bit, so callers may use either
// path interchangeably without perturbing replays. No search sweeps
// through it: Calibrated resolves its inner model's
// BoundedSpaceEvaluator and TracedSpaceEvaluator instead. It is kept as
// the untraced half of the unbounded sweep, which the benchmark's model
// wrapper forwards alongside the traced one.
type SpaceEvaluator interface {
	PredictSpace(cs counters.Set, space hw.Space, dst []Estimate) bool
}

// TracedSpaceEvaluator is the trace-aware extension of SpaceEvaluator:
// the batched sweep additionally reports where its time goes — row
// featurization vs. forest evaluation — as child spans of the caller's
// active trace. The SpaceEvaluator contract is unchanged: tracing is
// read-only with respect to predictions, so PredictSpaceTraced fills
// dst with exactly the bytes PredictSpace would (tc may be nil or
// unsampled, in which case the span calls are no-ops).
// Calibrated.PredictSpaceWithin fills its sweep through it, pricing
// every row, when the inner model has no bounded sweep: the benchmark's
// model wrapper, which forwards only the unbounded sweeps, is such a
// model.
type TracedSpaceEvaluator interface {
	SpaceEvaluator
	PredictSpaceTraced(cs counters.Set, space hw.Space, dst []Estimate, tc *telemetry.Context) bool
}

// BoundedSpaceEvaluator is the constraint-first form of the traced
// batched sweep, for a caller that reads a row's power only where the
// row meets a throughput headroom. PredictSpaceWithin fills dst (which
// must hold space.Size() estimates) in hw.Space.At order, with the same
// featurize and forest-eval spans and the same false-and-untouched
// answer as PredictSpaceTraced, but it owes fewer values:
//
//   - TimeMS on every row, multiplied by b.TimeRatio when b.HasRatio;
//   - GPUPowerW on every row of the smallest CPU × (NB, GPU) × CU
//     product that holds each feasible row — a row is feasible unless
//     its TimeMS is above b.HeadroomMS, so a NaN time is feasible — or
//     on row b.FailSafe alone when no row is feasible.
//
// Every value it owes is bit-identical to PredictSpace's (times the
// ratio); it may fill more rows than it owes, and the unbounded sweep
// is a valid implementation. RandomForest writes NaN to the power of
// the rows it does not owe. Calibrated.PredictSpaceWithin sweeps
// through it when its inner model has it, with the kernel's time ratio
// in the bound.
type BoundedSpaceEvaluator interface {
	PredictSpaceWithin(cs counters.Set, space hw.Space, dst []Estimate, b SweepBound, tc *telemetry.Context) bool
}

// SweepBound is what a bounded sweep needs to skip work: the headroom
// that makes a row feasible, the row priced in full when none is, and
// the correction, if any, that turns the model's time into the time the
// headroom is held against (a Calibrated supplies its kernel's ratio).
type SweepBound struct {
	HeadroomMS float64
	FailSafe   int // a row of the space, in At order
	TimeRatio  float64
	HasRatio   bool
}

// A configuration space sweeps as the product of three factors: its CPU
// states, its (NB, GPU) pairs and its CU counts, in that order. Row r of
// the product is then space.At(r).
const (
	cpuFactor = iota
	nbGPUFactor
	cuFactor
)

// configFactor is the factor each configuration feature of patchConfig
// depends on alone: GPU frequency, rail voltage, NB frequency and memory
// bandwidth on the (NB, GPU) pair, CUs on the CU count and CPU power on
// the CPU state. sweepGrid checks it over every configuration of a space.
var configFactor = [numConfigFeatures]int{nbGPUFactor, nbGPUFactor, cuFactor, nbGPUFactor, nbGPUFactor, cpuFactor}

// maxSweepRows is the largest space a sweep takes, because its
// accumulator lives on the sweep's stack. It holds hw.FullSpace's 560
// configurations.
const maxSweepRows = 576

// sweepPlan is the grid form of one configuration space; its grid is
// nil when the sweep declines the space. The eight counter features are
// shared by every row of a sweep and the six configuration features
// each vary with one factor. A plan depends on the space alone — not on
// the forest — and is immutable once built, so concurrent sweeps share
// it with no pool and no lock.
type sweepPlan struct {
	space hw.Space
	grid  *rf.Grid
}

// newSweepPlan builds the plan for a space.
func newSweepPlan(space hw.Space) *sweepPlan {
	return &sweepPlan{space: space, grid: sweepGrid(space, patchConfig)}
}

// sweepGrid returns the grid of space's configuration features as patch
// writes them, or nil when the space is no such grid: a feature is not
// a function of its configFactor over the space's configurations, or
// the factors need more than 64 bits.
func sweepGrid(space hw.Space, patch func([]float64, hw.Config)) *rf.Grid {
	nCPU, nNB, nGPU, nCU := space.KnobStates()
	dims := [rf.GridFactors]int{nCPU, nNB * nGPU, nCU}
	stride := [rf.GridFactors]int{dims[1] * dims[2], dims[2], 1}
	var x [numRFFeatures]float64
	feats := make([]rf.GridFeature, numConfigFeatures)
	for f, k := range configFactor {
		feats[f] = rf.GridFeature{Feature: counters.NumCounters + f, Factor: k, Vals: make([]float64, dims[k])}
		for e := range feats[f].Vals {
			patch(x[:], space.At(e*stride[k]))
			feats[f].Vals[e] = x[counters.NumCounters+f]
		}
	}
	for r := 0; r < space.Size(); r++ {
		patch(x[:], space.At(r))
		for _, gf := range feats {
			if math.Float64bits(x[gf.Feature]) != math.Float64bits(gf.Vals[r/stride[gf.Factor]%dims[gf.Factor]]) {
				return nil
			}
		}
	}
	g, err := rf.NewGrid(numRFFeatures, dims, feats)
	if err != nil {
		return nil
	}
	return g
}

// planFor returns the model's sweep plan for space, building and
// installing one when none is installed or the installed plan was built
// for a different space; it reports whether the installed plan served.
// Racing installs are benign: every plan for a space is the same.
func (m *RandomForest) planFor(space hw.Space) (*sweepPlan, bool) {
	if p := m.plan.Load(); p != nil && p.space.Equal(space) {
		return p, true
	}
	p := newSweepPlan(space)
	m.plan.Store(p)
	return p, false
}

// arenaInstr mirrors plan lookups into a metrics registry.
type arenaInstr struct {
	hit, miss *metrics.Counter
}

// ArenaPoolStats returns the cumulative batched-sweep plan traffic:
// sweeps served by the installed plan (hits) and sweeps that built it
// (misses, one for the first sweep and one after every change of
// space). A sweep that declines its space counts as neither. The name
// predates the plan, which replaced a pool of per-sweep arenas.
func (m *RandomForest) ArenaPoolStats() (hits, misses uint64) {
	return m.arenaHits.Load(), m.arenaMisses.Load()
}

// InstrumentArenaPool mirrors the plan counters into reg as
// mpcdvfs_predict_arena_events_total{event="hit"|"miss"} from now on
// (earlier traffic is reported once as a baseline on the first event).
func (m *RandomForest) InstrumentArenaPool(reg *metrics.Registry) {
	events := reg.Counter("mpcdvfs_predict_arena_events_total",
		"Batched-sweep plan lookups by outcome (hit = served by the installed plan, miss = built one).",
		"event")
	m.arenaInstr.Store(&arenaInstr{hit: events.With("hit"), miss: events.With("miss")})
}

// countArena records one plan lookup in the stats and their optional
// metrics mirror.
func (m *RandomForest) countArena(hit bool) {
	if hit {
		m.arenaHits.Add(1)
	} else {
		m.arenaMisses.Add(1)
	}
	if in := m.arenaInstr.Load(); in != nil {
		if hit {
			in.hit.Inc()
		} else {
			in.miss.Inc()
		}
	}
}

// PredictSpace implements SpaceEvaluator with one grid descent per
// forest: the kernel's counter prefix is computed once and shared by
// every row, the space's configurations form the grid, and each
// estimate is assembled with exactly the scalar path's final operations
// (math.Exp(t)·insts, p). Returns false — leaving dst untouched — when
// the space has more than maxSweepRows configurations or is no grid
// (see sweepGrid). It is the bounded sweep at an infinite headroom,
// which every row meets.
//
// PredictSpace is safe for concurrent use: sweeps share the model's
// immutable plan and keep their accumulators on their own stacks.
//
//mpclint:hotpath warm sweep pinned at 0 allocs/op by TestPredictSpaceZeroAllocSteadyState
func (m *RandomForest) PredictSpace(cs counters.Set, space hw.Space, dst []Estimate) bool {
	return m.PredictSpaceWithin(cs, space, dst, SweepBound{HeadroomMS: math.Inf(1)}, nil)
}

// PredictSpaceTraced implements TracedSpaceEvaluator: the same sweep
// with featurize and forest-eval child spans attached to tc.
//
//mpclint:hotpath warm sweep pinned at 0 allocs/op by TestPredictSpaceZeroAllocSteadyState; spans add nothing when unsampled
func (m *RandomForest) PredictSpaceTraced(cs counters.Set, space hw.Space, dst []Estimate, tc *telemetry.Context) bool {
	return m.PredictSpaceWithin(cs, space, dst, SweepBound{HeadroomMS: math.Inf(1)}, tc)
}

// PredictSpaceWithin implements BoundedSpaceEvaluator in two phases:
// the time forest's grid descent over every row, then the power
// forest's over the product Grid.Cover finds for the feasible rows, or
// over the fail-safe's row when that product is empty. Every row
// outside the second phase's product gets NaN power. The plan lookup,
// the spans and the plan counters are those of one sweep, bounded or
// not; the traced and untraced entry points differ only in whether span
// bookkeeping runs.
//
//mpclint:hotpath warm sweep pinned at 0 allocs/op by TestPredictSpaceZeroAllocSteadyState; the plan build is a reasoned slow path
func (m *RandomForest) PredictSpaceWithin(cs counters.Set, space hw.Space, dst []Estimate, b SweepBound, tc *telemetry.Context) bool {
	n := space.Size()
	if len(dst) != n {
		panic(fmt.Sprintf("predict: PredictSpace dst holds %d estimates, space has %d configurations", len(dst), n))
	}
	if n == 0 {
		return true
	}
	if n > maxSweepRows {
		return false
	}
	sp := tc.Start(telemetry.SpanFeaturize)
	//mpclint:ignore hotpath-alloc the plan build runs once per space; warm sweeps load the installed plan, pinned by TestPredictSpaceZeroAllocSteadyState
	plan, hit := m.planFor(space)
	if plan.grid == nil {
		sp.End()
		return false
	}
	m.countArena(hit)
	var x [numRFFeatures]float64
	counterPrefix(x[:], cs)
	sp.End()
	sp = tc.Start(telemetry.SpanForestEval)
	var acc [maxSweepRows]float64
	insts := instsOf(cs)
	for r, t := range m.timeCompiled.PredictGridInto(acc[:n], x[:], plan.grid) {
		t = math.Exp(t) * insts
		if b.HasRatio {
			t *= b.TimeRatio
		}
		dst[r].TimeMS, acc[r] = t, t
	}
	s := plan.grid.Cover(acc[:n], b.HeadroomMS)
	if s == 0 {
		s = plan.grid.Row(b.FailSafe)
	}
	for r := range acc[:n] {
		acc[r] = math.NaN()
	}
	for r, p := range m.powerCompiled.PredictProductInto(acc[:n], x[:], plan.grid, s) {
		dst[r].GPUPowerW = p
	}
	sp.End()
	return true
}

// Compile-time interface checks for the batched path.
var (
	_ TracedSpaceEvaluator  = (*RandomForest)(nil)
	_ BoundedSpaceEvaluator = (*RandomForest)(nil)
)
