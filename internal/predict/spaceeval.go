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

// SpaceEvaluator is the optional batched extension of Model: a model
// that can evaluate one kernel at every configuration of a space in a
// single call. PredictSpace fills dst (which must hold space.Size()
// estimates) in hw.Space.At order and returns true, or returns false —
// touching nothing — when the batched path cannot take the space.
//
// The contract is strict bit-exactness: dst[i] must equal
// PredictKernel(cs, space.At(i)) bit for bit, so callers may use either
// path interchangeably without perturbing replays. The optimizer's
// exhaustive sweep type-asserts for this interface and fills its sweep
// per configuration when the assertion or the call fails.
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
type TracedSpaceEvaluator interface {
	SpaceEvaluator
	PredictSpaceTraced(cs counters.Set, space hw.Space, dst []Estimate, tc *telemetry.Context) bool
}

// sweepPlan is the set-descent form of one configuration space: for
// each of the six configuration features, the split table of its value
// on every configuration (row r is space.At(r)), built by the same
// patchConfig the scalar path uses. The eight counter features are
// shared by every row of a sweep and carry no table. A plan depends on
// the space alone — not on the forest — and is immutable once built, so
// concurrent sweeps share it with no pool and no lock.
type sweepPlan struct {
	space  hw.Space
	splits [numRFFeatures]rf.RowSplits
}

// newSweepPlan builds the plan for a space of at most rf.MaxSetRows
// configurations.
func newSweepPlan(space hw.Space) *sweepPlan {
	n := space.Size()
	cols := make([]float64, numConfigFeatures*n)
	var row [numRFFeatures]float64
	r := 0
	space.ForEach(func(c hw.Config) {
		patchConfig(row[:], c)
		for f := 0; f < numConfigFeatures; f++ {
			cols[f*n+r] = row[counters.NumCounters+f]
		}
		r++
	})
	p := &sweepPlan{space: space}
	for f := 0; f < numConfigFeatures; f++ {
		p.splits[counters.NumCounters+f] = rf.NewRowSplits(cols[f*n : (f+1)*n])
	}
	return p
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
// sweeps served by the installed plan (hits) and plan builds (misses,
// one for the first sweep and one after every change of space). The
// name predates the plan, which replaced a pool of per-sweep arenas.
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

// PredictSpace implements SpaceEvaluator with one set descent per
// forest: the kernel's counter prefix is computed once and shared by
// every row, the space's configurations form the row set, and each
// estimate is assembled with exactly the scalar path's final operations
// (math.Exp(t)·insts, p). Returns false — leaving dst untouched — when
// the space has more than rf.MaxSetRows configurations.
//
// PredictSpace is safe for concurrent use: sweeps share the model's
// immutable plan and keep their accumulators on their own stacks.
//
//mpclint:hotpath warm sweep pinned at 0 allocs/op by TestPredictSpaceZeroAllocSteadyState
func (m *RandomForest) PredictSpace(cs counters.Set, space hw.Space, dst []Estimate) bool {
	return m.predictSpace(cs, space, dst, nil)
}

// PredictSpaceTraced implements TracedSpaceEvaluator: the same sweep
// with featurize and forest-eval child spans attached to tc.
//
//mpclint:hotpath warm sweep pinned at 0 allocs/op by TestPredictSpaceZeroAllocSteadyState; spans add nothing when unsampled
func (m *RandomForest) PredictSpaceTraced(cs counters.Set, space hw.Space, dst []Estimate, tc *telemetry.Context) bool {
	return m.predictSpace(cs, space, dst, tc)
}

// predictSpace is the shared batched sweep: the traced and untraced
// entry points differ only in whether span bookkeeping runs — every
// value written to dst is computed identically.
//
//mpclint:hotpath warm sweep pinned at 0 allocs/op by TestPredictSpaceZeroAllocSteadyState; the plan build is a reasoned slow path
func (m *RandomForest) predictSpace(cs counters.Set, space hw.Space, dst []Estimate, tc *telemetry.Context) bool {
	n := space.Size()
	if len(dst) != n {
		panic(fmt.Sprintf("predict: PredictSpace dst holds %d estimates, space has %d configurations", len(dst), n))
	}
	if n == 0 {
		return true
	}
	if n > rf.MaxSetRows {
		return false
	}
	sp := tc.Start(telemetry.SpanFeaturize)
	var x [numRFFeatures]float64
	counterPrefix(x[:], cs)
	//mpclint:ignore hotpath-alloc the plan build runs once per space; warm sweeps load the installed plan, pinned by TestPredictSpaceZeroAllocSteadyState
	plan, hit := m.planFor(space)
	m.countArena(hit)
	sp.End()
	sp = tc.Start(telemetry.SpanForestEval)
	var acc [rf.MaxSetRows]float64
	insts := instsOf(cs)
	for r, t := range m.timeCompiled.PredictSetInto(acc[:n], x[:], plan.splits[:]) {
		dst[r].TimeMS = math.Exp(t) * insts
	}
	for r, p := range m.powerCompiled.PredictSetInto(acc[:n], x[:], plan.splits[:]) {
		dst[r].GPUPowerW = p
	}
	sp.End()
	return true
}

// Compile-time interface checks for the batched path.
var (
	_ SpaceEvaluator       = (*RandomForest)(nil)
	_ SpaceEvaluator       = (*Calibrated)(nil)
	_ TracedSpaceEvaluator = (*RandomForest)(nil)
	_ TracedSpaceEvaluator = (*Calibrated)(nil)
)
