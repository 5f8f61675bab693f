package predict

import (
	"fmt"
	"math"
	"sync"

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
// touching nothing — when the batched path is unavailable (compiled
// inference disabled).
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

// spaceArena is one batched-sweep workspace: a row-major matrix of
// key-transformed features (rf.KeyOf order-preserving integer keys, the
// form the branchless compiled kernels compare in) with the
// per-configuration suffix columns pre-keyed for every configuration of
// one space, plus the two forest output vectors. Only the
// counter-prefix columns change between sweeps, so a steady-state sweep
// keys the eight counter features once, patches those keys into each
// row, runs two batched forest evaluations over the keyed matrix, and
// allocates nothing.
//
// Arenas are space-specific: every arena in a pool was built by
// newSpaceArena for the pool's space, and PredictSpace revalidates with
// hw.Space.Equal before trusting the precomputed suffix columns.
type spaceArena struct {
	space hw.Space  // the space keys was built for
	keys  []uint64  // space.Size() × numRFFeatures feature keys, config suffix pre-keyed
	tOut  []float64 // time-forest outputs, one per configuration
	pOut  []float64 // power-forest outputs, one per configuration
}

// newSpaceArena lays out an arena for a space: one key row per
// configuration in At order, with the six config-derived columns filled
// by the same patchConfig the scalar path uses (identical expressions,
// identical values) and then key-transformed. The transform is exact —
// keyed comparisons decide identically to the float comparisons the
// tree walk performs — so pre-keying changes no prediction bit.
func newSpaceArena(space hw.Space) *spaceArena {
	n := space.Size()
	a := &spaceArena{
		space: space,
		keys:  make([]uint64, n*numRFFeatures),
		tOut:  make([]float64, n),
		pOut:  make([]float64, n),
	}
	var row [numRFFeatures]float64
	i := 0
	space.ForEach(func(c hw.Config) {
		patchConfig(row[:], c)
		rf.KeysInto(a.keys[i*numRFFeatures+counters.NumCounters:(i+1)*numRFFeatures],
			row[counters.NumCounters:])
		i++
	})
	return a
}

// arenaPool hands out spaceArenas for one space. It replaces the old
// single mutex-guarded arena: concurrent PredictSpace calls each take
// their own arena from the sync.Pool (building one only when the pool
// is empty) and return it afterwards, so batched sweeps from many
// sessions scale with cores instead of serializing. The pool is
// space-keyed as a whole — a model asked to sweep a different space
// installs a fresh pool (see RandomForest.arenaFor); mixed-space
// workloads therefore thrash the pool but never corrupt an arena.
type arenaPool struct {
	space hw.Space
	pool  sync.Pool // of *spaceArena, all built for space
}

// get returns an arena for p.space, reporting whether it was pooled
// (true) or freshly built (false).
func (p *arenaPool) get() (*spaceArena, bool) {
	if a, ok := p.pool.Get().(*spaceArena); ok {
		return a, true
	}
	return newSpaceArena(p.space), false
}

// arenaInstr mirrors pool traffic into a metrics registry.
type arenaInstr struct {
	hit, miss *metrics.Counter
}

// arenaFor returns the model's arena pool for space, installing a new
// one when none exists or the cached pool was built for a different
// space. The install races benignly: a loser keeps using the pool it
// created (correct, just unshared for that one sweep).
func (m *RandomForest) arenaFor(space hw.Space) *arenaPool {
	ap := m.arenas.Load()
	if ap != nil && ap.space.Equal(space) {
		return ap
	}
	fresh := &arenaPool{space: space}
	m.arenas.CompareAndSwap(ap, fresh)
	if cur := m.arenas.Load(); cur != nil && cur.space.Equal(space) {
		return cur
	}
	return fresh
}

// ArenaPoolStats returns the cumulative batched-sweep arena pool
// traffic: sweeps served by a pooled arena (hits) and sweeps that had
// to build one (misses, including every first sweep after a space
// change). The steady-state hit rate of a concurrent server is the
// fraction of sweeps that allocated nothing.
func (m *RandomForest) ArenaPoolStats() (hits, misses uint64) {
	return m.arenaHits.Load(), m.arenaMisses.Load()
}

// InstrumentArenaPool mirrors the arena pool counters into reg as
// mpcdvfs_predict_arena_events_total{event="hit"|"miss"} from now on
// (earlier traffic is reported once as a baseline on the first event).
func (m *RandomForest) InstrumentArenaPool(reg *metrics.Registry) {
	events := reg.Counter("mpcdvfs_predict_arena_events_total",
		"Batched-sweep arena pool requests by outcome (hit = reused a pooled arena, miss = built one).",
		"event")
	m.arenaInstr.Store(&arenaInstr{hit: events.With("hit"), miss: events.With("miss")})
}

// countArena records one pool outcome in the stats and their optional
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

// PredictSpace implements SpaceEvaluator with one batched compiled-
// forest evaluation per forest: the kernel's counter prefix is computed
// once and patched into every row, the whole matrix runs through the
// compiled time and power forests tree-by-tree, and each estimate is
// assembled with exactly the scalar path's final operations
// (math.Exp(t)·insts, p). Returns false — leaving dst untouched — when
// compiled inference is disabled (SetCompiled(false)).
//
// PredictSpace is safe for concurrent use: each call borrows a private
// arena from the model's pool, so concurrent sweeps (one per serving
// session) proceed without serializing on any lock. Per-sweep results
// are bit-identical regardless of which arena serves them — arenas
// differ only in identity, never in contents.
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
//mpclint:hotpath warm sweep pinned at 0 allocs/op by TestPredictSpaceZeroAllocSteadyState; arena-miss slow paths carry reasoned suppressions
func (m *RandomForest) predictSpace(cs counters.Set, space hw.Space, dst []Estimate, tc *telemetry.Context) bool {
	if m.treeWalk || m.timeCompiled == nil {
		return false
	}
	n := space.Size()
	if len(dst) != n {
		panic(fmt.Sprintf("predict: PredictSpace dst holds %d estimates, space has %d configurations", len(dst), n))
	}
	if n == 0 {
		return true
	}
	sp := tc.Start(telemetry.SpanFeaturize)
	var prefix [counters.NumCounters]float64
	counterPrefix(prefix[:], cs)
	var kprefix [counters.NumCounters]uint64
	rf.KeysInto(kprefix[:], prefix[:])

	//mpclint:ignore hotpath-alloc pool install is a once-per-space slow path; warm sweeps load the existing pool, pinned by TestPredictSpaceZeroAllocSteadyState
	ap := m.arenaFor(space)
	//mpclint:ignore hotpath-alloc arena build is the pool-miss slow path; warm sweeps reuse a pooled arena, pinned by TestPredictSpaceZeroAllocSteadyState
	a, pooled := ap.get()
	if !a.space.Equal(space) {
		// Defensive: never trust a foreign arena's suffix columns.
		//mpclint:ignore hotpath-alloc defensive rebuild only runs if a foreign arena leaks into the pool, which the space-keyed install forbids
		a, pooled = newSpaceArena(space), false
	}
	m.countArena(pooled)
	for r := 0; r < n; r++ {
		copy(a.keys[r*numRFFeatures:r*numRFFeatures+counters.NumCounters], kprefix[:])
	}
	sp.End()
	sp = tc.Start(telemetry.SpanForestEval)
	m.timeCompiled.PredictBatchKeysInto(a.tOut, a.keys)
	m.powerCompiled.PredictBatchKeysInto(a.pOut, a.keys)
	insts := instsOf(cs)
	for r := 0; r < n; r++ {
		dst[r] = Estimate{TimeMS: math.Exp(a.tOut[r]) * insts, GPUPowerW: a.pOut[r]}
	}
	sp.End()
	ap.pool.Put(a)
	return true
}

// Compile-time interface checks for the batched path.
var (
	_ SpaceEvaluator       = (*RandomForest)(nil)
	_ SpaceEvaluator       = (*Calibrated)(nil)
	_ TracedSpaceEvaluator = (*RandomForest)(nil)
	_ TracedSpaceEvaluator = (*Calibrated)(nil)
)
