// Package telemetry is the deep-observability layer of the serving
// stack: request-scoped span tracing over the decide path, a
// model-quality scoreboard tracking prediction error per model
// generation, and cumulative energy/decision accounting.
//
// Everything in this package is read-only with respect to the control
// path: spans, scoreboard cells and accounting rows are derived from
// decisions and observations but never feed back into them, so a traced
// replay stays byte-identical to an untraced one (pinned by the golden
// parity tests). This is also why telemetry is the one place on the
// decision path allowed to read the wall clock — the mpclint
// determinism-taint check bans reaching time.Now from internal/{core,
// rf,policy,predict,sim} but sanctions chains that stop here, and
// those packages only ever time anything through the nil-safe Context
// API in this package.
//
// # The three surfaces
//
//   - Tracer/Context/Span (span.go): zero-alloc-when-disabled span
//     tracing with 1-in-N root sampling, a bounded ring of finished
//     spans, and JSONL export (jsonl.go). One Context per session,
//     used by one of its operations at a time. Spans mark layer
//     boundaries (decide, search, featurize, forest eval) and nothing
//     finer: a hill climb's scalar model calls are counted in the
//     decision's Evals, not timed.
//   - Scoreboard (scoreboard.go): per-(generation, app) rolling windows
//     of signed relative prediction error and MAPE for time and power,
//     with drift detection against a training-time MAPE baseline.
//   - Accounting (accounting.go): cumulative predicted-vs-measured
//     energy per session and per configuration bucket, decision,
//     fallback and horizon tallies.
//
// A Hub bundles the three so the serve layer and the commands thread
// one pointer instead of three. The scoreboard and the ledger are sinks
// of the obs event stream: each served session reports through the
// observer Hub.SessionObserver builds, which also feeds the obs.Metrics
// families. Model error reaches the scoreboard, the ledger and the
// prediction-error histogram as one obs.ModelErrorEvent.
package telemetry

import (
	"sync/atomic"

	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/obs"
)

// Traceable is implemented by policies that carry a trace context into
// their decision internals (the search span and a sweep's featurize and
// forest-eval spans). The engine and the serve layer thread their
// context into such policies the same way obs.Instrumentable threads
// observers. A nil context disables tracing for the policy.
type Traceable interface {
	SetTraceContext(*Context)
}

// Default sizing of a Hub.
const (
	DefaultRingSize    = 4096
	DefaultWindow      = 64
	DefaultDriftFactor = 2.0
)

// Options sizes a Hub.
type Options struct {
	// RingSize bounds the finished-span ring (<= 0 uses
	// DefaultRingSize).
	RingSize int
	// Sample enables tracing of one in every Sample decide requests
	// per tracer (1 = every request). 0 disables tracing entirely: no
	// trace is ever sampled and the per-decision cost is one atomic
	// load plus a branch.
	Sample int
}

// Hub bundles the telemetry surfaces one serving process uses.
type Hub struct {
	Tracer     *Tracer
	Scoreboard *Scoreboard
	Accounting *Accounting

	// metrics is the event stream's metrics sink, registered by
	// Instrument; nil until then.
	metrics atomic.Pointer[obs.Metrics]
}

// NewHub builds a Hub from o, applying defaults. Its scoreboard keeps
// DefaultWindow errors per cell and flags drift at DefaultDriftFactor.
func NewHub(o Options) *Hub {
	if o.RingSize <= 0 {
		o.RingSize = DefaultRingSize
	}
	return &Hub{
		Tracer:     NewTracer(o.RingSize, o.Sample),
		Scoreboard: NewScoreboard(DefaultWindow, DefaultDriftFactor),
		Accounting: NewAccounting(),
	}
}

// Instrument registers the hub's families on reg: the tracer's, the
// scoreboard's, and the obs.Metrics families that served sessions'
// events land in. Call once, before traffic.
func (h *Hub) Instrument(reg *metrics.Registry) {
	if h == nil {
		return
	}
	h.Tracer.Instrument(reg)
	h.Scoreboard.Instrument(reg)
	h.metrics.Store(obs.NewMetrics(reg))
}

// SessionObserver returns the observer one served session reports
// through. It fans every event out to the obs.Metrics sink Instrument
// registered (none before Instrument), to the session's ledger row, and
// to the scoreboard cells of the generation the session is pinned to.
func (h *Hub) SessionObserver(sessionID string, gen uint64) obs.Observer {
	var m obs.Observer
	if mo := h.metrics.Load(); mo != nil {
		m = mo
	}
	return obs.Multi(m, h.Accounting.Sink(sessionID), h.Scoreboard.Sink(gen))
}
