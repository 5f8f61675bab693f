package main

import (
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/telemetry"
)

// The wrappers below sit on the exported boundaries of the decision
// stack. Each forwards every optional interface the wrapped value
// implements (predict.SpaceEvaluator, predict.TracedSpaceEvaluator,
// telemetry.Traceable, obs.Instrumentable) and no other, so the wrapped
// program takes exactly the code paths the bare one does.

// decisionStats tallies the sim.Decisions a policy returned. Safe for
// concurrent use: server-side sessions share one.
type decisionStats struct {
	decisions, evals, horizonSum, fallbacks atomic.Int64
}

func (s *decisionStats) add(d sim.Decision) {
	s.decisions.Add(1)
	s.evals.Add(int64(d.Evals))
	s.horizonSum.Add(int64(d.Horizon))
	if d.Fallback != "" {
		s.fallbacks.Add(1)
	}
}

// latencies collects decision latencies in milliseconds into storage
// sized up front, so collecting allocates nothing while timed.
type latencies struct{ ms []float64 }

func newLatencies(n int) *latencies { return &latencies{ms: make([]float64, 0, n)} }

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, ms(d)) }

// policyWrap wraps a sim.Policy. With a lane it records one span per
// call under names; with stats it tallies decisions; with lat it times
// Decide; with client it tags the lane with the serving session.
type policyWrap struct {
	inner  sim.Policy
	ln     *lane
	names  [3]spanName // Begin, Decide, Observe
	stats  *decisionStats
	lat    *latencies
	client *serve.Client
}

var (
	serverPolicyNames = [3]spanName{spanPolicyBegin, spanPolicyDecide, spanPolicyObserve}
	clientPolicyNames = [3]spanName{spanClientSession, spanClientDecide, spanClientObserve}
)

// wrapPolicy returns w as a sim.Policy that also implements whichever
// of telemetry.Traceable and obs.Instrumentable w.inner implements.
func wrapPolicy(w *policyWrap) sim.Policy {
	_, tr := w.inner.(telemetry.Traceable)
	_, in := w.inner.(obs.Instrumentable)
	switch {
	case tr && in:
		return policyTI{w}
	case tr:
		return policyT{w}
	case in:
		return policyI{w}
	}
	return w
}

func (w *policyWrap) Name() string { return w.inner.Name() }

func (w *policyWrap) Begin(info sim.RunInfo) {
	if w.ln == nil {
		w.inner.Begin(info)
		return
	}
	w.ln.begin(w.names[0], -1)
	w.inner.Begin(info)
	w.ln.end()
	if w.client != nil {
		w.ln.session = sessionOrdinal(w.client.SessionID())
	}
}

func (w *policyWrap) Decide(i int) sim.Decision {
	if w.ln != nil {
		w.ln.begin(w.names[1], i)
	}
	var start time.Time
	if w.lat != nil {
		start = time.Now()
	}
	d := w.inner.Decide(i)
	if w.lat != nil {
		w.lat.add(time.Since(start))
	}
	if w.ln != nil {
		w.ln.end()
	}
	if w.stats != nil {
		w.stats.add(d)
	}
	return d
}

func (w *policyWrap) Observe(o sim.Observation) {
	if w.ln == nil {
		w.inner.Observe(o)
		return
	}
	w.ln.begin(w.names[2], o.Index)
	w.inner.Observe(o)
	w.ln.end()
}

type policyT struct{ *policyWrap }

func (p policyT) SetTraceContext(tc *telemetry.Context) {
	p.inner.(telemetry.Traceable).SetTraceContext(tc)
}

type policyI struct{ *policyWrap }

func (p policyI) SetObserver(o obs.Observer) { p.inner.(obs.Instrumentable).SetObserver(o) }

type policyTI struct{ *policyWrap }

func (p policyTI) SetTraceContext(tc *telemetry.Context) {
	p.inner.(telemetry.Traceable).SetTraceContext(tc)
}

func (p policyTI) SetObserver(o obs.Observer) { p.inner.(obs.Instrumentable).SetObserver(o) }

// sessionOrdinal turns a server session id ("s42") into 42, or -1.
func sessionOrdinal(id string) int32 {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "s"))
	if err != nil {
		return -1
	}
	return int32(n)
}

// modelWrap wraps the predict.Model a policy hands to predict.Calibrated.
type modelWrap struct {
	inner predict.Model
	ln    *lane
}

// wrapModel returns m wrapped, implementing predict.SpaceEvaluator and
// predict.TracedSpaceEvaluator exactly when m does.
func wrapModel(m predict.Model, ln *lane) predict.Model {
	w := &modelWrap{inner: m, ln: ln}
	se, ok := m.(predict.SpaceEvaluator)
	if !ok {
		return w
	}
	s := spaceModel{w, se}
	if tse, ok := m.(predict.TracedSpaceEvaluator); ok {
		return tracedSpaceModel{s, tse}
	}
	return s
}

func (w *modelWrap) Name() string { return w.inner.Name() }

func (w *modelWrap) PredictKernel(cs counters.Set, c hw.Config) predict.Estimate {
	w.ln.begin(spanPredictPoint, -1)
	e := w.inner.PredictKernel(cs, c)
	w.ln.end()
	return e
}

type spaceModel struct {
	*modelWrap
	se predict.SpaceEvaluator
}

func (m spaceModel) PredictSpace(cs counters.Set, space hw.Space, dst []predict.Estimate) bool {
	m.ln.begin(spanPredictSweep, -1)
	ok := m.se.PredictSpace(cs, space, dst)
	m.ln.end()
	return ok
}

type tracedSpaceModel struct {
	spaceModel
	tse predict.TracedSpaceEvaluator
}

func (m tracedSpaceModel) PredictSpaceTraced(cs counters.Set, space hw.Space, dst []predict.Estimate, tc *telemetry.Context) bool {
	m.ln.begin(spanPredictSweep, -1)
	ok := m.tse.PredictSpaceTraced(cs, space, dst, tc)
	m.ln.end()
	return ok
}

// observerWrap records one span per obs.Observer callback.
type observerWrap struct {
	inner obs.Observer
	ln    *lane
}

// wrapObserver wraps o; a disabled observer stays unwrapped, so
// producers keep skipping event construction exactly as before.
func wrapObserver(o obs.Observer, ln *lane) obs.Observer {
	if !obs.Enabled(o) {
		return o
	}
	return observerWrap{o, ln}
}

func (w observerWrap) OnDecision(e obs.DecisionEvent) {
	w.ln.begin(spanObsEvent, e.Index)
	w.inner.OnDecision(e)
	w.ln.end()
}

func (w observerWrap) OnKernelDone(e obs.KernelEvent) {
	w.ln.begin(spanObsEvent, e.Index)
	w.inner.OnKernelDone(e)
	w.ln.end()
}

func (w observerWrap) OnHorizonChange(e obs.HorizonEvent) {
	w.ln.begin(spanObsEvent, e.Index)
	w.inner.OnHorizonChange(e)
	w.ln.end()
}

func (w observerWrap) OnModelError(e obs.ModelErrorEvent) {
	w.ln.begin(spanObsEvent, e.Index)
	w.inner.OnModelError(e)
	w.ln.end()
}

func (w observerWrap) OnFallback(e obs.FallbackEvent) {
	w.ln.begin(spanObsEvent, e.Index)
	w.inner.OnFallback(e)
	w.ln.end()
}

// wrapHandler records one span per request the decision API serves.
func wrapHandler(h http.Handler, t *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := spanHTTPSession
		switch r.URL.Path {
		case "/v1/decide":
			name = spanHTTPDecide
		case "/v1/observe":
			name = spanHTTPObserve
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.leaf(name, start, t.now())
	})
}

// Compile-time checks: the wrappers are drop-ins for what they wrap.
var (
	_ sim.Policy                   = (*policyWrap)(nil)
	_ telemetry.Traceable          = policyTI{}
	_ obs.Instrumentable           = policyTI{}
	_ predict.TracedSpaceEvaluator = tracedSpaceModel{}
	_ obs.Observer                 = observerWrap{}
)
