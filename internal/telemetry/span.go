package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"mpcdvfs/internal/metrics"
)

// Span names of the decide path. Names follow the same mpcdvfs_ prefix
// contract as metric names (enforced by the mpclint span-name check),
// so one matcher selects the whole subsystem in any span store.
const (
	// SpanDecide is the root span of one configuration decision:
	// everything from the moment the decide operation holds its
	// session until the policy returns.
	SpanDecide = "mpcdvfs_decide"
	// SpanSearch covers the policy's configuration search (the window
	// optimization for MPC, the exhaustive sweep for PPK).
	SpanSearch = "mpcdvfs_search"
	// SpanFeaturize covers building the predictor's feature matrix
	// (counter prefix + per-configuration rows) in a batched sweep.
	SpanFeaturize = "mpcdvfs_featurize"
	// SpanForestEval covers model inference over a space sweep: the
	// compiled-forest evaluations of a batched sweep, or the scalar
	// predictor calls of a sweep filled one configuration at a time. A
	// hill climb's scalar calls get no span; the decision counts them
	// (sim.Decision.Evals).
	SpanForestEval = "mpcdvfs_forest_eval"
)

// SpanRecord is one finished span. Records are immutable once
// published to the tracer's ring.
type SpanRecord struct {
	TraceID  uint64 `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id,omitempty"` // 0 for roots
	Name     string `json:"name"`
	Session  string `json:"session,omitempty"` // owning session id ("" for local replays)
	Index    int    `json:"index"`             // kernel invocation index of the trace
	StartUNS int64  `json:"start_unix_ns"`
	DurNS    int64  `json:"dur_ns"`
}

// Tracer owns the span id space, the 1-in-N sampling decision and the
// bounded ring of finished spans. One Tracer serves many Contexts (one
// per session); all Tracer state is internally synchronized.
type Tracer struct {
	sampleN uint64        // sample 1 in N roots; 0 = disabled
	ids     atomic.Uint64 // trace/span id source
	roots   atomic.Uint64 // root-start counter driving sampling
	sampled atomic.Uint64 // roots actually traced

	mu   sync.Mutex
	ring []SpanRecord
	pos  int // next write position
	n    int // valid records (<= len(ring))

	instr atomic.Pointer[tracerInstr]
}

type tracerInstr struct {
	roots, sampled, spans *metrics.Counter
}

// NewTracer returns a tracer retaining the last ringSize finished
// spans, sampling one in sampleN root spans (1 = every root, 0 =
// tracing disabled).
func NewTracer(ringSize, sampleN int) *Tracer {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	if sampleN < 0 {
		sampleN = 0
	}
	return &Tracer{sampleN: uint64(sampleN), ring: make([]SpanRecord, ringSize)}
}

// SampleN returns the tracer's 1-in-N sampling rate (0 = disabled).
func (t *Tracer) SampleN() int {
	if t == nil {
		return 0
	}
	return int(t.sampleN)
}

// Stats returns the cumulative root-span starts and how many of them
// were sampled into traces.
func (t *Tracer) Stats() (roots, sampled uint64) {
	if t == nil {
		return 0, 0
	}
	return t.roots.Load(), t.sampled.Load()
}

// Instrument mirrors tracer traffic into reg.
func (t *Tracer) Instrument(reg *metrics.Registry) {
	if t == nil {
		return
	}
	t.instr.Store(&tracerInstr{
		roots: reg.Counter("mpcdvfs_trace_roots_total",
			"Root spans offered to the tracer (one per decide operation).").With(),
		sampled: reg.Counter("mpcdvfs_trace_sampled_total",
			"Root spans selected by 1-in-N sampling and recorded as traces.").With(),
		spans: reg.Counter("mpcdvfs_trace_spans_total",
			"Finished spans published to the retention ring (children included).").With(),
	})
}

// NewContext returns a trace context for one session. The context is
// used by one of the session's operations at a time and is NOT safe
// for concurrent use; a nil *Context (or a nil receiver anywhere in its
// API) is safe and disables tracing.
func (t *Tracer) NewContext(session string) *Context {
	if t == nil {
		return nil
	}
	return &Context{t: t, session: session}
}

// Snapshot appends the ring's contents, oldest first, to dst and
// returns it. The returned records are copies; the ring keeps
// accepting spans concurrently.
func (t *Tracer) Snapshot(dst []SpanRecord) []SpanRecord {
	if t == nil {
		return dst
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == len(t.ring) {
		dst = append(dst, t.ring[t.pos:]...)
		dst = append(dst, t.ring[:t.pos]...)
		return dst
	}
	return append(dst, t.ring[:t.n]...)
}

// publish copies one finished trace's records into the ring.
func (t *Tracer) publish(recs []SpanRecord) {
	if len(recs) == 0 {
		return
	}
	if in := t.instr.Load(); in != nil {
		in.spans.Add(float64(len(recs)))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range recs {
		t.ring[t.pos] = r
		t.pos++
		if t.pos == len(t.ring) {
			t.pos = 0
		}
		if t.n < len(t.ring) {
			t.n++
		}
	}
}

// sampleRoot decides whether the next root span is traced.
func (t *Tracer) sampleRoot() bool {
	if t.sampleN == 0 {
		return false
	}
	n := t.roots.Add(1)
	if in := t.instr.Load(); in != nil {
		in.roots.Inc()
	}
	if (n-1)%t.sampleN != 0 {
		return false
	}
	t.sampled.Add(1)
	if in := t.instr.Load(); in != nil {
		in.sampled.Inc()
	}
	return true
}

// maxSpanDepth bounds a context's open spans. The frame stack is
// fixed-size so an active trace allocates nothing per span.
const maxSpanDepth = 8

type frame struct {
	name   string
	id     uint64
	parent uint64
	start  time.Time
}

// Context is one session's tracing state: a fixed-depth span stack and
// a reusable record buffer, flushed to the tracer's ring when the root
// span ends. All methods are nil-receiver-safe, so producers embed
// calls unconditionally and a disabled path costs one nil check.
//
// A Context must only be used by one of its session's operations at a
// time (or a single-threaded replay loop); the tracer it publishes to
// is the shared, synchronized part.
type Context struct {
	t       *Tracer
	session string
	traceID uint64
	index   int
	depth   int
	frames  [maxSpanDepth]frame
	buf     []SpanRecord // finished records of the active trace
}

// Span is a handle to one started span. The zero Span is inert: End is
// a no-op, so unsampled and disabled paths hand the same value type
// around without branching at the call site.
type Span struct {
	c   *Context
	idx int32
}

// StartRoot opens the root span of one decision for kernel invocation
// index, applying the tracer's sampling decision. The returned span
// must be ended by the same goroutine; ending it publishes the whole
// trace to the ring.
//
//mpclint:hotpath disabled and steady-state paths pinned at 0 allocs/op by TestDisabledPathZeroAlloc and TestActiveTraceSteadyStateZeroAlloc
func (c *Context) StartRoot(name string, index int) Span {
	if c == nil || c.t == nil || c.depth != 0 || !c.t.sampleRoot() {
		return Span{}
	}
	c.traceID = c.t.ids.Add(1)
	c.index = index
	if c.buf == nil {
		//mpclint:ignore hotpath-alloc one-time buffer build on a context's first sampled trace; steady state reuses it, pinned by TestActiveTraceSteadyStateZeroAlloc
		c.buf = make([]SpanRecord, 0, maxSpanDepth)
	}
	c.frames[0] = frame{name: name, id: c.t.ids.Add(1), start: time.Now()}
	c.depth = 1
	return Span{c: c, idx: 0}
}

// Start opens a child span under the innermost open span. Outside a
// sampled trace (or past the depth bound) it returns an inert span.
//
//mpclint:hotpath pinned at 0 allocs/op by TestDisabledPathZeroAlloc and TestActiveTraceSteadyStateZeroAlloc
func (c *Context) Start(name string) Span {
	if c == nil || c.depth == 0 || c.depth >= maxSpanDepth {
		return Span{}
	}
	parent := c.frames[c.depth-1].id
	c.frames[c.depth] = frame{name: name, id: c.t.ids.Add(1), parent: parent, start: time.Now()}
	c.depth++
	return Span{c: c, idx: int32(c.depth - 1)}
}

// End closes the span: its record joins the trace buffer, and closing
// the root publishes the whole trace to the tracer's ring. Ending an
// inert or out-of-order span is a no-op.
//
//mpclint:hotpath pinned at 0 allocs/op by TestDisabledPathZeroAlloc and TestActiveTraceSteadyStateZeroAlloc
func (s Span) End() {
	c := s.c
	if c == nil || c.depth != int(s.idx)+1 {
		return
	}
	f := &c.frames[c.depth-1]
	dur := time.Since(f.start)
	//mpclint:ignore hotpath-alloc within the capacity StartRoot reserves; a longer trace grows the context's buffer, which later traces reuse; steady state pinned by TestActiveTraceSteadyStateZeroAlloc
	c.buf = append(c.buf, SpanRecord{
		TraceID:  c.traceID,
		SpanID:   f.id,
		ParentID: f.parent,
		Name:     f.name,
		Session:  c.session,
		Index:    c.index,
		StartUNS: f.start.UnixNano(),
		DurNS:    dur.Nanoseconds(),
	})
	*f = frame{}
	c.depth--
	if c.depth == 0 {
		c.t.publish(c.buf)
		c.buf = c.buf[:0]
	}
}
