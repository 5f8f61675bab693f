package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// spanName names one wrapped layer boundary.
type spanName uint8

const (
	spanSimRun        spanName = iota // sim.Engine.Run: one app run
	spanClientSession                 // serve.Client Begin or Close: /v1/session open or close
	spanClientDecide                  // serve.Client.Decide: /v1/decide round trip
	spanClientObserve                 // serve.Client.Observe: /v1/observe round trip
	spanHTTPSession                   // http.Handler serving /v1/session or /v1/session/close
	spanHTTPDecide                    // http.Handler serving /v1/decide
	spanHTTPObserve                   // http.Handler serving /v1/observe
	spanPolicyBegin                   // MPC Begin
	spanPolicyDecide                  // MPC Decide
	spanPolicyObserve                 // MPC Observe
	spanPredictSweep                  // PredictSpace / PredictSpaceTraced under Calibrated
	spanPredictPoint                  // PredictKernel under Calibrated
	spanObsEvent                      // any obs.Observer callback
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"sim.run", "serve.session", "serve.decide", "serve.observe",
	"http.session", "http.decide", "http.observe",
	"policy.begin", "policy.decide", "policy.observe",
	"predict.sweep", "predict.point", "obs.event",
}

func (n spanName) String() string { return spanNames[n] }

// spanCap bounds the spans kept for the exit dump. Aggregates cover
// every span; only the first spanCap are written out, so memory stays
// bounded however long the run.
const spanCap = 1 << 16

// spanRecord is one finished boundary call. Session is the serving
// session where the boundary sees one (client side), else -1; Kernel
// is the kernel index where the boundary sees one, else -1; Parent is
// the enclosing span's record on the same lane, else -1.
type spanRecord struct {
	Name    string `json:"name"`
	Lane    int32  `json:"lane"`
	Parent  int32  `json:"parent"`
	Session int32  `json:"session"`
	Kernel  int32  `json:"kernel"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// layerAgg accumulates one span name's calls: count, busy time, and
// self time (busy minus the time covered by child spans on its lane).
type layerAgg struct {
	Count  int64
	BusyNS int64
	SelfNS int64
}

// tracer records spans in memory for one traced run. Spans nest on a
// lane — one goroutine's strictly sequential call chain — so a span's
// parent is the innermost open span of its lane.
type tracer struct {
	base  time.Time
	next  atomic.Int64 // span records reserved so far
	spans []spanRecord

	mu    sync.Mutex
	lanes []*lane
	http  *lane // leaf spans from concurrent handler goroutines, under mu
}

func newTracer() *tracer {
	t := &tracer{base: time.Now(), spans: make([]spanRecord, spanCap)}
	t.http = t.newLane()
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// newLane registers a lane for one goroutine's call chain. Safe for
// concurrent use.
func (t *tracer) newLane() *lane {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &lane{t: t, id: int32(len(t.lanes)), session: -1, stack: make([]frame, 0, 8)}
	t.lanes = append(t.lanes, l)
	return l
}

// reserve returns a span record slot, or -1 once the dump is full.
func (t *tracer) reserve() int32 {
	i := t.next.Add(1) - 1
	if i >= spanCap {
		return -1
	}
	return int32(i)
}

// lane is one goroutine's span stack and aggregates. Only its owner
// goroutine touches it until the run ends.
type lane struct {
	t       *tracer
	id      int32
	session int32
	stack   []frame
	agg     [numSpanNames]layerAgg
	rootNS  int64 // busy time of the lane's outermost spans
}

type frame struct {
	name    spanName
	kernel  int32
	rec     int32
	startNS int64
	childNS int64
}

// begin opens a span on the lane; end closes the innermost one.
func (l *lane) begin(name spanName, kernel int) {
	l.stack = append(l.stack, frame{name: name, kernel: int32(kernel), rec: l.t.reserve(), startNS: l.t.now()})
}

func (l *lane) end() {
	endNS := l.t.now()
	f := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	dur := endNS - f.startNS
	a := &l.agg[f.name]
	a.Count++
	a.BusyNS += dur
	a.SelfNS += dur - f.childNS
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		l.stack[n-1].childNS += dur
		parent = l.stack[n-1].rec
	} else {
		l.rootNS += dur
	}
	if f.rec >= 0 {
		l.t.spans[f.rec] = spanRecord{Name: f.name.String(), Lane: l.id, Parent: parent,
			Session: l.session, Kernel: f.kernel, StartNS: f.startNS, EndNS: endNS}
	}
}

// leaf records a span that has no children on its goroutine (an HTTP
// handler: the session's work runs on the session's own goroutine).
// Safe for concurrent use.
func (t *tracer) leaf(name spanName, startNS, endNS int64) {
	rec := t.reserve()
	t.mu.Lock()
	defer t.mu.Unlock()
	a := &t.http.agg[name]
	a.Count++
	a.BusyNS += endNS - startNS
	a.SelfNS += endNS - startNS
	if rec >= 0 {
		t.spans[rec] = spanRecord{Name: name.String(), Lane: t.http.id, Parent: -1,
			Session: -1, Kernel: -1, StartNS: startNS, EndNS: endNS}
	}
}

// reset forgets everything recorded so far (set-up and warm-up calls
// through a traced stack), keeping the lanes. Call with no span open.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lanes {
		l.agg = [numSpanNames]layerAgg{}
		l.rootNS = 0
	}
	clear(t.spans)
	t.next.Store(0)
	t.base = time.Now()
}

// totals merges every lane's aggregates. Call after all traced
// goroutines have finished.
func (t *tracer) totals() [numSpanNames]layerAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out [numSpanNames]layerAgg
	for _, l := range t.lanes {
		for i, a := range l.agg {
			out[i].Count += a.Count
			out[i].BusyNS += a.BusyNS
			out[i].SelfNS += a.SelfNS
		}
	}
	return out
}

// writeSpans dumps the kept spans as JSONL to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := min(t.next.Load(), spanCap)
	for i := int64(0); i < n; i++ {
		if t.spans[i].Name == "" {
			continue // reserved by a span still open at the end (none in a finished run)
		}
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
