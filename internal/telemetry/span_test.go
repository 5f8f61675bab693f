package telemetry

import (
	"bytes"
	"testing"
)

// findByName returns the spans named name, in ring order.
func findByName(recs []SpanRecord, name string) []SpanRecord {
	var out []SpanRecord
	for _, r := range recs {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

func TestSpanTree(t *testing.T) {
	tr := NewTracer(64, 1)
	c := tr.NewContext("s1")

	root := c.StartRoot(SpanDecide, 7)
	if !c.Active() {
		t.Fatal("context not active inside a sampled root")
	}
	search := c.Start(SpanSearch)
	feat := c.Start(SpanFeaturize)
	feat.End()
	t0 := c.StartPhase()
	if t0.IsZero() {
		t.Fatal("StartPhase returned zero time while active")
	}
	c.EndPhase(SpanForestEval, t0)
	search.End()
	root.End()
	if c.Active() {
		t.Fatal("context still active after root end")
	}

	recs := tr.Snapshot(nil)
	if len(recs) != 4 {
		t.Fatalf("got %d spans, want 4 (root, search, featurize, forest agg): %+v", len(recs), recs)
	}
	roots := findByName(recs, SpanDecide)
	if len(roots) != 1 || roots[0].ParentID != 0 {
		t.Fatalf("bad root: %+v", roots)
	}
	rootRec := roots[0]
	if rootRec.Session != "s1" || rootRec.Index != 7 {
		t.Fatalf("root session/index = %q/%d, want s1/7", rootRec.Session, rootRec.Index)
	}
	searches := findByName(recs, SpanSearch)
	if len(searches) != 1 || searches[0].ParentID != rootRec.SpanID {
		t.Fatalf("search not a child of root: %+v", searches)
	}
	searchRec := searches[0]
	if searchRec.TraceID != rootRec.TraceID {
		t.Fatalf("search trace id %d, want %d", searchRec.TraceID, rootRec.TraceID)
	}
	featRec := findByName(recs, SpanFeaturize)
	if len(featRec) != 1 || featRec[0].ParentID != searchRec.SpanID {
		t.Fatalf("featurize not a child of search: %+v", featRec)
	}
	agg := findByName(recs, SpanForestEval)
	if len(agg) != 1 || !agg[0].Agg || agg[0].ParentID != searchRec.SpanID {
		t.Fatalf("forest-eval aggregate wrong: %+v", agg)
	}
}

func TestSampling(t *testing.T) {
	tr := NewTracer(256, 3)
	c := tr.NewContext("s")
	for i := 0; i < 9; i++ {
		root := c.StartRoot(SpanDecide, i)
		root.End()
	}
	roots, sampled := tr.Stats()
	if roots != 9 || sampled != 3 {
		t.Fatalf("roots=%d sampled=%d, want 9/3", roots, sampled)
	}
	if got := len(tr.Snapshot(nil)); got != 3 {
		t.Fatalf("ring holds %d spans, want 3", got)
	}
}

func TestRingWrap(t *testing.T) {
	tr := NewTracer(4, 1)
	c := tr.NewContext("s")
	for i := 0; i < 10; i++ {
		root := c.StartRoot(SpanDecide, i)
		root.End()
	}
	recs := tr.Snapshot(nil)
	if len(recs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recs))
	}
	// Oldest-first: indexes 6,7,8,9.
	for i, r := range recs {
		if r.Index != 6+i {
			t.Fatalf("ring[%d].Index = %d, want %d", i, r.Index, 6+i)
		}
	}
}

func TestNilAndDisabledSafe(t *testing.T) {
	var c *Context
	if c.Active() {
		t.Fatal("nil context active")
	}
	root := c.StartRoot(SpanDecide, 0)
	c.EndPhase(SpanForestEval, c.StartPhase())
	c.Start(SpanSearch).End()
	root.End() // all no-ops

	// Disabled tracer: context exists, nothing samples.
	tr := NewTracer(8, 0)
	d := tr.NewContext("s")
	r := d.StartRoot(SpanDecide, 0)
	if d.Active() {
		t.Fatal("sample=0 context active")
	}
	r.End()
	if got := len(tr.Snapshot(nil)); got != 0 {
		t.Fatalf("disabled tracer recorded %d spans", got)
	}
}

// TestDisabledPathZeroAlloc pins the zero-alloc-when-disabled contract:
// a nil context and an unsampled context must not allocate per
// decision.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var nilCtx *Context
	if n := testing.AllocsPerRun(1000, func() {
		root := nilCtx.StartRoot(SpanDecide, 0)
		sp := nilCtx.Start(SpanSearch)
		nilCtx.EndPhase(SpanForestEval, nilCtx.StartPhase())
		sp.End()
		root.End()
	}); n != 0 {
		t.Fatalf("nil context allocates %.1f/op, want 0", n)
	}

	tr := NewTracer(8, 0)
	c := tr.NewContext("s")
	if n := testing.AllocsPerRun(1000, func() {
		root := c.StartRoot(SpanDecide, 0)
		sp := c.Start(SpanSearch)
		c.EndPhase(SpanForestEval, c.StartPhase())
		sp.End()
		root.End()
	}); n != 0 {
		t.Fatalf("sample=0 context allocates %.1f/op, want 0", n)
	}
}

// TestActiveTraceSteadyStateZeroAlloc pins that even a 100%-sampled
// trace allocates nothing per decision once the context's record
// buffer has grown (the first trace pays the one buffer allocation).
func TestActiveTraceSteadyStateZeroAlloc(t *testing.T) {
	tr := NewTracer(64, 1)
	c := tr.NewContext("s")
	warm := func() {
		root := c.StartRoot(SpanDecide, 0)
		sp := c.Start(SpanSearch)
		c.EndPhase(SpanForestEval, c.StartPhase())
		sp.End()
		root.End()
	}
	warm()
	if n := testing.AllocsPerRun(500, warm); n != 0 {
		t.Fatalf("steady-state sampled trace allocates %.1f/op, want 0", n)
	}
}

func TestDepthBoundAndMismatchedEnd(t *testing.T) {
	tr := NewTracer(256, 1)
	c := tr.NewContext("s")
	root := c.StartRoot(SpanDecide, 0)
	spans := make([]Span, 0, maxSpanDepth+2)
	for i := 0; i < maxSpanDepth+2; i++ {
		spans = append(spans, c.Start(SpanSearch))
	}
	// Ending a parent before its still-open child is ignored.
	root.End()
	if !c.Active() {
		t.Fatal("out-of-order root end closed the trace")
	}
	for i := len(spans) - 1; i >= 0; i-- {
		spans[i].End()
	}
	root.End()
	if c.Active() {
		t.Fatal("trace still open after ordered unwind")
	}
	recs := tr.Snapshot(nil)
	// Root + (maxSpanDepth-1) children fit; the overflow starts were inert.
	if len(recs) != maxSpanDepth {
		t.Fatalf("got %d spans, want %d", len(recs), maxSpanDepth)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(64, 1)
	c := tr.NewContext("sess-9")
	root := c.StartRoot(SpanDecide, 3)
	c.Start(SpanSearch).End()
	root.End()
	recs := tr.Snapshot(nil)

	var buf bytes.Buffer
	if err := WriteSpansJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSpansJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip: %d records, want %d", len(back), len(recs))
	}
	for i := range recs {
		if recs[i] != back[i] {
			t.Fatalf("record %d changed in round trip:\n  %+v\n  %+v", i, recs[i], back[i])
		}
	}
}

func BenchmarkTelemetrySpanDisabled(b *testing.B) {
	tr := NewTracer(64, 0)
	c := tr.NewContext("s")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := c.StartRoot(SpanDecide, i)
		sp := c.Start(SpanSearch)
		c.EndPhase(SpanForestEval, c.StartPhase())
		sp.End()
		root.End()
	}
}

func BenchmarkTelemetrySpanNilContext(b *testing.B) {
	var c *Context
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := c.StartRoot(SpanDecide, i)
		sp := c.Start(SpanSearch)
		c.EndPhase(SpanForestEval, c.StartPhase())
		sp.End()
		root.End()
	}
}

func BenchmarkTelemetrySpanSampled(b *testing.B) {
	tr := NewTracer(4096, 1)
	c := tr.NewContext("s")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := c.StartRoot(SpanDecide, i)
		sp := c.Start(SpanSearch)
		c.EndPhase(SpanForestEval, c.StartPhase())
		sp.End()
		root.End()
	}
}
