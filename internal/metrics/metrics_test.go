package metrics

import (
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentCounter hammers one counter and one histogram child from
// many goroutines; run under -race this is the registry's concurrency
// contract, and the final values must be exact (no lost updates).
func TestConcurrentCounter(t *testing.T) {
	r := New()
	cv := r.Counter("test_ops_total", "ops", "worker")
	gv := r.Gauge("test_depth", "depth")
	hv := r.Histogram("test_lat_ms", "latency", []float64{1, 10, 100})

	const goroutines = 16
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := cv.With("w")
			h := hv.With()
			for i := 0; i < perG; i++ {
				c.Inc()
				gv.With().Set(float64(g))
				h.Observe(float64(i % 200))
			}
		}(g)
	}
	wg.Wait()

	if got := cv.With("w").Value(); got != goroutines*perG {
		t.Errorf("counter = %v, want %d", got, goroutines*perG)
	}
	if got := hv.With().Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestHistogramBuckets pins the le bucket semantics: a value lands in the
// first bucket whose upper bound is >= v (le = less-or-equal), and
// exposition counts are cumulative.
func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("test_h", "", []float64{1, 5, 10}).With()

	// Boundary values: exactly on a bound belongs to that bound's bucket.
	for _, v := range []float64{0.5, 1.0, 1.0001, 5.0, 9.99, 10.0, 10.01, 1e9} {
		h.Observe(v)
	}
	// Non-cumulative per-bucket expectation:
	//   le=1: {0.5, 1.0}            -> 2
	//   le=5: {1.0001, 5.0}         -> 2
	//   le=10: {9.99, 10.0}         -> 2
	//   +Inf: {10.01, 1e9}          -> 2
	want := []uint64{2, 2, 2, 2}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	wantSum := 0.5 + 1 + 1.0001 + 5 + 9.99 + 10 + 10.01 + 1e9
	if math.Abs(h.Sum()-wantSum) > 1e-9*wantSum {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		`test_h_bucket{le="1"} 2`,
		`test_h_bucket{le="5"} 4`,
		`test_h_bucket{le="10"} 6`,
		`test_h_bucket{le="+Inf"} 8`,
		`test_h_count 8`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q in:\n%s", line, out)
		}
	}
}

// TestExpositionGolden pins the full text format: HELP/TYPE annotations,
// sorted families, sorted children, label escaping.
func TestExpositionGolden(t *testing.T) {
	r := New()
	c := r.Counter("zz_total", "last family", "app")
	c.With("spmv").Add(3)
	c.With(`we"ird\val`).Inc()
	g := r.Gauge("aa_gauge", "first family\nwith newline")
	g.With().Set(2.5)
	h := r.Histogram("mm_hist", "middle", []float64{0.5, 2}, "policy")
	h.With("mpc").Observe(0.25)
	h.With("mpc").Observe(1)
	h.With("mpc").Observe(99)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_gauge first family\nwith newline
# TYPE aa_gauge gauge
aa_gauge 2.5
# HELP mm_hist middle
# TYPE mm_hist histogram
mm_hist_bucket{policy="mpc",le="0.5"} 1
mm_hist_bucket{policy="mpc",le="2"} 2
mm_hist_bucket{policy="mpc",le="+Inf"} 3
mm_hist_sum{policy="mpc"} 100.25
mm_hist_count{policy="mpc"} 3
# HELP zz_total last family
# TYPE zz_total counter
zz_total{app="spmv"} 3
zz_total{app="we\"ird\\val"} 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHandler checks the HTTP surface: content type and body.
func TestHandler(t *testing.T) {
	r := New()
	r.Counter("h_total", "").With().Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != TextContentType {
		t.Errorf("content type = %q, want %q", ct, TextContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "h_total 1\n") {
		t.Errorf("body missing sample:\n%s", body)
	}
}

// TestReregistration: identical re-registration returns the same family;
// a conflicting one panics.
func TestReregistration(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "x", "app")
	b := r.Counter("x_total", "x", "app")
	a.With("k").Add(2)
	if got := b.With("k").Value(); got != 2 {
		t.Errorf("re-registered family not shared: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("conflicting re-registration did not panic")
		}
	}()
	r.Gauge("x_total", "x", "app")
}

// TestValidation pins the name and bucket validation panics.
func TestValidation(t *testing.T) {
	r := New()
	for _, f := range []func(){
		func() { r.Counter("0bad", "") },
		func() { r.Counter("bad-name", "") },
		func() { r.Counter("ok_total", "", "le") },
		func() { r.Histogram("h1", "", nil) },
		func() { r.Histogram("h2", "", []float64{2, 1}) },
		func() { r.Histogram("h3", "", []float64{1, math.Inf(1)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestGaugeAndBucketsHelpers covers Add/Set and the bucket constructors.
func TestGaugeAndBucketsHelpers(t *testing.T) {
	r := New()
	g := r.Gauge("g", "").With()
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("gauge = %v, want 7", g.Value())
	}
	lin := LinearBuckets(1, 2, 3)
	if lin[0] != 1 || lin[1] != 3 || lin[2] != 5 {
		t.Errorf("LinearBuckets = %v", lin)
	}
	exp := ExponentialBuckets(1, 10, 3)
	if exp[0] != 1 || exp[1] != 10 || exp[2] != 100 {
		t.Errorf("ExponentialBuckets = %v", exp)
	}
}

// TestWithExistingChildZeroAlloc pins the label lookup on a hit at zero
// allocations for one, two and three label values: the decision path
// resolves up to 14 children per served decision, every one a hit after
// the first.
func TestWithExistingChildZeroAlloc(t *testing.T) {
	r := New()
	c1 := r.Counter("one_total", "", "policy")
	g2 := r.Gauge("two", "", "policy", "app")
	h3 := r.Histogram("three", "", []float64{1}, "policy", "app", "domain")
	c1.With("mpc")
	g2.With("mpc", "Spmv")
	h3.With("mpc", "Spmv", "time")
	for _, tc := range []struct {
		name string
		with func()
	}{
		{"1 label", func() { c1.With("mpc").Inc() }},
		{"2 labels", func() { g2.With("mpc", "Spmv").Set(1) }},
		{"3 labels", func() { h3.With("mpc", "Spmv", "time").Observe(0.5) }},
	} {
		if allocs := testing.AllocsPerRun(200, tc.with); allocs != 0 {
			t.Errorf("With on an existing child, %s: %v allocs, want 0", tc.name, allocs)
		}
	}
}
