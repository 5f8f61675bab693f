// Package metrics is a dependency-free, concurrency-safe metrics
// registry for the MPC runtime: counters, gauges and fixed-bucket
// histograms with an atomic hot path, exported in the Prometheus text
// exposition format (text/plain; version=0.0.4).
//
// It deliberately mirrors the shape of the Prometheus client library —
// families with label dimensions, children addressed by label values —
// without importing it: the ROADMAP's production north star wants the
// runtime scrapeable by standard tooling, and the repo's stdlib-only
// constraint wants no new go.mod entries.
//
// Hot-path cost: Counter.Add / Gauge.Set / Histogram.Observe are
// lock-free (atomic CAS on float bits, atomic bucket increments).
// Vec.With takes a read lock for the child lookup and allocates nothing
// once the child exists; callers on very hot paths may still cache the
// returned child to skip the lookup.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind enumerates the supported metric types.
type Kind int

// Metric kinds, matching the Prometheus TYPE annotations.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind?(%d)", int(k))
}

// Registry holds metric families and renders them for scraping. The zero
// value is not usable; call New.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric with a fixed label schema.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram upper bounds (exclusive of +Inf)

	mu       sync.RWMutex
	children map[string]child
	labelSet map[string][]string // child key -> label values
}

type child interface{}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter registers (or returns the previously registered) counter
// family. Label values are supplied later via CounterVec.With. Panics on
// an invalid name or a conflicting earlier registration — both are
// programmer errors, as in the Prometheus client.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	f := r.register(name, help, KindCounter, nil, labels)
	return &CounterVec{f: f}
}

// Gauge registers (or returns the previously registered) gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	f := r.register(name, help, KindGauge, nil, labels)
	return &GaugeVec{f: f}
}

// Histogram registers (or returns the previously registered) histogram
// family with the given bucket upper bounds (ascending; +Inf is implicit
// and must not be listed).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		panic("metrics: histogram " + name + " needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s buckets not ascending at %d", name, i))
		}
	}
	if math.IsInf(buckets[len(buckets)-1], +1) {
		panic("metrics: histogram " + name + " must not list +Inf explicitly")
	}
	f := r.register(name, help, KindHistogram, buckets, labels)
	return &HistogramVec{f: f}
}

// register adds or revalidates a family. Re-registration with an
// identical schema returns the existing family so independent components
// can share a registry without coordination.
func (r *Registry) register(name, help string, kind Kind, buckets []float64, labels []string) *family {
	if !validName(name) {
		panic("metrics: invalid metric name " + name)
	}
	for _, l := range labels {
		if !validName(l) || strings.HasPrefix(l, "__") || l == "le" {
			panic("metrics: invalid label name " + l + " on " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic("metrics: conflicting re-registration of " + name)
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: map[string]child{},
		labelSet: map[string][]string{},
	}
	r.families[name] = f
	return f
}

// validName reports whether s matches the Prometheus metric/label name
// charset [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { //mpclint:ignore float-eq re-registration must see bit-identical bucket boundaries; a tolerance would silently merge distinct histograms
			return false
		}
	}
	return true
}

// lookup finds or creates a child for the given label values. The child
// key joins the values with an unprintable separator (values containing
// \xff are legal but vanishingly rare, and a collision only merges two
// children of the same family). It is built in a stack buffer, and the
// map is indexed with string(kb) without a copy, so a hit allocates
// nothing; only a miss stores the key as a string.
func (f *family) lookup(lvs []string, mk func() child) child {
	if len(lvs) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", f.name, len(f.labels), len(lvs)))
	}
	var buf [128]byte
	kb := buf[:0]
	for i, v := range lvs {
		if i > 0 {
			kb = append(kb, '\xff')
		}
		kb = append(kb, v...)
	}
	f.mu.RLock()
	c, ok := f.children[string(kb)]
	f.mu.RUnlock()
	if ok {
		return c
	}
	k := string(kb)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[k]; ok {
		return c
	}
	c = mk()
	f.children[k] = c
	f.labelSet[k] = append([]string(nil), lvs...)
	return c
}

// ---- Counter ----

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Add increments the counter by v. Panics if v is negative.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("metrics: counter decremented")
	}
	addFloat(&c.bits, v)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// CounterVec is a counter family; With addresses one child by its label
// values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.lookup(labelValues, func() child { return &Counter{} }).(*Counter)
}

// ---- Gauge ----

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments (or, with a negative v, decrements) the gauge.
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeVec is a gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.lookup(labelValues, func() child { return &Gauge{} }).(*Gauge)
}

// ---- Histogram ----

// Histogram counts observations into fixed buckets. Buckets store
// per-bucket (non-cumulative) counts; exposition cumulates them.
type Histogram struct {
	upper   []float64 // shared with the family; read-only
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v; past the end means +Inf.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// HistogramVec is a histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.lookup(labelValues, func() child {
		return &Histogram{
			upper:  v.f.buckets,
			counts: make([]atomic.Uint64, len(v.f.buckets)+1),
		}
	}).(*Histogram)
}

// addFloat atomically adds v to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// LinearBuckets returns count bucket bounds starting at start, spaced by
// width.
func LinearBuckets(start, width float64, count int) []float64 {
	if count < 1 {
		panic("metrics: LinearBuckets needs count >= 1")
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExponentialBuckets returns count bucket bounds starting at start, each
// factor times the previous.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if count < 1 || start <= 0 || factor <= 1 {
		panic("metrics: ExponentialBuckets needs count >= 1, start > 0, factor > 1")
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
