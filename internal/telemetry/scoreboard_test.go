package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"mpcdvfs/internal/metrics"
)

// exposition renders reg's text format, failing the test on error.
func exposition(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// hasLine reports whether text contains line as a full exposition line.
func hasLine(text, line string) bool {
	for _, l := range strings.Split(text, "\n") {
		if l == line {
			return true
		}
	}
	return false
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestScoreboardWindows(t *testing.T) {
	b := NewScoreboard(4, 2)
	// Predictions 10% high on time, 20% low on power.
	for i := 0; i < 10; i++ {
		b.Observe(1, "app", 1.1, 1.0, 8.0, 10.0)
	}
	cells := b.Snapshot()
	if len(cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(cells))
	}
	c := cells[0]
	if c.Gen != 1 || c.App != "app" || c.Observations != 10 || c.WindowFill != 4 {
		t.Fatalf("cell header wrong: %+v", c)
	}
	if !almostEq(c.TimeMAPE, 0.1) || !almostEq(c.TimeBias, 0.1) {
		t.Fatalf("time MAPE/bias = %v/%v, want 0.1/0.1", c.TimeMAPE, c.TimeBias)
	}
	if !almostEq(c.PowerMAPE, 0.2) || !almostEq(c.PowerBias, -0.2) {
		t.Fatalf("power MAPE/bias = %v/%v, want 0.2/-0.2", c.PowerMAPE, c.PowerBias)
	}
}

// TestScoreboardWindowEviction checks the incremental sums survive
// wrap-around: after the window slides past early outliers, MAPE
// reflects only the retained samples.
func TestScoreboardWindowEviction(t *testing.T) {
	b := NewScoreboard(4, 2)
	b.Observe(1, "a", 2.0, 1.0, 10, 10) // +100% time error, evicted later
	for i := 0; i < 4; i++ {
		b.Observe(1, "a", 1.05, 1.0, 10, 10)
	}
	c := b.Snapshot()[0]
	if !almostEq(c.TimeMAPE, 0.05) {
		t.Fatalf("after eviction TimeMAPE = %v, want 0.05", c.TimeMAPE)
	}
}

func TestScoreboardDrift(t *testing.T) {
	b := NewScoreboard(16, 2)
	b.SetBaseline(1, 0.10, 0.10)
	// Healthy: 12% error < 2×10% baseline.
	for i := 0; i < minDriftSamples; i++ {
		b.Observe(1, "good", 1.12, 1.0, 10, 10)
	}
	// Degraded: 50% error > 2×10% baseline.
	for i := 0; i < minDriftSamples; i++ {
		b.Observe(1, "bad", 1.5, 1.0, 10, 10)
	}
	// Degraded but too few samples to flag.
	for i := 0; i < minDriftSamples-1; i++ {
		b.Observe(1, "young", 1.5, 1.0, 10, 10)
	}
	// Degraded on a generation with no baseline: never flagged.
	for i := 0; i < minDriftSamples; i++ {
		b.Observe(2, "bad", 1.5, 1.0, 10, 10)
	}
	want := map[string]bool{"1/good": false, "1/bad": true, "1/young": false, "2/bad": false}
	for _, c := range b.Snapshot() {
		key := map[uint64]string{1: "1/", 2: "2/"}[c.Gen] + c.App
		if c.Drifted != want[key] {
			t.Errorf("cell %s drifted = %v, want %v (MAPE %v)", key, c.Drifted, want[key], c.TimeMAPE)
		}
	}

	// A baseline registered later turns drift detection on for
	// generation 2's existing window.
	b.SetBaseline(2, 0.10, 0.10)
	for _, c := range b.Snapshot() {
		if c.Gen == 2 && c.App == "bad" && !c.Drifted {
			t.Error("gen-2 cell not drifted under its late baseline")
		}
	}
}

func TestScoreboardSkipsNonPositiveMeasurements(t *testing.T) {
	b := NewScoreboard(8, 2)
	b.Observe(1, "a", 1, 0, 10, 10)
	b.Observe(1, "a", 1, 1, 10, 0)
	if cells := b.Snapshot(); len(cells) != 0 {
		t.Fatalf("non-positive measurements scored: %+v", cells)
	}
}

func TestScoreboardMetricsMirror(t *testing.T) {
	reg := metrics.New()
	b := NewScoreboard(8, 2)
	b.SetBaseline(3, 0.01, 0.01)
	b.Instrument(reg)
	for i := 0; i < minDriftSamples; i++ {
		b.Observe(3, "x", 1.5, 1.0, 10, 10)
	}
	text := exposition(t, reg)
	for _, want := range []string{
		`mpcdvfs_model_observations_total{gen="3",app="x"} 8`,
		`mpcdvfs_model_drift{gen="3",app="x"} 1`,
		`mpcdvfs_model_time_mape{gen="3",app="x"} 0.5`,
	} {
		if !hasLine(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestScoreboardConcurrent drives the scoreboard from 4 goroutines —
// the shape of 4 live serving sessions — with snapshots interleaved;
// the CI race job runs this under -race.
func TestScoreboardConcurrent(t *testing.T) {
	b := NewScoreboard(32, 2)
	b.Instrument(metrics.New())
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			app := string(rune('a' + g))
			for i := 0; i < perG; i++ {
				b.Observe(uint64(1+g%2), app, 1.1, 1.0, 9, 10)
				if i%100 == 0 {
					b.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	total := uint64(0)
	for _, c := range b.Snapshot() {
		total += c.Observations
	}
	if total != 4*perG {
		t.Fatalf("lost observations: %d, want %d", total, 4*perG)
	}
}

func BenchmarkTelemetryScoreboardObserve(b *testing.B) {
	sb := NewScoreboard(64, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sb.Observe(1, "app", 1.05, 1.0, 9.5, 10.0)
	}
}

// TestScoreboardDriftHookRisingEdge: the hook fires exactly once when a
// cell crosses into drift, not on every drifted Observe, and re-fires
// only after the cell recovers below the threshold first.
func TestScoreboardDriftHookRisingEdge(t *testing.T) {
	b := NewScoreboard(minDriftSamples, 2)
	b.SetBaseline(1, 0.10, 0.10)
	type fire struct {
		gen uint64
		app string
	}
	var fires []fire
	b.SetDriftHook(func(gen uint64, app string) { fires = append(fires, fire{gen, app}) })

	// Healthy observations: no fire.
	for i := 0; i < 2*minDriftSamples; i++ {
		b.Observe(1, "a", 1.05, 1.0, 10, 10)
	}
	if len(fires) != 0 {
		t.Fatalf("hook fired %d times on healthy traffic", len(fires))
	}
	// Degrade until the window tips over the threshold: exactly one fire
	// even though many subsequent Observes are also drifted.
	for i := 0; i < 3*minDriftSamples; i++ {
		b.Observe(1, "a", 1.5, 1.0, 10, 10)
	}
	if len(fires) != 1 || fires[0] != (fire{1, "a"}) {
		t.Fatalf("rising edge fired %v, want exactly one (1, a)", fires)
	}
	// Recover: the full window refills with healthy errors, then degrade
	// again — a second rising edge.
	for i := 0; i < 2*minDriftSamples; i++ {
		b.Observe(1, "a", 1.05, 1.0, 10, 10)
	}
	if len(fires) != 1 {
		t.Fatalf("recovery fired the hook: %v", fires)
	}
	for i := 0; i < 3*minDriftSamples; i++ {
		b.Observe(1, "a", 1.5, 1.0, 10, 10)
	}
	if len(fires) != 2 {
		t.Fatalf("re-degradation after recovery fired %d times, want 2", len(fires))
	}
	// Independent cells edge independently.
	for i := 0; i < 3*minDriftSamples; i++ {
		b.Observe(1, "b", 1.5, 1.0, 10, 10)
	}
	if len(fires) != 3 || fires[2] != (fire{1, "b"}) {
		t.Fatalf("second cell's edge: %v", fires)
	}
	// Clearing the hook silences future edges.
	b.SetDriftHook(nil)
	for i := 0; i < 2*minDriftSamples; i++ {
		b.Observe(1, "c", 1.5, 1.0, 10, 10)
	}
	if len(fires) != 3 {
		t.Fatalf("cleared hook still fired: %v", fires)
	}
}
