package obs_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/policy"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/workload"
)

// newInstrumentedRun executes Spmv under MPC (profiling + steady run)
// with the given observer attached and returns the engine results.
func newInstrumentedRun(t *testing.T, o obs.Observer) {
	t.Helper()
	app, err := workload.ByName("Spmv")
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(hw.DefaultSpace())
	eng.Obs = o
	_, target, err := eng.Baseline(&app)
	if err != nil {
		t.Fatal(err)
	}
	oracle := predict.NewOracle()
	for _, k := range app.Kernels {
		oracle.Register(k)
	}
	m := policy.NewMPC(oracle, hw.DefaultSpace())
	if _, err := eng.RunRepeated(&app, m, target, 2); err != nil {
		t.Fatal(err)
	}
	p := policy.NewPPK(oracle, hw.DefaultSpace())
	if _, err := eng.Run(&app, p, target, true); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsObserverEndToEnd runs real policies under an instrumented
// engine and checks that the issue's headline metrics come out of the
// exposition populated.
func TestMetricsObserverEndToEnd(t *testing.T) {
	reg := metrics.New()
	newInstrumentedRun(t, obs.NewMetrics(reg))

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		`mpcdvfs_decisions_total{policy="mpc",app="Spmv"}`,
		`mpcdvfs_decisions_total{policy="ppk",app="Spmv"}`,
		`mpcdvfs_decisions_total{policy="turbo-core",app="Spmv"}`,
		`mpcdvfs_kernels_total{policy="mpc",app="Spmv"}`,
		`mpcdvfs_horizon_length{policy="mpc",app="Spmv"}`,
		`mpcdvfs_prediction_error_bucket{policy="mpc",app="Spmv",domain="time",le="0.01"}`,
		`mpcdvfs_prediction_error_count{policy="ppk",app="Spmv",domain="power"}`,
		`mpcdvfs_fallbacks_total{policy="mpc",app="Spmv",reason="profiling"}`,
		`mpcdvfs_energy_millijoules_total{policy="mpc",app="Spmv",domain="gpu"}`,
		`mpcdvfs_decision_overhead_ms_count{policy="mpc",app="Spmv"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Spmv has 30 kernels: 2 MPC runs and 1 Turbo Core baseline give 60
	// and 30 decisions respectively (the second baseline call for PPK's
	// target also runs turbo-core — 60 total there).
	if got := sampleValue(t, out, `mpcdvfs_decisions_total{policy="mpc",app="Spmv"}`); got != 60 {
		t.Errorf("mpc decisions = %v, want 60", got)
	}
	if got := sampleValue(t, out, `mpcdvfs_kernels_total{policy="ppk",app="Spmv"}`); got != 30 {
		t.Errorf("ppk kernels = %v, want 30", got)
	}
}

// sampleValue reads one sample back through the public text surface,
// which doubles as a format check.
func sampleValue(t *testing.T, exposition, sample string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), sample+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(sc.Text(), sample+" "), 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("sample %q not found", sample)
	return 0
}

// TestJSONLWriterStream checks every event type appears in the stream
// and each line parses as JSON with exactly one payload.
func TestJSONLWriterStream(t *testing.T) {
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	newInstrumentedRun(t, w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	types := map[string]int{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var env map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		var typ string
		if err := json.Unmarshal(env["type"], &typ); err != nil {
			t.Fatal(err)
		}
		types[typ]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, typ := range []string{
		obs.EventDecision, obs.EventKernelDone, obs.EventHorizonChange,
		obs.EventModelError, obs.EventFallback,
	} {
		if types[typ] == 0 {
			t.Errorf("no %q events in stream (got %v)", typ, types)
		}
	}
	// 120 decisions -> 120 decision and 120 kernel events.
	if types[obs.EventDecision] != 120 || types[obs.EventKernelDone] != 120 {
		t.Errorf("decision/kernel counts = %d/%d, want 120/120",
			types[obs.EventDecision], types[obs.EventKernelDone])
	}
}

// TestNopAndMulti pins the Enabled contract and Multi composition.
func TestNopAndMulti(t *testing.T) {
	if obs.Enabled(nil) || obs.Enabled(obs.Nop{}) {
		t.Error("nil/Nop must be disabled")
	}
	reg := metrics.New()
	m := obs.NewMetrics(reg)
	if !obs.Enabled(m) {
		t.Error("Metrics observer must be enabled")
	}
	if _, ok := obs.Multi(nil, obs.Nop{}).(obs.Nop); !ok {
		t.Error("Multi of disabled observers must collapse to Nop")
	}
	if obs.Multi(m, nil) != obs.Observer(m) {
		t.Error("Multi of one observer must return it unchanged")
	}
	var buf bytes.Buffer
	combo := obs.Multi(m, obs.NewJSONLWriter(&buf))
	combo.OnFallback(obs.FallbackEvent{Policy: "p", App: "a", Reason: obs.FallbackColdStart})
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `mpcdvfs_fallbacks_total{policy="p",app="a",reason="cold-start"} 1`) {
		t.Error("Multi did not fan out to metrics observer")
	}
	if !strings.Contains(buf.String(), `"reason":"cold-start"`) {
		t.Error("Multi did not fan out to JSONL writer")
	}
}

// TestSlogDisabledLevelZeroAlloc pins the Slog fast path: when an
// event's level is suppressed by the handler, the observer must return
// before building the variadic attribute list, so suppressed events
// cost zero heap allocations on the per-kernel decision path.
func TestSlogDisabledLevelZeroAlloc(t *testing.T) {
	// Info-level handler: Debug events (decision, kernel, model error)
	// are suppressed.
	s := obs.NewSlog(slog.New(slog.NewTextHandler(io.Discard,
		&slog.HandlerOptions{Level: slog.LevelInfo})))
	de := obs.DecisionEvent{Policy: "mpc", App: "a", Index: 3, Evals: 7}
	ke := obs.KernelEvent{Policy: "mpc", App: "a", Kernel: "k", TimeMS: 1}
	me := obs.ModelErrorEvent{Policy: "mpc", App: "a",
		PredictedTimeMS: 1, MeasuredTimeMS: 1.1}
	for name, fn := range map[string]func(){
		"OnDecision":   func() { s.OnDecision(de) },
		"OnKernelDone": func() { s.OnKernelDone(ke) },
		"OnModelError": func() { s.OnModelError(me) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s at suppressed level: %.1f allocs/op, want 0", name, n)
		}
	}

	// Error-level handler: Info events (horizon, fallback) are
	// suppressed too.
	s = obs.NewSlog(slog.New(slog.NewTextHandler(io.Discard,
		&slog.HandlerOptions{Level: slog.LevelError})))
	he := obs.HorizonEvent{Policy: "mpc", App: "a", Horizon: 4, Prev: 8}
	fe := obs.FallbackEvent{Policy: "mpc", App: "a", Reason: obs.FallbackColdStart}
	for name, fn := range map[string]func(){
		"OnHorizonChange": func() { s.OnHorizonChange(he) },
		"OnFallback":      func() { s.OnFallback(fe) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s at suppressed level: %.1f allocs/op, want 0", name, n)
		}
	}

	// Enabled levels still log: sanity-check the guard is not inverted.
	var buf bytes.Buffer
	s = obs.NewSlog(slog.New(slog.NewTextHandler(&buf,
		&slog.HandlerOptions{Level: slog.LevelDebug})))
	s.OnDecision(de)
	s.OnFallback(fe)
	if out := buf.String(); !strings.Contains(out, "decision") || !strings.Contains(out, "fallback") {
		t.Fatalf("enabled levels did not log: %q", out)
	}
}

// TestDisabledFanOutZeroAlloc pins the disabled fan-out contract: the
// Nop observer and a Multi composed only of disabled observers (which
// collapses to Nop) must emit events with zero heap allocations.
func TestDisabledFanOutZeroAlloc(t *testing.T) {
	de := obs.DecisionEvent{Policy: "mpc", App: "a", Index: 3}
	fe := obs.FallbackEvent{Policy: "mpc", App: "a", Reason: obs.FallbackColdStart}
	for name, o := range map[string]obs.Observer{
		"Nop":            obs.Nop{},
		"Multi-disabled": obs.Multi(nil, obs.Nop{}, nil),
	} {
		if n := testing.AllocsPerRun(100, func() {
			o.OnDecision(de)
			o.OnFallback(fe)
		}); n != 0 {
			t.Errorf("%s fan-out: %.1f allocs/op, want 0", name, n)
		}
	}
}

// TestModelErrorValues checks the relative-error helpers.
func TestModelErrorValues(t *testing.T) {
	e := obs.ModelErrorEvent{
		PredictedTimeMS: 12, MeasuredTimeMS: 10,
		PredictedPowerW: 9, MeasuredPowerW: 10,
	}
	if got := e.TimeError(); got < 0.199 || got > 0.201 {
		t.Errorf("TimeError = %v, want 0.2", got)
	}
	if got := e.PowerError(); got < 0.099 || got > 0.101 {
		t.Errorf("PowerError = %v, want 0.1", got)
	}
	zero := obs.ModelErrorEvent{PredictedTimeMS: 5}
	if zero.TimeError() != 0 {
		t.Error("zero measurement must yield zero error, not Inf")
	}
}

// TestMetricsConcurrentSessions feeds one Metrics observer from 4
// goroutines, the shape of 4 served sessions reporting into the hub's
// shared sink, two of them under one app label. Under -race this is
// the sink's concurrency contract; the totals must be exact.
func TestMetricsConcurrentSessions(t *testing.T) {
	reg := metrics.New()
	m := obs.NewMetrics(reg)
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(app string) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				m.OnDecision(obs.DecisionEvent{Policy: "mpc", App: app, Index: i, Evals: 2, KnobChanges: 1})
				m.OnFallback(obs.FallbackEvent{Policy: "mpc", App: app, Index: i, Reason: obs.FallbackColdStart})
				m.OnKernelDone(obs.KernelEvent{Policy: "mpc", App: app, Index: i, TimeMS: 1, GPUEnergyMJ: 1})
				m.OnHorizonChange(obs.HorizonEvent{Policy: "mpc", App: app, Index: i, Horizon: i % 8})
				m.OnModelError(obs.ModelErrorEvent{Policy: "mpc", App: app, Index: i,
					PredictedTimeMS: 1, MeasuredTimeMS: 1, PredictedPowerW: 1, MeasuredPowerW: 1})
			}
		}("app" + strconv.Itoa(g%3))
	}
	wg.Wait()

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`mpcdvfs_decisions_total{policy="mpc",app="app0"} 1000`,
		`mpcdvfs_decisions_total{policy="mpc",app="app1"} 500`,
		`mpcdvfs_predictor_evals_total{policy="mpc",app="app0"} 2000`,
		`mpcdvfs_fallbacks_total{policy="mpc",app="app2",reason="cold-start"} 500`,
		`mpcdvfs_kernels_total{policy="mpc",app="app0"} 1000`,
		`mpcdvfs_energy_millijoules_total{policy="mpc",app="app0",domain="gpu"} 1000`,
		`mpcdvfs_horizon_changes_total{policy="mpc",app="app1"} 500`,
		`mpcdvfs_prediction_error_count{policy="mpc",app="app0",domain="time"} 1000`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
}
