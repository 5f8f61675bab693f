// Telemetry overhead benchmarks (the BENCH_telemetry.json inputs).
// The contract mirrors BENCH_obs.json's observer budget: a nil or
// disabled trace context on the MPC decision path must be
// indistinguishable from the untraced engine, and full 100% sampling
// must stay cheap enough to leave on in production.
//
//	go test -run '^$' -bench BenchmarkTelemetry -benchmem
package mpcdvfs_test

import (
	"testing"

	"mpcdvfs/internal/experiments"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/telemetry"
)

// benchTracedMPC is benchObservedMPC's telemetry twin: one steady-state
// MPC run of Spmv (30 receding-horizon decisions) per op on a private
// engine with the given trace context attached.
func benchTracedMPC(b *testing.B, tc *telemetry.Context) {
	b.Helper()
	eng := sim.NewEngine(experiments.Shared().Space)
	eng.Trace = tc
	benchSteadyMPC(b, eng)
}

// BenchmarkTelemetryMPCDecisionNilContext is the baseline: no trace
// context at all (the default engine state).
func BenchmarkTelemetryMPCDecisionNilContext(b *testing.B) { benchTracedMPC(b, nil) }

// BenchmarkTelemetryMPCDecisionDisabledTracer attaches a context from a
// sampling-disabled tracer: every span call runs its fast path.
func BenchmarkTelemetryMPCDecisionDisabledTracer(b *testing.B) {
	benchTracedMPC(b, telemetry.NewTracer(0, 0).NewContext("bench"))
}

// BenchmarkTelemetryMPCDecisionSampledEvery traces every decision into
// the ring — the worst-case live-tracing price.
func BenchmarkTelemetryMPCDecisionSampledEvery(b *testing.B) {
	benchTracedMPC(b, telemetry.NewTracer(1<<15, 1).NewContext("bench"))
}

// BenchmarkTelemetryMPCDecisionSampled1In8 is the recommended
// production setting: 1-in-8 sampling amortizes the span cost while
// keeping /debug/trace representative.
func BenchmarkTelemetryMPCDecisionSampled1In8(b *testing.B) {
	benchTracedMPC(b, telemetry.NewTracer(1<<15, 8).NewContext("bench"))
}

// BenchmarkTelemetryScoreboardAndAccounting prices the non-span half of
// the hub on its own: what every served decision with ground-truth
// feedback pays regardless of trace sampling — its decision, kernel and
// model-error events through an instrumented hub's session observer
// (obs metrics families, ledger row, scoreboard cell).
func BenchmarkTelemetryScoreboardAndAccounting(b *testing.B) {
	hub := telemetry.NewHub(telemetry.Options{})
	hub.Instrument(metrics.New())
	o := hub.SessionObserver("bench", 1)
	cfg := hw.FailSafe()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.OnDecision(obs.DecisionEvent{Policy: "mpc", App: "Spmv", Index: i, Config: cfg,
			Evals: 16, SearchIters: 4, Horizon: 4, OverheadMS: 0.02, KnobChanges: 1})
		o.OnKernelDone(obs.KernelEvent{Policy: "mpc", App: "Spmv", Index: i, Config: cfg,
			TimeMS: 3, Insts: 1e6, GPUEnergyMJ: 120, CPUEnergyMJ: 30, TempC: 60})
		o.OnModelError(obs.ModelErrorEvent{Policy: "mpc", App: "Spmv", Index: i, Config: cfg,
			PredictedTimeMS: 10, MeasuredTimeMS: 10.4, PredictedPowerW: 40, MeasuredPowerW: 41})
	}
}
