package telemetry

import (
	"testing"

	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/obs"
)

// TestHubSessionObserver pins the fan-out of a served session's
// observer: one model-error event reaches the prediction-error
// histogram, the scoreboard cell of the session's generation and the
// session's ledger row; decisions and fallbacks reach the obs families
// and the ledger. Before Instrument the observer still feeds the
// ledger and the scoreboard.
func TestHubSessionObserver(t *testing.T) {
	hub := NewHub(Options{})
	cfg := hw.FailSafe()
	served(hub.SessionObserver("s0", 1), 2, obs.FallbackZeroHorizon, cfg, 9, 10)

	reg := metrics.New()
	hub.Instrument(reg)
	o := hub.SessionObserver("s1", 7)
	o.OnDecision(obs.DecisionEvent{Policy: "mpc", App: "Spmv", Horizon: 3, Config: cfg})
	o.OnFallback(obs.FallbackEvent{Policy: "mpc", App: "Spmv", Reason: obs.FallbackZeroHorizon})
	o.OnModelError(obs.ModelErrorEvent{Policy: "mpc", App: "Spmv", Config: cfg,
		PredictedTimeMS: 1.5, MeasuredTimeMS: 1, PredictedPowerW: 10, MeasuredPowerW: 10})

	cells := hub.Scoreboard.Snapshot()
	if len(cells) != 2 || cells[1].Gen != 7 || cells[1].App != "Spmv" || cells[1].TimeMAPE != 0.5 {
		t.Fatalf("scoreboard cells %+v, want generation 1 and generation 7 with time MAPE 0.5", cells)
	}
	snap := hub.Accounting.Snapshot()
	if len(snap.Sessions) != 2 {
		t.Fatalf("ledger rows %+v, want s0 and s1", snap.Sessions)
	}
	if r := snap.Sessions[1]; r.Decisions != 1 || r.Fallbacks != 1 || r.Observations != 1 ||
		r.PredictedEnergyMJ != 15 || r.MeasuredEnergyMJ != 10 {
		t.Fatalf("s1 ledger row %+v", r)
	}
	text := exposition(t, reg)
	for _, want := range []string{
		`mpcdvfs_decisions_total{policy="mpc",app="Spmv"} 1`,
		`mpcdvfs_fallbacks_total{policy="mpc",app="Spmv",reason="zero-horizon"} 1`,
		`mpcdvfs_prediction_error_count{policy="mpc",app="Spmv",domain="time"} 1`,
		`mpcdvfs_model_observations_total{gen="7",app="Spmv"} 1`,
	} {
		if !hasLine(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}
