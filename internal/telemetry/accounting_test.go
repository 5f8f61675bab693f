package telemetry

import (
	"fmt"
	"sync"
	"testing"

	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/obs"
)

// served feeds one served kernel into a ledger sink the way a session
// reports it: the decision, its fallback if any, then the model error.
func served(o obs.Observer, horizon int, fallback string, cfg hw.Config, predMJ, measMJ float64) {
	o.OnDecision(obs.DecisionEvent{Horizon: horizon, Config: cfg})
	if fallback != "" {
		o.OnFallback(obs.FallbackEvent{Reason: fallback})
	}
	o.OnKernelDone(obs.KernelEvent{Config: cfg})
	o.OnModelError(obs.ModelErrorEvent{Config: cfg,
		PredictedTimeMS: 1, PredictedPowerW: predMJ, MeasuredTimeMS: 1, MeasuredPowerW: measMJ})
}

func TestAccountingLedger(t *testing.T) {
	a := NewAccounting()
	s1, s2 := a.Sink("s1"), a.Sink("s2")
	hot, safe := hw.DefaultSpace().At(0), hw.FailSafe()
	served(s1, 4, "", safe, 10, 12)
	served(s1, 1, obs.FallbackColdStart, safe, 5, 4)
	served(s2, 8, "", hot, 7, 7)

	snap := a.Snapshot()
	if len(snap.Sessions) != 2 {
		t.Fatalf("got %d sessions, want 2", len(snap.Sessions))
	}
	r1 := snap.Sessions[0]
	if r1.SessionID != "s1" || r1.Decisions != 2 || r1.Observations != 2 || r1.Fallbacks != 1 {
		t.Fatalf("s1 row wrong: %+v", r1)
	}
	if r1.PredictedEnergyMJ != 15 || r1.MeasuredEnergyMJ != 16 {
		t.Fatalf("s1 energy = %v/%v, want 15/16", r1.PredictedEnergyMJ, r1.MeasuredEnergyMJ)
	}
	if len(snap.Configs) != 2 {
		t.Fatalf("config buckets wrong: %+v", snap.Configs)
	}
	for _, c := range snap.Configs {
		if c.Config == safe.String() && (c.Observations != 2 || c.PredictedEnergyMJ != 15) {
			t.Fatalf("fail-safe bucket wrong: %+v", c)
		}
	}
	if snap.Configs[0].Config > snap.Configs[1].Config {
		t.Fatalf("config buckets not sorted: %+v", snap.Configs)
	}
	if snap.Horizons[4] != 1 || snap.Horizons[1] != 1 || snap.Horizons[8] != 1 {
		t.Fatalf("horizon tally wrong: %+v", snap.Horizons)
	}
}

// TestAccountingSessionEviction checks the per-session map is bounded:
// the oldest row is dropped, but its energy persists in config buckets.
func TestAccountingSessionEviction(t *testing.T) {
	a := NewAccounting()
	for i := 0; i < maxSessionAccounts+10; i++ {
		served(a.Sink(fmt.Sprintf("s%04d", i)), 1, "", hw.FailSafe(), 1, 1)
	}
	snap := a.Snapshot()
	if len(snap.Sessions) != maxSessionAccounts {
		t.Fatalf("got %d sessions, want %d", len(snap.Sessions), maxSessionAccounts)
	}
	if snap.Sessions[0].SessionID != "s0010" {
		t.Fatalf("oldest retained session = %s, want s0010", snap.Sessions[0].SessionID)
	}
	if snap.Configs[0].Observations != uint64(maxSessionAccounts+10) {
		t.Fatalf("config bucket lost evicted sessions' energy: %+v", snap.Configs[0])
	}
}

func TestAccountingNilSafe(t *testing.T) {
	var a *Accounting
	if snap := a.Snapshot(); snap.Sessions != nil {
		t.Fatal("nil ledger returned sessions")
	}
}

// TestAccountingConcurrent exercises the ledger from 4 goroutines for
// the CI race job.
func TestAccountingConcurrent(t *testing.T) {
	a := NewAccounting()
	const perG = 400
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("sess-%d", g)
			sink := a.Sink(id)
			for i := 0; i < perG; i++ {
				served(sink, 4, "", hw.FailSafe(), 1, 1)
				if i%100 == 0 {
					a.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	snap := a.Snapshot()
	var total uint64
	for _, s := range snap.Sessions {
		total += s.Decisions
	}
	if total != 4*perG {
		t.Fatalf("lost decisions: %d, want %d", total, 4*perG)
	}
}
