package learn

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/rf"
)

// installRecorder captures promotions the way serve.Server.Install
// would publish them.
type installRecorder struct {
	models []predict.Model
	tags   []string
	gen    uint64
}

func (ir *installRecorder) install(m predict.Model, tag string) uint64 {
	ir.models = append(ir.models, m)
	ir.tags = append(ir.tags, tag)
	ir.gen++
	return ir.gen + 1 // serve starts at generation 1; promotions begin at 2
}

func newTestTrainer(ir *installRecorder) *Trainer {
	fcfg := predict.OnlineForestConfig(17)
	fcfg.NumTrees = 12
	return New(Config{
		Seed:         17,
		Forest:       fcfg,
		ReservoirCap: 512,
		MinSamples:   60,
		HoldoutFrac:  0.25,
		Gate:         Gate{MaxTimeMAPE: 0.5, MaxPowerMAPE: 0.5},
		Workers:      2,
		Install:      ir.install,
	})
}

func TestTrainOnceSkipsBelowMinSamples(t *testing.T) {
	ir := &installRecorder{}
	tr := newTestTrainer(ir)
	for _, s := range streamSamples(30, 1) {
		tr.Add(s)
	}
	promoted, err := tr.TrainOnce()
	if promoted || !errors.Is(err, ErrNotEnoughSamples) {
		t.Fatalf("TrainOnce on a thin reservoir: promoted=%v err=%v, want skip", promoted, err)
	}
	st := tr.Status()
	if st.Rounds != 0 || st.LastOutcome != "skipped" {
		t.Fatalf("skip must not consume a round: %+v", st)
	}
	if len(ir.models) != 0 {
		t.Fatal("skip installed a model")
	}
}

func TestTrainOncePromotesAndRecordsBaseline(t *testing.T) {
	ir := &installRecorder{}
	tr := newTestTrainer(ir)
	var baseGen uint64
	var baseTime, basePower float64
	tr.cfg.Baseline = func(gen uint64, tm, pm float64) { baseGen, baseTime, basePower = gen, tm, pm }
	reg := metrics.New()
	tr.Instrument(reg)
	for _, s := range streamSamples(200, 2) {
		tr.Add(s)
	}
	promoted, err := tr.TrainOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !promoted {
		t.Fatalf("oracle-sampled candidate failed the gate: %+v", tr.Status())
	}
	if len(ir.models) != 1 || ir.tags[0] != "learn-r1" {
		t.Fatalf("install recorded %v tags %v, want one learn-r1", len(ir.models), ir.tags)
	}
	st := tr.Status()
	if st.Rounds != 1 || st.Promoted != 1 || st.Rejected != 0 || st.LastOutcome != "promoted" {
		t.Fatalf("status after promotion: %+v", st)
	}
	if st.LastGen != 2 || baseGen != 2 {
		t.Fatalf("promoted generation %d, baseline generation %d, want 2", st.LastGen, baseGen)
	}
	if baseTime != st.LastTimeMAPE || basePower != st.LastPowerMAPE {
		t.Fatal("baseline hook did not receive the holdout MAPEs")
	}
	if st.LastTimeMAPE <= 0 || st.LastTimeMAPE > 0.5 || st.LastPowerMAPE <= 0 || st.LastPowerMAPE > 0.5 {
		t.Fatalf("implausible holdout MAPEs: %+v", st)
	}
	var expo strings.Builder
	if err := reg.WriteText(&expo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), `mpcdvfs_learn_rounds_total{outcome="promoted"} 1`) {
		t.Fatal("promotion not visible in metrics")
	}
}

// TestTrainOnceRejectsPoisonedCandidate: a candidate trained on
// poisoned targets fails the holdout gate, whether its holdout time
// MAPE is off the charts (measurements inflated 100×) or NaN (NaN time
// targets, so the time forest predicts NaN everywhere): the gate
// promotes only a candidate provably within both ceilings. The next
// round, with the default builder restored, promotes.
func TestTrainOnceRejectsPoisonedCandidate(t *testing.T) {
	for _, p := range []struct {
		name   string
		poison func(*predict.Sample)
	}{
		{"inflated 100×", func(s *predict.Sample) { s.TimeMS *= 100 }},
		{"NaN time", func(s *predict.Sample) { s.TimeMS = math.NaN() }},
	} {
		ir := &installRecorder{}
		tr := newTestTrainer(ir)
		tr.cfg.BuildCandidate = func(train []predict.Sample, fcfg rf.Config, workers int) (*predict.RandomForest, error) {
			bad := make([]predict.Sample, len(train))
			copy(bad, train)
			for i := range bad {
				p.poison(&bad[i])
			}
			return predict.TrainOnSamples(bad, fcfg, workers)
		}
		for _, s := range streamSamples(200, 3) {
			tr.Add(s)
		}
		promoted, err := tr.TrainOnce()
		if err != nil {
			t.Fatal(err)
		}
		if promoted || len(ir.models) != 0 {
			t.Fatalf("%s: poisoned candidate was promoted (holdout time MAPE %.3f)", p.name, tr.Status().LastTimeMAPE)
		}
		st := tr.Status()
		if st.Rejected != 1 || st.LastOutcome != "rejected" {
			t.Fatalf("%s: status after rejection: %+v", p.name, st)
		}
		if st.LastTimeMAPE < 1 {
			t.Fatalf("%s: poisoned candidate's holdout time MAPE is %.3f, expected off the charts", p.name, st.LastTimeMAPE)
		}

		tr.cfg.BuildCandidate = predict.TrainOnSamples
		promoted, err = tr.TrainOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !promoted || len(ir.models) != 1 {
			t.Fatalf("%s: recovery round did not promote: %+v", p.name, tr.Status())
		}
		if tr.Status().Rejected != 1 || tr.Status().Promoted != 1 {
			t.Fatalf("%s: round accounting wrong: %+v", p.name, tr.Status())
		}
	}
}

// TestTrainOnceDeterministic: two trainers with the same seed and Add
// sequence promote models with bit-identical predictions.
func TestTrainOnceDeterministic(t *testing.T) {
	stream := streamSamples(150, 5)
	irA, irB := &installRecorder{}, &installRecorder{}
	a, b := newTestTrainer(irA), newTestTrainer(irB)
	for _, s := range stream {
		a.Add(s)
		b.Add(s)
	}
	pa, err := a.TrainOnce()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.TrainOnce()
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Fatalf("gate decisions diverged: %v vs %v", pa, pb)
	}
	if !pa {
		t.Skipf("round rejected (holdout MAPE %.3f) — determinism of promotion untestable here", a.Status().LastTimeMAPE)
	}
	ma, mb := irA.models[0], irB.models[0]
	for _, s := range stream[:40] {
		ea := ma.PredictKernel(s.Counters, s.Config)
		eb := mb.PredictKernel(s.Counters, s.Config)
		if math.Float64bits(ea.TimeMS) != math.Float64bits(eb.TimeMS) ||
			math.Float64bits(ea.GPUPowerW) != math.Float64bits(eb.GPUPowerW) {
			t.Fatalf("promoted models diverge: %+v vs %+v", ea, eb)
		}
	}
	if a.Status().LastTimeMAPE != b.Status().LastTimeMAPE {
		t.Fatal("holdout MAPEs diverged across identical trainers")
	}
}

func TestTrainerBuildErrorIsReported(t *testing.T) {
	ir := &installRecorder{}
	tr := newTestTrainer(ir)
	tr.cfg.BuildCandidate = func([]predict.Sample, rf.Config, int) (*predict.RandomForest, error) {
		return nil, errors.New("synthetic builder failure")
	}
	for _, s := range streamSamples(100, 8) {
		tr.Add(s)
	}
	promoted, err := tr.TrainOnce()
	if promoted || err == nil {
		t.Fatalf("builder failure: promoted=%v err=%v", promoted, err)
	}
	st := tr.Status()
	if st.LastOutcome != "error" || !strings.Contains(st.LastError, "synthetic builder failure") {
		t.Fatalf("status after builder failure: %+v", st)
	}
}

func TestTrainerDropsInvalidSamples(t *testing.T) {
	ir := &installRecorder{}
	tr := newTestTrainer(ir)
	good := streamSamples(10, 9)
	tr.Add(good[0])
	bad := good[1]
	bad.TimeMS = math.NaN()
	tr.Add(bad)
	bad = good[2]
	bad.GPUPowerW = -3
	tr.Add(bad)
	bad = good[3]
	// Finite counters whose work volume overflows: a time target of −Inf.
	bad.Counters[counters.VALUInsts], bad.Counters[counters.GlobalWorkSize] = 1e200, 1e200
	tr.Add(bad)
	st := tr.Status()
	if st.Samples != 1 || st.DroppedInvalid != 3 {
		t.Fatalf("samples=%d dropped=%d, want 1/3", st.Samples, st.DroppedInvalid)
	}
}

// TestStartStopAndDriftWake: the loop with an effectively-infinite
// period trains promptly when the scoreboard signals drift, and Stop
// joins cleanly. Runs in the CI race job.
func TestStartStopAndDriftWake(t *testing.T) {
	ir := &installRecorder{}
	tr := newTestTrainer(ir)
	for _, s := range streamSamples(150, 10) {
		tr.Add(s)
	}
	tr.Start(time.Hour)
	defer tr.Stop()
	if !tr.Status().Running {
		t.Fatal("Status.Running false after Start")
	}
	tr.NotifyDrift(1, "spmv")
	deadline := time.Now().Add(10 * time.Second)
	for tr.Status().Rounds == 0 {
		if time.Now().After(deadline) {
			t.Fatal("drift notification did not wake the training loop")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := tr.Status()
	if st.DriftSignals != 1 {
		t.Fatalf("DriftSignals = %d, want 1", st.DriftSignals)
	}
	if st.DriftPending {
		t.Fatal("DriftPending still set after a round trained")
	}
	tr.Stop()
	if tr.Status().Running {
		t.Fatal("Status.Running true after Stop")
	}
	tr.Stop() // idempotent
}

// TestTrainerStopLeavesNoGoroutine checks the trainer's lifecycle for
// leaks: Stop on a trainer that never started, and Start, a
// drift-woken round and Stop, each leave the goroutine count at its
// baseline.
func TestTrainerStopLeavesNoGoroutine(t *testing.T) {
	settles := func(what string, base int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after %s, want at most %d as before", runtime.NumGoroutine(), what, base)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	before := runtime.NumGoroutine()
	newTestTrainer(&installRecorder{}).Stop()
	settles("Stop on a trainer that never started", before)

	tr := newTestTrainer(&installRecorder{})
	for _, s := range streamSamples(150, 10) {
		tr.Add(s)
	}
	tr.Start(time.Hour)
	tr.NotifyDrift(1, "spmv")
	deadline := time.Now().Add(10 * time.Second)
	for tr.Status().Rounds == 0 {
		if time.Now().After(deadline) {
			tr.Stop()
			t.Fatal("drift notification did not wake the training loop")
		}
		time.Sleep(5 * time.Millisecond)
	}
	tr.Stop()
	settles("Start, a round and Stop", before)
}
