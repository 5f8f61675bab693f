package learn

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/rf"
)

// ErrNotEnoughSamples is returned by TrainOnce when the reservoir has
// fewer than Config.MinSamples observations — the round is skipped, not
// failed, and any pending drift signal stays armed for the next tick.
var ErrNotEnoughSamples = errors.New("learn: not enough samples to train")

// Gate is the promotion bar: a candidate is installed only if its
// held-out mean absolute relative errors are at or under both ceilings
// (fractions, not percent).
type Gate struct {
	MaxTimeMAPE  float64
	MaxPowerMAPE float64
}

// Config parameterizes a Trainer. Install and Baseline are the seams to
// the serving stack — serve.New binds them to Server.Install and the
// drift scoreboard's SetBaseline so learn never imports serve.
type Config struct {
	// Seed roots every random decision the trainer makes: reservoir
	// replacement, per-round holdout permutation, per-round forest
	// seeds. Two trainers with the same Seed fed the same Add sequence
	// make identical decisions.
	Seed int64
	// Forest shapes candidate forests. A zero value (NumTrees == 0)
	// means predict.OnlineForestConfig(Seed).
	Forest rf.Config
	// ReservoirCap bounds trainer memory. Default 4096 samples.
	ReservoirCap int
	// MinSamples is the floor below which TrainOnce skips. Default 64.
	MinSamples int
	// HoldoutFrac is the fraction of the reservoir snapshot withheld
	// from training and used to gate promotion. Default 0.25; clamped
	// so both splits are non-empty.
	HoldoutFrac float64
	// Gate is the promotion bar. Defaults to 0.25/0.25 — looser than
	// the offline model's headline MAPE because online rounds train on
	// a few hundred samples, tight enough to reject a broken candidate.
	Gate Gate
	// BaselineSlack multiplies the holdout MAPEs reported through
	// Baseline after a promotion. Live traffic concentrates on
	// optimizer-selected configurations — exactly where the model's
	// optimistic errors live (the winner's curse of optimizing over
	// one's own predictions) — so demonstrated holdout error
	// systematically understates live error. Default 1 (report holdout
	// as-is); deployments feeding a drift scoreboard typically want
	// 2–3 so a freshly promoted model is not instantly re-flagged.
	BaselineSlack float64
	// Workers bounds training parallelism (0 = rf's default).
	Workers int

	// Install publishes a gated candidate as the next model generation
	// and returns that generation. Required for promotion; a nil
	// Install turns the trainer into a dry-run evaluator.
	Install func(m predict.Model, tag string) uint64
	// Baseline, if set, records the promoted generation's holdout MAPE
	// as its drift baseline, so the scoreboard judges the new model
	// against what it actually demonstrated, not an inherited number.
	Baseline func(gen uint64, timeMAPE, powerMAPE float64)
	// BuildCandidate builds a round's candidate from the training
	// split. Nil means predict.TrainOnSamples. Tests substitute
	// deliberately-poisoned builders to prove the gate rejects them.
	BuildCandidate func(train []predict.Sample, fcfg rf.Config, workers int) (*predict.RandomForest, error)
}

// Status is the trainer's observable state, served by /debug/learn.
type Status struct {
	Samples        int     `json:"samples"`
	Seen           uint64  `json:"seen"`
	DroppedInvalid uint64  `json:"dropped_invalid"`
	Rounds         int     `json:"rounds"`
	Promoted       int     `json:"promoted"`
	Rejected       int     `json:"rejected"`
	DriftSignals   uint64  `json:"drift_signals"`
	DriftPending   bool    `json:"drift_pending"`
	LastGen        uint64  `json:"last_gen"`
	LastTimeMAPE   float64 `json:"last_time_mape"`
	LastPowerMAPE  float64 `json:"last_power_mape"`
	LastOutcome    string  `json:"last_outcome"`
	LastError      string  `json:"last_error,omitempty"`
	Running        bool    `json:"running"`
}

type learnMetrics struct {
	observations *metrics.CounterVec
	size         *metrics.Gauge
	rounds       *metrics.CounterVec
	mape         *metrics.GaugeVec
	drift        *metrics.Counter
	duration     *metrics.Histogram
}

// Trainer is the continuous-training component. Create with New, feed
// it observations via Add (the serve layer taps every /v1/observe),
// nudge it with NotifyDrift (wired to the scoreboard's rising edge),
// and either drive rounds explicitly with TrainOnce or let Start run
// them on a period.
type Trainer struct {
	cfg Config

	mu  sync.Mutex // guards res and st
	res *Reservoir
	st  Status

	trainMu sync.Mutex // serializes training rounds

	wake chan struct{}
	stop chan struct{}
	done chan struct{}

	m atomic.Pointer[learnMetrics]
}

// New returns a Trainer with cfg's zero fields defaulted.
func New(cfg Config) *Trainer {
	if cfg.ReservoirCap <= 0 {
		cfg.ReservoirCap = 4096
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 64
	}
	if cfg.HoldoutFrac <= 0 || cfg.HoldoutFrac >= 1 {
		cfg.HoldoutFrac = 0.25
	}
	if cfg.Gate.MaxTimeMAPE <= 0 {
		cfg.Gate.MaxTimeMAPE = 0.25
	}
	if cfg.Gate.MaxPowerMAPE <= 0 {
		cfg.Gate.MaxPowerMAPE = 0.25
	}
	if cfg.Forest.NumTrees == 0 {
		cfg.Forest = predict.OnlineForestConfig(cfg.Seed)
	}
	if cfg.BaselineSlack < 1 {
		cfg.BaselineSlack = 1
	}
	if cfg.BuildCandidate == nil {
		cfg.BuildCandidate = predict.TrainOnSamples
	}
	return &Trainer{
		cfg:  cfg,
		res:  NewReservoir(cfg.ReservoirCap, cfg.Seed),
		wake: make(chan struct{}, 1),
	}
}

// Bind attaches the promotion seams after construction — serve.New
// calls it so a Trainer can be built before the Server it promotes
// into exists. Nil leaves the corresponding seam unchanged. Call
// before Start or the first TrainOnce.
func (t *Trainer) Bind(install func(m predict.Model, tag string) uint64, baseline func(gen uint64, timeMAPE, powerMAPE float64)) {
	t.trainMu.Lock()
	defer t.trainMu.Unlock()
	if install != nil {
		t.cfg.Install = install
	}
	if baseline != nil {
		t.cfg.Baseline = baseline
	}
}

// Instrument mirrors trainer state into reg. Call before traffic.
func (t *Trainer) Instrument(reg *metrics.Registry) {
	m := &learnMetrics{
		observations: reg.Counter("mpcdvfs_learn_observations_total",
			"Observe tuples offered to the reservoir, by outcome (stored, passed_over, dropped_invalid).", "outcome"),
		size: reg.Gauge("mpcdvfs_learn_reservoir_size",
			"Samples currently held by the training reservoir.").With(),
		rounds: reg.Counter("mpcdvfs_learn_rounds_total",
			"Training rounds by outcome (promoted, rejected, skipped, error).", "outcome"),
		mape: reg.Gauge("mpcdvfs_learn_holdout_mape",
			"Held-out mean absolute relative error of the last candidate, by target.", "target"),
		drift: reg.Counter("mpcdvfs_learn_drift_signals_total",
			"Rising-edge drift notifications received from the scoreboard.").With(),
		duration: reg.Histogram("mpcdvfs_learn_round_duration_ms",
			"Wall time of a training round (split, train, validate, gate), in milliseconds.",
			metrics.ExponentialBuckets(1, 2, 14)).With(),
	}
	t.m.Store(m)
}

// Add offers one served observation to the reservoir. Invalid samples
// (predict.Sample.Valid: non-positive or non-finite measurements, or a
// work volume that overflows) are counted and dropped — they would
// poison the log-time target. Safe for concurrent use; the
// serve layer calls it from every session's observe operation.
func (t *Trainer) Add(s predict.Sample) {
	m := t.m.Load()
	if !s.Valid() {
		t.mu.Lock()
		t.st.DroppedInvalid++
		t.mu.Unlock()
		if m != nil {
			m.observations.With("dropped_invalid").Inc()
		}
		return
	}
	t.mu.Lock()
	stored := t.res.Add(s)
	size := t.res.Len()
	t.mu.Unlock()
	if m != nil {
		if stored {
			m.observations.With("stored").Inc()
		} else {
			m.observations.With("passed_over").Inc()
		}
		m.size.Set(float64(size))
	}
}

// NotifyDrift is the scoreboard's rising-edge hook: a generation's
// windowed error has crossed its drift threshold. The signal arms an
// immediate training round if the loop is running; it is never lost —
// DriftPending stays set until a round actually trains.
func (t *Trainer) NotifyDrift(gen uint64, app string) {
	_ = gen
	_ = app
	t.mu.Lock()
	t.st.DriftSignals++
	t.st.DriftPending = true
	t.mu.Unlock()
	if m := t.m.Load(); m != nil {
		m.drift.Inc()
	}
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// Status returns a copy of the trainer's observable state.
func (t *Trainer) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.st
	st.Samples = t.res.Len()
	st.Seen = t.res.Seen()
	st.Running = t.stop != nil
	return st
}

// SnapshotSamples returns a stable copy of the reservoir contents —
// what a training round started now would see.
func (t *Trainer) SnapshotSamples() []predict.Sample {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.res.Snapshot()
}

// TrainOnce runs one synchronous training round: snapshot the
// reservoir, deterministically split it, build one candidate of the
// configured size, validate it against the holdout, and promote it
// through Install only if the gate passes. Returns whether a promotion
// happened. Rounds are serialized; observation continues concurrently
// — Add only contends for the short reservoir-snapshot critical
// section.
func (t *Trainer) TrainOnce() (promoted bool, err error) {
	t.trainMu.Lock()
	defer t.trainMu.Unlock()
	m := t.m.Load()
	start := time.Now()

	t.mu.Lock()
	if t.res.Len() < t.cfg.MinSamples {
		t.st.LastOutcome = "skipped"
		t.mu.Unlock()
		if m != nil {
			m.rounds.With("skipped").Inc()
		}
		return false, ErrNotEnoughSamples
	}
	samples := t.res.Snapshot()
	t.st.Rounds++
	round := t.st.Rounds
	t.st.DriftPending = false
	t.mu.Unlock()

	// Deterministic holdout split: a permutation seeded by (Seed,
	// round), holdout drawn first so its membership is independent of
	// reservoir slot order.
	rng := rand.New(rand.NewSource(t.cfg.Seed + int64(round)))
	perm := rng.Perm(len(samples))
	nHold := int(t.cfg.HoldoutFrac * float64(len(samples)))
	if nHold < 1 {
		nHold = 1
	}
	if nHold >= len(samples) {
		nHold = len(samples) - 1
	}
	hold := make([]predict.Sample, 0, nHold)
	train := make([]predict.Sample, 0, len(samples)-nHold)
	for i, p := range perm {
		if i < nHold {
			hold = append(hold, samples[p])
		} else {
			train = append(train, samples[p])
		}
	}

	// Per-round forest seed, stepped by 2 because the power forest
	// consumes seed+1.
	fcfg := t.cfg.Forest
	fcfg.Seed = t.cfg.Seed + 2*int64(round)
	if fcfg.Workers == 0 {
		fcfg.Workers = t.cfg.Workers
	}

	cand, err := t.cfg.BuildCandidate(train, fcfg, t.cfg.Workers)
	if err != nil {
		t.finishRound(m, start, 0, 0, "error", err)
		return false, fmt.Errorf("learn: round %d candidate: %w", round, err)
	}
	tm, pm, _ := predict.EvaluateOnSamples(cand, hold)
	// A NaN MAPE fails the gate: promote only what is provably within it.
	if !(tm <= t.cfg.Gate.MaxTimeMAPE && pm <= t.cfg.Gate.MaxPowerMAPE) {
		t.finishRound(m, start, tm, pm, "rejected", nil)
		return false, nil
	}

	var gen uint64
	if t.cfg.Install != nil {
		gen = t.cfg.Install(cand, fmt.Sprintf("learn-r%d", round))
		if t.cfg.Baseline != nil {
			t.cfg.Baseline(gen, t.cfg.BaselineSlack*tm, t.cfg.BaselineSlack*pm)
		}
	}
	t.mu.Lock()
	t.st.LastGen = gen
	t.mu.Unlock()
	t.finishRound(m, start, tm, pm, "promoted", nil)
	return true, nil
}

func (t *Trainer) finishRound(m *learnMetrics, start time.Time, tm, pm float64, outcome string, err error) {
	t.mu.Lock()
	switch outcome {
	case "promoted":
		t.st.Promoted++
	case "rejected":
		t.st.Rejected++
	}
	t.st.LastTimeMAPE = tm
	t.st.LastPowerMAPE = pm
	t.st.LastOutcome = outcome
	if err != nil {
		t.st.LastError = err.Error()
	} else {
		t.st.LastError = ""
	}
	t.mu.Unlock()
	if m != nil {
		m.rounds.With(outcome).Inc()
		m.mape.With("time").Set(tm)
		m.mape.With("power").Set(pm)
		m.duration.Observe(float64(time.Since(start).Milliseconds()))
	}
}

// Start launches the training loop: a round fires every interval, or
// immediately on a drift notification. Panics if already running.
func (t *Trainer) Start(interval time.Duration) {
	if interval <= 0 {
		interval = time.Minute
	}
	t.mu.Lock()
	if t.stop != nil {
		t.mu.Unlock()
		panic("learn: Trainer.Start called twice")
	}
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	stop, done := t.stop, t.done
	t.mu.Unlock()

	go func() { //mpclint:ignore pooled-concurrency long-lived retraining loop tied to the trainer's lifecycle (Start/Stop), not data-parallel fan-out; training fan-out inside a round still goes through par.ForEach via rf
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			case <-t.wake:
			}
			// Outcome and error land in Status and the metrics; the
			// loop itself has no one to report to.
			_, _ = t.TrainOnce()
		}
	}()
}

// Stop halts the training loop and waits for any in-flight round to
// finish. No-op if the loop is not running.
func (t *Trainer) Stop() {
	t.mu.Lock()
	stop, done := t.stop, t.done
	t.stop, t.done = nil, nil
	t.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
