// Learning-loop integration tests — the safety wall for continuous
// retraining. The load-bearing assertions: (1) with the trainer active
// and promoting new generations mid-stream, sessions pinned at their
// creation generation still replay byte-identical to the untrained
// golden (run under -race in CI); (2) the full recovery story holds
// end-to-end — a degraded generation flags drift, the drift edge
// reaches the trainer, the holdout gate rejects a poisoned candidate
// and accepts a good one, and the promoted generation's windowed MAPE
// is back under the drift threshold.
package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpcdvfs"
	"mpcdvfs/internal/learn"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/rf"
	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/telemetry"
	"mpcdvfs/internal/trace"
)

// newTestTrainer builds a trainer shaped for test workloads: a small
// fast forest, a reservoir the Spmv replays can fill, and a gate loose
// enough for a candidate trained on a few dozen live samples but far
// below the error of a poisoned one.
func newTestTrainer(build func(train []predict.Sample, fcfg rf.Config, workers int) (*predict.RandomForest, error)) *learn.Trainer {
	fcfg := predict.OnlineForestConfig(33)
	fcfg.NumTrees = 8
	return learn.New(learn.Config{
		Seed:           33,
		Forest:         fcfg,
		ReservoirCap:   1024,
		MinSamples:     25,
		HoldoutFrac:    0.25,
		Gate:           learn.Gate{MaxTimeMAPE: 0.6, MaxPowerMAPE: 0.6},
		BaselineSlack:  3,
		Workers:        2,
		BuildCandidate: build,
	})
}

// TestGoldenReplayWithTrainerPromoting extends the traced-replay
// determinism contract to an actively-learning server: four concurrent
// sessions replay while the trainer retrains and promotes new
// generations from their own observe streams. Because sessions pin
// their snapshot at creation, every replay must stay byte-identical to
// the untrained golden — promotion is publication, never mutation.
func TestGoldenReplayWithTrainerPromoting(t *testing.T) {
	sys, app, target, model := testStack(t)
	golden := goldenReplay(t, sys, app, target, model)

	hub := telemetry.NewHub(telemetry.Options{Sample: 1})
	tr := newTestTrainer(nil)
	srv, ts := newTestServer(t, sys, model, serve.Config{Telemetry: hub, Learn: tr})

	// Pre-fill the reservoir past MinSamples so the first training round
	// during the concurrent phase can promote immediately.
	{
		c := serve.NewClient(ts.URL)
		if _, err := sys.Run(app, c, target, true); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := tr.Status().Samples; got < 25 {
		t.Fatalf("observe tap fed %d samples, want the full warm-up replay (>= 25)", got)
	}

	const sessions = 4
	replays := make([][]byte, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := serve.NewClient(ts.URL)
			res, err := sys.Run(app, c, target, true)
			if err == nil {
				err = c.Close()
			}
			if err != nil {
				errs[i] = err
				return
			}
			var buf bytes.Buffer
			if err := trace.WriteJSONL(&buf, res); err != nil {
				errs[i] = err
				return
			}
			replays[i] = buf.Bytes()
		}(i)
	}

	// Wait until every replay session exists — and is therefore pinned
	// to generation 1 — before the first promotion can happen.
	deadline := time.Now().Add(10 * time.Second)
	for srv.SessionCount() < sessions {
		if time.Now().After(deadline) {
			t.Fatal("replay sessions did not all open")
		}
		time.Sleep(time.Millisecond)
	}
	// Retrain and promote repeatedly while the replays stream.
	replayDone := make(chan struct{})
	var trainWG sync.WaitGroup
	trainWG.Add(1)
	go func() {
		defer trainWG.Done()
		for {
			select {
			case <-replayDone:
				return
			default:
			}
			if _, err := tr.TrainOnce(); err != nil {
				t.Errorf("TrainOnce during replay: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(replayDone)
	trainWG.Wait()

	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if !bytes.Equal(replays[i], golden) {
			t.Fatalf("session %d diverges from golden with the trainer promoting: %s",
				i, firstDiffLine(replays[i], golden))
		}
	}

	st := tr.Status()
	if st.Promoted < 1 {
		t.Fatalf("trainer never promoted during the replay window: %+v", st)
	}
	gen := srv.CurrentSnapshot().Gen
	if gen < 2 {
		t.Fatalf("snapshot generation still %d after %d promotions", gen, st.Promoted)
	}

	// A session opened now pins a promoted generation — the learning
	// loop reaches new traffic without having touched old sessions.
	code, _, body := post(t, ts.URL, "/v1/session", serve.SessionRequest{App: testBench, NumKernels: app.Len()})
	if code != http.StatusOK {
		t.Fatalf("post-promotion session: %d %s", code, body)
	}
	var sr serve.SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.SnapshotGen != gen {
		t.Fatalf("post-promotion session pinned generation %d, want %d", sr.SnapshotGen, gen)
	}

	// /debug/learn: status JSON and a parseable JSONL reservoir dump.
	code, _, body = get(t, ts.URL+"/debug/learn")
	if code != http.StatusOK {
		t.Fatalf("/debug/learn: %d", code)
	}
	var dbg struct {
		SnapshotGen uint64       `json:"snapshot_gen"`
		Learn       learn.Status `json:"learn"`
	}
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	if dbg.SnapshotGen != gen || dbg.Learn.Promoted != st.Promoted || dbg.Learn.Samples == 0 {
		t.Fatalf("/debug/learn state wrong: %+v", dbg)
	}
	code, hdr, body := get(t, ts.URL+"/debug/learn?format=samples")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("/debug/learn samples: %d %q", code, hdr.Get("Content-Type"))
	}
	samples, err := learn.ReadSnapshot(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != dbg.Learn.Samples {
		t.Fatalf("reservoir dump has %d samples, status says %d", len(samples), dbg.Learn.Samples)
	}
	for i, s := range samples {
		if !s.Valid() {
			t.Fatalf("reservoir sample %d invalid: %+v", i, s)
		}
	}
}

// TestLearnRecoveryEndToEnd is the closed-loop acceptance test: a
// degraded generation is installed, its drift is detected and signalled
// to the trainer, a deliberately-poisoned candidate is rejected by the
// holdout gate, the good candidate is promoted with its holdout MAPE as
// the new drift baseline, and post-promotion traffic scores back under
// the drift threshold.
func TestLearnRecoveryEndToEnd(t *testing.T) {
	sys, app, target, model := testStack(t)

	var poison atomic.Bool
	tr := newTestTrainer(func(train []predict.Sample, fcfg rf.Config, workers int) (*predict.RandomForest, error) {
		if poison.Load() {
			bad := make([]predict.Sample, len(train))
			copy(bad, train)
			for i := range bad {
				bad[i].TimeMS *= 100
			}
			train = bad
		}
		return predict.TrainOnSamples(train, fcfg, workers)
	})

	hub := telemetry.NewHub(telemetry.Options{Sample: 0})
	hub.Scoreboard = telemetry.NewScoreboard(telemetry.DefaultWindow, 3)
	srv, ts := newTestServer(t, sys, model, serve.Config{
		Telemetry: hub,
		Learn:     tr,
		Train: func() (predict.Model, error) {
			// The stale stand-in: the oracle with 80% mean absolute
			// error injected — far above anything a freshly trained
			// candidate scores, so recovery is unambiguous.
			return predict.NewWithError(model, 0.8, 0.8, 7), nil
		},
	})

	replay := func() {
		t.Helper()
		c := serve.NewClient(ts.URL)
		if _, err := sys.Run(app, c, target, true); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cellFor := func(gen uint64) *telemetry.CellSnapshot {
		t.Helper()
		for _, c := range hub.Scoreboard.Snapshot() {
			if c.Gen == gen && c.App == testBench {
				cc := c
				return &cc
			}
		}
		return nil
	}

	// Phase 1: healthy generation 1 fills the reservoir and scoreboard.
	// Sibling apps replay alongside Spmv purely as reservoir coverage —
	// a candidate trained on one app's 30 kernels would memorize them
	// and fail the traffic its own optimizer steers into.
	for _, name := range []string{"kmeans", "XSBench", "NBody"} {
		sibling, err := mpcdvfs.BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		_, sibTarget, err := sys.Baseline(&sibling)
		if err != nil {
			t.Fatal(err)
		}
		c := serve.NewClient(ts.URL)
		if _, err := sys.Run(&sibling, c, sibTarget, true); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	replay()
	gen1 := cellFor(1)
	if gen1 == nil {
		t.Fatal("no generation-1 scoreboard cell after the healthy replay")
	}
	// Generation 2, which /reload installs next, drifts against the
	// healthy generation's level.
	hub.Scoreboard.SetBaseline(2, gen1.TimeMAPE+0.01, gen1.PowerMAPE+0.01)
	if got := tr.Status().DriftSignals; got != 0 {
		t.Fatalf("healthy traffic produced %d drift signals", got)
	}

	// Phase 2: /reload installs the degraded generation 2; its replay
	// must cross the drift gate, and the rising edge must reach the
	// trainer through the hook serve.New wired.
	if code, _, body := post(t, ts.URL, "/reload", serve.ReloadRequest{}); code != http.StatusOK {
		t.Fatalf("/reload: %d %s", code, body)
	}
	replay()
	gen2 := cellFor(2)
	if gen2 == nil || !gen2.Drifted {
		t.Fatalf("degraded generation 2 not flagged as drifted: %+v", gen2)
	}
	st := tr.Status()
	if st.DriftSignals < 1 || !st.DriftPending {
		t.Fatalf("drift edge did not reach the trainer: %+v", st)
	}

	// Phase 3: the poisoned candidate fails the holdout gate — counted,
	// rejected, and the degraded generation stays installed.
	poison.Store(true)
	promoted, err := tr.TrainOnce()
	if err != nil {
		t.Fatal(err)
	}
	if promoted {
		t.Fatalf("poisoned candidate promoted (holdout time MAPE %.3f)", tr.Status().LastTimeMAPE)
	}
	if got := srv.CurrentSnapshot().Gen; got != 2 {
		t.Fatalf("rejection changed the installed generation to %d", got)
	}
	if st := tr.Status(); st.Rejected != 1 || st.LastOutcome != "rejected" {
		t.Fatalf("rejection not recorded: %+v", st)
	}

	// Phase 4: the honest candidate passes and is promoted as
	// generation 3, carrying its holdout MAPE in as drift baseline.
	poison.Store(false)
	promoted, err = tr.TrainOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !promoted {
		t.Fatalf("honest candidate rejected: %+v", tr.Status())
	}
	if got := srv.CurrentSnapshot().Gen; got != 3 {
		t.Fatalf("promotion installed generation %d, want 3", got)
	}
	if tag := srv.CurrentSnapshot().Tag; tag != "learn-r2" {
		t.Fatalf("promoted snapshot tag %q, want learn-r2", tag)
	}

	// Phase 5: post-promotion traffic pins generation 3 and scores back
	// under the drift threshold — measurably better than the degraded
	// generation, and not drifted against its own holdout baseline.
	replay()
	gen3 := cellFor(3)
	if gen3 == nil {
		t.Fatal("no generation-3 cell after the recovery replay")
	}
	if gen3.Drifted {
		t.Fatalf("promoted generation still drifted: MAPE %.4f vs baseline %+v",
			gen3.TimeMAPE, gen3.Baseline)
	}
	if gen3.Baseline.TimeMAPE != 3*tr.Status().LastTimeMAPE {
		t.Fatalf("promoted generation's baseline %.4f is not the slack-adjusted holdout MAPE %.4f",
			gen3.Baseline.TimeMAPE, 3*tr.Status().LastTimeMAPE)
	}
	if gen3.TimeMAPE >= gen2.TimeMAPE {
		t.Fatalf("windowed MAPE did not recover: gen2 %.4f, gen3 %.4f", gen2.TimeMAPE, gen3.TimeMAPE)
	}
}
