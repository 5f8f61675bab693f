// The cross-session batching golden: concurrent sessions served with
// the epoch coordinator fusing their sweeps must produce replays
// byte-identical to the same sessions served direct — and both must
// match the local single-threaded golden. Run under -race this also
// proves the coordinator shares nothing unsynchronized with sessions.
package serve_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"mpcdvfs"
	"mpcdvfs/internal/batch"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/trace"
)

var (
	batchRFOnce sync.Once
	batchRF     *predict.RandomForest
	batchRFErr  error
)

// batchTrainedRF trains the one small forest the batching goldens
// share. The oracle model the other serve tests use has no compiled
// batched path, so this wall needs a real forest.
func batchTrainedRF(t *testing.T) *predict.RandomForest {
	t.Helper()
	batchRFOnce.Do(func() {
		opt := predict.DefaultTrainOptions(42)
		opt.NumKernels = 40 // keep unit tests fast
		batchRF, batchRFErr = predict.TrainRandomForest(opt)
	})
	if batchRFErr != nil {
		t.Fatal(batchRFErr)
	}
	return batchRF
}

// concurrentReplays runs n concurrent sessions against base and returns
// each session's replay bytes.
func concurrentReplays(t *testing.T, sys *mpcdvfs.System, app *mpcdvfs.App, target mpcdvfs.Target, base string, n int) [][]byte {
	t.Helper()
	replays := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := serve.NewClient(base)
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
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	return replays
}

// TestBatchedReplaysMatchDirectGolden is ISSUE 10's determinism
// contract: 4 concurrent sessions replayed twice — once through a
// direct server, once through a server whose sessions submit sweeps to
// an epoch coordinator (a wide window so sweeps genuinely fuse) — must
// all be byte-identical to the local single-threaded golden.
func TestBatchedReplaysMatchDirectGolden(t *testing.T) {
	sys, app, target, _ := testStack(t)
	model := batchTrainedRF(t)
	golden := goldenReplay(t, sys, app, target, model)

	const sessions = 4

	_, direct := newTestServer(t, sys, model, serve.Config{})
	for i, rep := range concurrentReplays(t, sys, app, target, direct.URL, sessions) {
		if !bytes.Equal(rep, golden) {
			t.Fatalf("direct session %d diverges from local golden: %s",
				i, firstDiffLine(rep, golden))
		}
	}

	coord := batch.New(batch.Config{Window: 500 * time.Microsecond, MaxFuse: sessions})
	_, batched := newTestServer(t, sys, model, serve.Config{
		Batch: coord,
		NewPolicy: func(m predict.Model) sim.Policy {
			return sys.NewMPC(m, mpcdvfs.WithSweepSubmitter(coord.Submit))
		},
	})
	for i, rep := range concurrentReplays(t, sys, app, target, batched.URL, sessions) {
		if !bytes.Equal(rep, golden) {
			t.Fatalf("batched session %d diverges from local golden: %s",
				i, firstDiffLine(rep, golden))
		}
	}
	if st := coord.Stats(); st.Fused == 0 {
		t.Fatalf("coordinator fused nothing — the batched run never batched: %+v", st)
	}
}

// TestShutdownStopsCoordinator proves the server owns the coordinator
// lifecycle: Shutdown drains sessions first, then stops the
// coordinator, and a subsequent submit is rejected rather than
// stranded.
func TestShutdownStopsCoordinator(t *testing.T) {
	sys, app, target, _ := testStack(t)
	model := batchTrainedRF(t)

	coord := batch.New(batch.Config{})
	srv, ts := newTestServer(t, sys, model, serve.Config{
		Batch: coord,
		NewPolicy: func(m predict.Model) sim.Policy {
			return sys.NewMPC(m, mpcdvfs.WithSweepSubmitter(coord.Submit))
		},
	})
	c := serve.NewClient(ts.URL)
	if _, err := sys.Run(app, c, target, true); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown deadlocked with a coordinator attached")
	}
	req := &predict.SweepRequest{
		Model: model,
		Space: sys.Space(),
		CS:    app.Kernels[0].Counters(),
		Dst:   make([]predict.Estimate, sys.Space().Size()),
		Done:  make(chan struct{}, 1),
	}
	if coord.Submit(req) {
		t.Fatal("stopped coordinator accepted a sweep after Shutdown")
	}
}
