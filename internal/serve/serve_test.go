// Tests for the concurrent decision service. The load-bearing one is
// the golden parity test: a session served over HTTP, with concurrent
// sibling sessions, must produce a replay byte-identical to a local
// single-threaded run of the same policy stack — the determinism
// contract extended across sessions. Everything else (backpressure,
// snapshot pinning, drain) defends the machinery that makes that hold.
package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpcdvfs"
	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/trace"
)

// testBench is the workload every serve test replays: irregular
// non-repeating, so the MPC actually exercises pattern fallback paths.
const testBench = "Spmv"

// testStack returns a simulator, an app, its baseline target and a
// shared oracle model — the cheapest deterministic model that still
// drives the full MPC stack.
func testStack(t testing.TB) (*mpcdvfs.System, *mpcdvfs.App, mpcdvfs.Target, mpcdvfs.Model) {
	t.Helper()
	sys := mpcdvfs.NewSystem()
	app, err := mpcdvfs.BenchmarkByName(testBench)
	if err != nil {
		t.Fatal(err)
	}
	_, target, err := sys.Baseline(&app)
	if err != nil {
		t.Fatal(err)
	}
	return sys, &app, target, sys.NewOracle(&app)
}

// goldenReplay runs the app locally, single-threaded, under a fresh MPC
// over model, and returns the replay as JSONL bytes.
func goldenReplay(t *testing.T, sys *mpcdvfs.System, app *mpcdvfs.App, target mpcdvfs.Target, model mpcdvfs.Model) []byte {
	t.Helper()
	res, err := sys.Run(app, sys.NewMPC(model), target, true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newTestServer builds a decision server over model with the same
// policy stack goldenReplay uses, mounted on an httptest server.
func newTestServer(t testing.TB, sys *mpcdvfs.System, model mpcdvfs.Model, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	cfg.Model = model
	if cfg.NewPolicy == nil {
		cfg.NewPolicy = func(m predict.Model) sim.Policy { return sys.NewMPC(m) }
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Shutdown()
		ts.Close()
	})
	return srv, ts
}

// post is a raw HTTP helper for protocol-level assertions the
// serve.Client would hide (429s, error statuses, headers).
func post(t testing.TB, base, path string, req any) (int, http.Header, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
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

// TestRemoteReplayMatchesLocalGolden is the determinism contract over
// the wire: several sessions replay the same workload concurrently
// through serve.Client, and every one of them must be byte-identical to
// the local single-threaded golden. Run under -race this also proves
// the sessions share nothing unsynchronized.
func TestRemoteReplayMatchesLocalGolden(t *testing.T) {
	sys, app, target, model := testStack(t)
	golden := goldenReplay(t, sys, app, target, model)

	_, ts := newTestServer(t, sys, model, serve.Config{})
	for i, rep := range concurrentReplays(t, sys, app, target, ts.URL, 4) {
		if !bytes.Equal(rep, golden) {
			t.Fatalf("session %d replay diverges from local golden:\nremote: %s\nlocal:  %s",
				i, firstDiffLine(rep, golden), firstDiffLine(golden, rep))
		}
	}
}

// TestCompiledReplaysMatchGoldenConcurrent is the same contract over
// the committed Random Forest: its profiling runs sweep the space on
// the compiled batched path, so concurrent sessions share the forest's
// sweep plan. Every replay must still be byte-identical to the local
// single-threaded golden, under -race too.
func TestCompiledReplaysMatchGoldenConcurrent(t *testing.T) {
	sys, app, target, _ := testStack(t)
	model := loadGoldenModel(t)
	rfm := model.(*predict.RandomForest)
	golden := goldenReplay(t, sys, app, target, model)

	const sessions = 4
	_, ts := newTestServer(t, sys, model, serve.Config{})
	hits0, misses0 := rfm.ArenaPoolStats()
	for i, rep := range concurrentReplays(t, sys, app, target, ts.URL, sessions) {
		if !bytes.Equal(rep, golden) {
			t.Fatalf("session %d diverges from local golden: %s",
				i, firstDiffLine(rep, golden))
		}
	}
	hits, misses := rfm.ArenaPoolStats()
	if sweeps := hits + misses - hits0 - misses0; sweeps < sessions {
		t.Fatalf("%d sessions ran %d batched sweeps: the compiled path was never served", sessions, sweeps)
	}
}

// firstDiffLine returns the first line of a that differs from b, for
// readable failure output.
func firstDiffLine(a, b []byte) []byte {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range al {
		if i >= len(bl) || !bytes.Equal(al[i], bl[i]) {
			return al[i]
		}
	}
	return nil
}

// TestSnapshotPinnedAcrossReload installs a new snapshot generation in
// the middle of a session's decision stream: the session must finish on
// the generation it started with (its replay stays golden), while a
// session opened after the install sees the new generation.
func TestSnapshotPinnedAcrossReload(t *testing.T) {
	sys, app, target, model := testStack(t)
	golden := goldenReplay(t, sys, app, target, model)

	srv, ts := newTestServer(t, sys, model, serve.Config{})

	c := serve.NewClient(ts.URL)
	decided := 0
	c.OnDecideLatency = func(time.Duration) {
		decided++
		if decided == 3 {
			// Same model, new generation: pinning is observable through
			// the generation numbers without forking decision streams.
			srv.Install(model, "midstream")
		}
	}
	res, err := sys.Run(app, c, target, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.SnapshotGen(); got != 1 {
		t.Fatalf("mid-reload session reports snapshot gen %d, want pinned 1", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatal("session that spanned a snapshot install diverged from golden")
	}

	c2 := serve.NewClient(ts.URL)
	if _, err := sys.Run(app, c2, target, true); err != nil {
		t.Fatal(err)
	}
	if got := c2.SnapshotGen(); got != 2 {
		t.Fatalf("post-install session reports snapshot gen %d, want 2", got)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}

// fakeModel is the cheapest predict.Model; backpressure tests don't
// care what it predicts.
type fakeModel struct{}

func (fakeModel) Name() string { return "fake" }
func (fakeModel) PredictKernel(counters.Set, hw.Config) predict.Estimate {
	return predict.Estimate{TimeMS: 1, GPUPowerW: 10}
}

// blockingPolicy parks Decide on a gate so a test can hold a session
// busy deterministically.
type blockingPolicy struct {
	gate    chan struct{}
	started chan struct{}
}

func (p *blockingPolicy) Name() string      { return "blocking" }
func (p *blockingPolicy) Begin(sim.RunInfo) {}
func (p *blockingPolicy) Decide(int) sim.Decision {
	p.started <- struct{}{}
	<-p.gate
	return sim.Decision{Config: hw.FailSafe()}
}
func (p *blockingPolicy) Observe(sim.Observation) {}

// TestBackpressure429AndDrain pins the one-operation-at-a-time
// contract: while decide #0 holds the session, decide #1 is rejected
// with 429 + Retry-After (and counted) instead of waiting, and a close
// waits for decide #0; once the gate opens, decide #0 completes with
// 200 — accepted work is never dropped — and after close the session
// is gone (404).
func TestBackpressure429AndDrain(t *testing.T) {
	pol := &blockingPolicy{gate: make(chan struct{}), started: make(chan struct{}, 1)}
	srv, err := serve.New(serve.Config{
		Model:     fakeModel{},
		NewPolicy: func(predict.Model) sim.Policy { return pol },
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	srv.Instrument(reg)
	backpress := reg.Counter("mpcdvfs_serve_backpressure_total", "").With()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Shutdown()
		ts.Close()
	})

	// Session open runs Begin before it replies, so the session is idle
	// once the reply arrives.
	var sresp serve.SessionResponse
	code, _, body := post(t, ts.URL, "/v1/session", serve.SessionRequest{App: "x", NumKernels: 8, FirstRun: true})
	if code != http.StatusOK {
		t.Fatalf("session open: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &sresp); err != nil {
		t.Fatal(err)
	}

	// Hold the session inside decide #0...
	decided := goPost(ts.URL, "/v1/decide", serve.DecideRequest{SessionID: sresp.SessionID, Index: 0})
	select {
	case <-pol.started:
	case <-time.After(5 * time.Second):
		t.Fatal("decide #0 never reached the policy")
	}

	// ...so decide #1 finds it busy and bounces with 429.
	code, hdr, _ := post(t, ts.URL, "/v1/decide", serve.DecideRequest{SessionID: sresp.SessionID, Index: 1})
	if code != http.StatusTooManyRequests {
		t.Fatalf("decide against a busy session: %d, want 429", code)
	}
	if got := hdr.Get("Retry-After"); got == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	if got := backpress.Value(); got != 1 {
		t.Fatalf("backpressure counter = %v after one 429, want 1", got)
	}

	// Close while decide #0 still runs, then open the gate: the held
	// decide completes with 200 and the close with it.
	closed := goPost(ts.URL, "/v1/session/close", serve.CloseRequest{SessionID: sresp.SessionID})
	close(pol.gate)
	for _, op := range []struct {
		name   string
		status <-chan int
	}{{"held decide", decided}, {"close", closed}} {
		select {
		case code := <-op.status:
			if code != http.StatusOK {
				t.Fatalf("%s finished with %d, want 200", op.name, code)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never completed after the gate opened", op.name)
		}
	}

	// The session is gone; later decides are 404.
	if code, _, _ := post(t, ts.URL, "/v1/decide", serve.DecideRequest{SessionID: sresp.SessionID, Index: 2}); code != http.StatusNotFound {
		t.Fatalf("decide after close: %d, want 404", code)
	}
}

// goPost sends req from a new goroutine and returns a channel that
// delivers the response status, or 0 when the request failed; unlike
// post it never calls t.Fatal off the test's goroutine.
func goPost(base, path string, req any) <-chan int {
	status := make(chan int, 1)
	go func() {
		code := 0
		defer func() { status <- code }()
		body, err := json.Marshal(req)
		if err != nil {
			return
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return
		}
		_, err = io.Copy(io.Discard, resp.Body)
		if cerr := resp.Body.Close(); err == nil && cerr == nil {
			code = resp.StatusCode
		}
	}()
	return status
}

// boomPolicy wraps a real policy and, for sessions of app "boom" only,
// panics in Decide — or in Begin when inBegin is set.
type boomPolicy struct {
	sim.Policy
	inBegin bool
	boom    bool
}

func (p *boomPolicy) Begin(info sim.RunInfo) {
	p.boom = info.AppName == "boom"
	if p.boom && p.inBegin {
		panic("injected Begin panic")
	}
	p.Policy.Begin(info)
}

func (p *boomPolicy) Decide(i int) sim.Decision {
	if p.boom {
		panic("injected Decide panic")
	}
	return p.Policy.Decide(i)
}

// TestPolicyPanicConfinedToSession pins panic containment through the
// real mux: a policy panic answers 500 (counted) and closes its session
// alone — later calls get 410, and a panic in Begin publishes no
// session — while a sibling session on the same server gets a 200 on
// every call of its replay, which stays byte-identical to the local
// golden.
func TestPolicyPanicConfinedToSession(t *testing.T) {
	sys, app, target, model := testStack(t)
	okApp := *app
	okApp.Name = "ok"
	golden := goldenReplay(t, sys, &okApp, target, model)

	for _, inBegin := range []bool{false, true} {
		name := "Decide"
		if inBegin {
			name = "Begin"
		}
		t.Run(name, func(t *testing.T) {
			srv, ts := newTestServer(t, sys, model, serve.Config{
				NewPolicy: func(m predict.Model) sim.Policy {
					return &boomPolicy{Policy: sys.NewMPC(m), inBegin: inBegin}
				},
			})
			reg := metrics.New()
			srv.Instrument(reg)
			requests := reg.Counter("mpcdvfs_serve_requests_total", "", "endpoint", "code")

			code, _, body := post(t, ts.URL, "/v1/session", serve.SessionRequest{App: "boom", NumKernels: app.Len(), FirstRun: true})
			if inBegin {
				if code != http.StatusInternalServerError {
					t.Fatalf("session open with a panicking Begin: %d %s, want 500", code, body)
				}
				if got := srv.SessionCount(); got != 0 {
					t.Fatalf("a session whose Begin panicked was published: %d open", got)
				}
				if got := requests.With("session", "500").Value(); got != 1 {
					t.Fatalf("session 500s counted %v, want 1", got)
				}
			} else {
				var sresp serve.SessionResponse
				if code != http.StatusOK || json.Unmarshal(body, &sresp) != nil {
					t.Fatalf("boom session open: %d %s", code, body)
				}
				if code, _, body := post(t, ts.URL, "/v1/decide", serve.DecideRequest{SessionID: sresp.SessionID, Index: 0}); code != http.StatusInternalServerError {
					t.Fatalf("decide with a panicking policy: %d %s, want 500", code, body)
				}
				if got := requests.With("decide", "500").Value(); got != 1 {
					t.Fatalf("decide 500s counted %v, want 1", got)
				}
				if code, _, body := post(t, ts.URL, "/v1/decide", serve.DecideRequest{SessionID: sresp.SessionID, Index: 1}); code != http.StatusGone {
					t.Fatalf("decide after the panic: %d %s, want 410", code, body)
				}
				defer func() {
					if code, _, _ := post(t, ts.URL, "/v1/session/close", serve.CloseRequest{SessionID: sresp.SessionID}); code != http.StatusOK {
						t.Errorf("closing the panicked session: %d, want 200", code)
					}
				}()
			}

			// The sibling replays while the panicked session stays open.
			c := serve.NewClient(ts.URL)
			res, err := sys.Run(&okApp, c, target, true)
			if err == nil {
				err = c.Close()
			}
			if err != nil {
				t.Fatalf("sibling session: %v", err)
			}
			if c.Retries429 != 0 {
				t.Fatalf("sibling session absorbed %d 429s, want every call answered 200", c.Retries429)
			}
			var buf bytes.Buffer
			if err := trace.WriteJSONL(&buf, res); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), golden) {
				t.Fatalf("sibling replay diverges from local golden: %s", firstDiffLine(buf.Bytes(), golden))
			}
		})
	}
}

// TestNoGoroutinePerSession pins that a session is policy state under a
// lock, not a goroutine: 16 sessions opened through one client add
// fewer than 16 goroutines (the listener and one keep-alive connection
// account for a few). After Shutdown, closing the test server and the
// client's idle connections, the count returns to its value before the
// server existed: nothing leaks.
func TestNoGoroutinePerSession(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := serve.New(serve.Config{
		Model:     fakeModel{},
		NewPolicy: func(predict.Model) sim.Policy { return &nopPolicy{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{}
	hc := &http.Client{Transport: tr}

	const sessions = 16
	for i := 0; i < sessions; i++ {
		resp, err := hc.Post(ts.URL+"/v1/session", "application/json", strings.NewReader(`{"app":"x","num_kernels":4}`))
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session open %d: %d", i, resp.StatusCode)
		}
	}
	if grew := runtime.NumGoroutine() - before; grew >= sessions {
		t.Fatalf("%d open sessions added %d goroutines, want fewer than %d", sessions, grew, sessions)
	}

	srv.Shutdown()
	ts.Close()
	tr.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, want at most %d as before the server existed", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownDrainsAndRejects pins the drain contract: Shutdown waits
// for every session's running operation, empties the session table,
// and the server refuses new sessions afterwards.
func TestShutdownDrainsAndRejects(t *testing.T) {
	srv, err := serve.New(serve.Config{
		Model:     fakeModel{},
		NewPolicy: func(predict.Model) sim.Policy { return &nopPolicy{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	for i := 0; i < 3; i++ {
		if code, _, _ := post(t, ts.URL, "/v1/session", serve.SessionRequest{App: "x", NumKernels: 4}); code != http.StatusOK {
			t.Fatalf("session open %d: %d", i, code)
		}
	}
	if got := srv.SessionCount(); got != 3 {
		t.Fatalf("SessionCount = %d, want 3", got)
	}
	srv.Shutdown()
	if got := srv.SessionCount(); got != 0 {
		t.Fatalf("SessionCount after Shutdown = %d, want 0", got)
	}
	if code, _, _ := post(t, ts.URL, "/v1/session", serve.SessionRequest{App: "x", NumKernels: 4}); code != http.StatusServiceUnavailable {
		t.Fatalf("session open after Shutdown: %d, want 503", code)
	}
}

type nopPolicy struct{}

func (*nopPolicy) Name() string            { return "nop" }
func (*nopPolicy) Begin(sim.RunInfo)       {}
func (*nopPolicy) Decide(int) sim.Decision { return sim.Decision{Config: hw.FailSafe()} }
func (*nopPolicy) Observe(sim.Observation) {}

// TestReloadEndpoint drives /reload through the real mux. A body that
// names a path gets 400 whatever the path (a valid model file
// included), builds nothing and leaves the generation alone; without a
// model source {} gets 501; with one, {} installs its model as the
// next generation, which the next session pins.
func TestReloadEndpoint(t *testing.T) {
	bare, err := serve.New(serve.Config{
		Model:     fakeModel{},
		NewPolicy: func(predict.Model) sim.Policy { return &nopPolicy{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	tsBare := httptest.NewServer(bare.Handler())
	t.Cleanup(func() { bare.Shutdown(); tsBare.Close() })
	if code, _, _ := post(t, tsBare.URL, "/reload", serve.ReloadRequest{}); code != http.StatusNotImplemented {
		t.Fatalf("reload without a model source: %d, want 501", code)
	}

	var builds atomic.Int32
	trained, err := serve.New(serve.Config{
		Model:     fakeModel{},
		NewPolicy: func(predict.Model) sim.Policy { return &nopPolicy{} },
		Train: func() (predict.Model, error) {
			builds.Add(1)
			return fakeModel{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tsTrained := httptest.NewServer(trained.Handler())
	t.Cleanup(func() { trained.Shutdown(); tsTrained.Close() })
	for _, path := range []string{filepath.Join("..", "..", "testdata", "golden", "model.bin"), "/nonexistent/model.bin"} {
		for _, ts := range []*httptest.Server{tsBare, tsTrained} {
			if code, _, body := post(t, ts.URL, "/reload", serve.ReloadRequest{Path: path}); code != http.StatusBadRequest {
				t.Fatalf("reload naming %q: %d %s, want 400", path, code, body)
			}
		}
	}
	if builds.Load() != 0 || trained.CurrentSnapshot().Gen != 1 || bare.CurrentSnapshot().Gen != 1 {
		t.Fatalf("refused reloads changed the server: %d builds, generations %d and %d, want 0 and 1, 1",
			builds.Load(), trained.CurrentSnapshot().Gen, bare.CurrentSnapshot().Gen)
	}

	code, _, body := post(t, tsTrained.URL, "/reload", serve.ReloadRequest{})
	if code != http.StatusOK {
		t.Fatalf("reload with a model source: %d %s", code, body)
	}
	var resp serve.ReloadResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.SnapshotGen != 2 || trained.CurrentSnapshot().Gen != 2 || builds.Load() != 1 {
		t.Fatalf("reload installed gen %d (server at %d, %d builds), want 2 after 1 build",
			resp.SnapshotGen, trained.CurrentSnapshot().Gen, builds.Load())
	}
	code, _, body = post(t, tsTrained.URL, "/v1/session", serve.SessionRequest{App: "x", NumKernels: 4})
	var sresp serve.SessionResponse
	if code != http.StatusOK || json.Unmarshal(body, &sresp) != nil {
		t.Fatalf("session open after reload: %d %s", code, body)
	}
	if sresp.SnapshotGen != 2 {
		t.Fatalf("session after reload pinned gen %d, want 2", sresp.SnapshotGen)
	}
}

// reloadedModel is the model a test's /reload installs, told apart
// from fakeModel by its name.
type reloadedModel struct{ fakeModel }

func (reloadedModel) Name() string { return "reloaded" }

// TestReloadDuringHeldDecide interleaves a reload with a running
// decision, through the real mux: while a decide holds its session
// inside the policy, /reload {} installs generation 2 without waiting
// for it. The held decide then completes with 200 on its session's
// generation 1, a session opened afterwards is built over the reloaded
// model, and after Shutdown no goroutine the server or its clients
// started is left.
func TestReloadDuringHeldDecide(t *testing.T) {
	before := runtime.NumGoroutine()
	gate := make(chan struct{})
	var release sync.Once
	started := make(chan struct{}, 1)
	built := make(chan predict.Model, 2)
	srv, err := serve.New(serve.Config{
		Model: fakeModel{},
		NewPolicy: func(m predict.Model) sim.Policy {
			built <- m
			return &blockingPolicy{gate: gate, started: started}
		},
		Train: func() (predict.Model, error) { return reloadedModel{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	hc := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
	// Cleanups run last-in first-out: the gate opens before the drain.
	t.Cleanup(func() { srv.Shutdown(); ts.Close() })
	t.Cleanup(func() { release.Do(func() { close(gate) }) })

	type reply struct {
		code int
		body []byte
		err  error
	}
	send := func(path string, req any) reply {
		body, err := json.Marshal(req)
		if err != nil {
			return reply{err: err}
		}
		resp, err := hc.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return reply{err: err}
		}
		b, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		return reply{resp.StatusCode, b, err}
	}
	open := func() serve.SessionResponse {
		t.Helper()
		r := send("/v1/session", serve.SessionRequest{App: "x", NumKernels: 4})
		var sresp serve.SessionResponse
		if r.err != nil || r.code != http.StatusOK || json.Unmarshal(r.body, &sresp) != nil {
			t.Fatalf("session open: %d %s %v", r.code, r.body, r.err)
		}
		return sresp
	}

	held := open()
	if m := <-built; m != (fakeModel{}) || held.SnapshotGen != 1 {
		t.Fatalf("first session built over %s at gen %d, want fake at 1", m.Name(), held.SnapshotGen)
	}
	decided := make(chan reply, 1)
	go func() { decided <- send("/v1/decide", serve.DecideRequest{SessionID: held.SessionID, Index: 0}) }()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("decide never reached the policy")
	}

	r := send("/reload", serve.ReloadRequest{})
	var rresp serve.ReloadResponse
	if r.err != nil || r.code != http.StatusOK || json.Unmarshal(r.body, &rresp) != nil {
		t.Fatalf("reload during a held decide: %d %s %v, want 200", r.code, r.body, r.err)
	}
	if rresp.SnapshotGen != 2 || rresp.Model != "reloaded" {
		t.Fatalf("reload installed %q as gen %d, want reloaded as 2", rresp.Model, rresp.SnapshotGen)
	}

	release.Do(func() { close(gate) })
	select {
	case r := <-decided:
		var dresp serve.DecideResponse
		if r.err != nil || r.code != http.StatusOK || json.Unmarshal(r.body, &dresp) != nil {
			t.Fatalf("held decide: %d %s %v, want 200", r.code, r.body, r.err)
		}
		if dresp.SnapshotGen != 1 {
			t.Fatalf("held decide answered on gen %d, want its session's 1", dresp.SnapshotGen)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("held decide never completed after the gate opened")
	}

	next := open()
	if m := <-built; m != (reloadedModel{}) || next.SnapshotGen != 2 {
		t.Fatalf("session after reload built over %s at gen %d, want reloaded at 2", m.Name(), next.SnapshotGen)
	}

	srv.Shutdown()
	ts.Close()
	hc.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, want at most %d as before the server existed", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionValidation pins the cheap protocol guards, among them the
// kernel count (a session may declare at most 2^20 kernels) and the
// decide index: outside [0, num_kernels) it is a 400.
func TestSessionValidation(t *testing.T) {
	srv, err := serve.New(serve.Config{
		Model:     fakeModel{},
		NewPolicy: func(predict.Model) sim.Policy { return &nopPolicy{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { srv.Shutdown(); ts.Close() })

	for _, n := range []int{0, 2_000_000_000} {
		if code, _, _ := post(t, ts.URL, "/v1/session", serve.SessionRequest{App: "x", NumKernels: n}); code != http.StatusBadRequest {
			t.Fatalf("num_kernels=%d: %d, want 400", n, code)
		}
	}
	if code, _, _ := post(t, ts.URL, "/v1/decide", serve.DecideRequest{SessionID: "nope"}); code != http.StatusNotFound {
		t.Fatalf("unknown session: %d, want 404", code)
	}
	code, _, body := post(t, ts.URL, "/v1/session", serve.SessionRequest{App: "x", NumKernels: 4})
	var sresp serve.SessionResponse
	if code != http.StatusOK || json.Unmarshal(body, &sresp) != nil {
		t.Fatalf("session open: %d %s", code, body)
	}
	for _, index := range []int{-5, 4, 99_999_999} {
		if code, _, body := post(t, ts.URL, "/v1/decide", serve.DecideRequest{SessionID: sresp.SessionID, Index: index}); code != http.StatusBadRequest {
			t.Fatalf("decide index %d of 4 kernels: %d %s, want 400", index, code, body)
		}
	}
	if code, _, body := post(t, ts.URL, "/v1/decide", serve.DecideRequest{SessionID: sresp.SessionID, Index: 3}); code != http.StatusOK {
		t.Fatalf("decide index 3 of 4 kernels: %d %s", code, body)
	}
	resp, err := http.Get(ts.URL + "/v1/decide")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/decide: %d, want 405", resp.StatusCode)
	}
}
