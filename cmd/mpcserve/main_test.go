package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mpcdvfs"
	"mpcdvfs/internal/serve"
)

const goldenModel = "../../testdata/golden/model.bin"

// newTestServer builds mpcserve from a command line and mounts its
// handler on an httptest server; the decision sessions drain at cleanup.
func newTestServer(t *testing.T, args ...string) (*server, *httptest.Server) {
	t.Helper()
	o, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler)
	t.Cleanup(func() {
		s.decider.Shutdown()
		ts.Close()
	})
	return s, ts
}

// get fetches path and returns the status and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// mustGet fetches path and fails unless it answers 200.
func mustGet(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	status, body := get(t, ts, path)
	if status != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, status, body)
	}
	return body
}

// decisionSamples sums the mpcdvfs_decisions_total samples of a
// Prometheus text exposition and counts them.
func decisionSamples(t *testing.T, exposition string) (sum float64, n int) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "mpcdvfs_decisions_total") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		sum += v
		n++
	}
	return sum, n
}

// TestRemovedFlagsUndefined: the replay loop's flags are gone, not
// ignored.
func TestRemovedFlagsUndefined(t *testing.T) {
	for _, arg := range []string{"-replay=false", "-interval=1s", "-apps=Spmv", "-oracle", "-trace-out=events.jsonl"} {
		_, err := parseFlags([]string{arg})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: got %v, want an undefined-flag error", arg, err)
		}
	}
}

// TestPolicyCheckedBeforeModel: -policy accepts mpc and ppk only, and
// an unknown value fails before any model is read or trained.
func TestPolicyCheckedBeforeModel(t *testing.T) {
	for _, pol := range []string{"turbo-core", "typo", ""} {
		_, err := newServer(options{policy: pol, modelPath: "no-such-model.bin"})
		if err == nil || errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), "unknown -policy") {
			t.Errorf("-policy %q: got %v, want an unknown-policy error", pol, err)
		}
	}
}

// TestServesOnlyClientDecisions: a server nobody talks to counts no
// decisions, and one client replay of Spmv (the profiling run and one
// steady run, each its own session) lands exactly its decisions in
// mpcdvfs_decisions_total.
func TestServesOnlyClientDecisions(t *testing.T) {
	_, ts := newTestServer(t, "-model", goldenModel)

	if _, n := decisionSamples(t, mustGet(t, ts, "/metrics")); n != 0 {
		t.Fatalf("%d mpcdvfs_decisions_total samples before any client", n)
	}

	sys := mpcdvfs.NewSystem()
	app, err := mpcdvfs.BenchmarkByName("Spmv")
	if err != nil {
		t.Fatal(err)
	}
	_, target, err := sys.Baseline(&app)
	if err != nil {
		t.Fatal(err)
	}
	c := serve.NewClient(ts.URL)
	decisions := 0
	for _, first := range []bool{true, false} {
		res, err := sys.Run(&app, c, target, first)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		decisions += len(res.Records)
	}

	sum, n := decisionSamples(t, mustGet(t, ts, "/metrics"))
	if n == 0 || sum != float64(decisions) {
		t.Fatalf("mpcdvfs_decisions_total sums to %g over %d samples, want the replay's %d decisions", sum, n, decisions)
	}
}

// TestRoutes: the decision server's routes and the observability mux
// share one listener; /debug/learn exists only under -learn, and
// /reload re-reads -model.
func TestRoutes(t *testing.T) {
	_, ts := newTestServer(t, "-model", goldenModel)
	for _, path := range []string{"/health", "/debug/mpc", "/debug/models", "/debug/trace", "/debug/pprof/"} {
		mustGet(t, ts, path)
	}
	if status, _ := get(t, ts, "/debug/learn"); status != http.StatusNotFound {
		t.Errorf("/debug/learn without -learn: %d, want 404", status)
	}
	resp, err := http.Post(ts.URL+"/reload", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/reload {} with -model: %d, want 200", resp.StatusCode)
	}

	_, lts := newTestServer(t, "-model", goldenModel, "-learn")
	mustGet(t, lts, "/debug/learn")
}

// postJSON posts body to path and returns the status and reply.
func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply
}

// TestReloadCorruptModelKeepsServing: /reload re-reads -model, and a
// file that no longer holds a model — garbage, cut short or empty —
// gets a 500 with no panic; the serving generation stays 1 and a
// session opened afterwards decides on it. Once the file is restored,
// /reload installs generation 2.
func TestReloadCorruptModelKeepsServing(t *testing.T) {
	good, err := os.ReadFile(goldenModel)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := os.WriteFile(path, good, 0o600); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, "-model", path)
	for _, bad := range [][]byte{[]byte(strings.Repeat("not a model\x00\xff", 64)), good[:len(good)/2], nil} {
		if err := os.WriteFile(path, bad, 0o600); err != nil {
			t.Fatal(err)
		}
		if code, reply := postJSON(t, ts, "/reload", "{}"); code != http.StatusInternalServerError {
			t.Fatalf("/reload of a %d-byte corrupt model: %d %s, want 500", len(bad), code, reply)
		}
		if gen := s.decider.CurrentSnapshot().Gen; gen != 1 {
			t.Fatalf("after a failed reload the server serves generation %d, want 1", gen)
		}
		code, reply := postJSON(t, ts, "/v1/session", `{"app":"Spmv","num_kernels":3,"first_run":true,"target":{"total_insts":1e9,"total_time_ms":10}}`)
		if code != http.StatusOK {
			t.Fatalf("session after a failed reload: %d %s", code, reply)
		}
		var sess serve.SessionResponse
		if err := json.Unmarshal(reply, &sess); err != nil {
			t.Fatal(err)
		}
		if sess.SnapshotGen != 1 {
			t.Fatalf("session after a failed reload pinned generation %d, want 1", sess.SnapshotGen)
		}
		if code, reply := postJSON(t, ts, "/v1/decide", `{"session_id":"`+sess.SessionID+`","index":0}`); code != http.StatusOK {
			t.Fatalf("decide after a failed reload: %d %s", code, reply)
		}
	}
	if err := os.WriteFile(path, good, 0o600); err != nil {
		t.Fatal(err)
	}
	code, reply := postJSON(t, ts, "/reload", "{}")
	var r serve.ReloadResponse
	if code != http.StatusOK || json.Unmarshal(reply, &r) != nil || r.SnapshotGen != 2 {
		t.Fatalf("/reload of the restored model: %d %s, want 200 and generation 2", code, reply)
	}
}

// TestServeDrainsOnCancel: the serve loop starts the trainer and the
// listener, and returns cleanly once its context is done.
func TestServeDrainsOnCancel(t *testing.T) {
	s, _ := newTestServer(t, "-model", goldenModel, "-learn", "-addr", "127.0.0.1:0")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.serve(ctx); err != nil {
		t.Fatalf("serve after cancel: %v", err)
	}
}
