package main

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
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
