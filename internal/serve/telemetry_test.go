// Telemetry integration tests: the deep-introspection layer must
// observe the serving stack without perturbing it. The load-bearing
// assertions are (1) a fully-sampled traced session replays
// byte-identical to the untraced local golden, (2) one /v1/decide
// decomposes into the search/featurize/forest-eval span tree, and
// (3) the per-generation scoreboard visibly degrades when a worse
// model generation is installed via /reload.
package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"mpcdvfs"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/telemetry"
)

// loadGoldenModel loads the committed random-forest model — the only
// test model with a batched (SpaceEvaluator) path, which the
// featurize/forest-eval span assertions need.
func loadGoldenModel(t testing.TB) mpcdvfs.Model {
	t.Helper()
	f, err := os.Open("../../testdata/golden/model.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := predict.LoadModel(f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// get fetches a debug endpoint.
func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// TestTracedReplayMatchesGoldenConcurrent is the tracing determinism
// contract: four sessions replaying concurrently under 100% trace
// sampling — each reporting through its observer into the obs metrics
// sink, the scoreboard and the ledger, with the span ring active — must
// each stay byte-identical to the untraced, unobserved local golden.
// Under -race this also exercises the shared sinks from four
// concurrent sessions.
func TestTracedReplayMatchesGoldenConcurrent(t *testing.T) {
	sys, app, target, model := testStack(t)
	golden := goldenReplay(t, sys, app, target, model)

	hub := telemetry.NewHub(telemetry.Options{Sample: 1})
	hub.Instrument(metrics.New())
	_, ts := newTestServer(t, sys, model, serve.Config{Telemetry: hub})

	const sessions = 4
	for i, rep := range concurrentReplays(t, sys, app, target, ts.URL, sessions) {
		if !bytes.Equal(rep, golden) {
			t.Fatalf("traced session %d diverges from untraced golden at: %s",
				i, firstDiffLine(rep, golden))
		}
	}

	roots, sampled := hub.Tracer.Stats()
	want := uint64(sessions * app.Len())
	if roots != want || sampled != want {
		t.Fatalf("tracer saw %d roots / %d sampled, want %d/%d", roots, sampled, want, want)
	}
	if cells := hub.Scoreboard.Snapshot(); len(cells) == 0 {
		t.Fatal("scoreboard empty after four observed replays")
	}
	acct := hub.Accounting.Snapshot()
	if len(acct.Sessions) != sessions {
		t.Fatalf("accounting has %d sessions, want %d", len(acct.Sessions), sessions)
	}
	for _, srow := range acct.Sessions {
		if srow.Decisions != uint64(app.Len()) {
			t.Fatalf("session %s accounted %d decisions, want %d", srow.SessionID, srow.Decisions, app.Len())
		}
	}
}

// TestDecideSpanTreeAndDebugEndpoints drives a replay against the
// random-forest model and asserts the acceptance-criterion span tree:
// a single served decision decomposes into search, featurize and
// forest-eval phases, all visible through /debug/trace and /debug/mpc.
func TestDecideSpanTreeAndDebugEndpoints(t *testing.T) {
	sys, app, target, _ := testStack(t)
	model := loadGoldenModel(t)

	hub := telemetry.NewHub(telemetry.Options{Sample: 1, RingSize: 16384})
	_, ts := newTestServer(t, sys, model, serve.Config{Telemetry: hub})

	c := serve.NewClient(ts.URL)
	if _, err := sys.Run(app, c, target, true); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// /debug/trace: parse the ring and find one fully-decomposed trace.
	code, hdr, body := get(t, ts.URL+"/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace: %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("/debug/trace content type %q", ct)
	}
	recs, err := telemetry.ReadSpansJSONL(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	byTrace := map[uint64][]telemetry.SpanRecord{}
	for _, r := range recs {
		byTrace[r.TraceID] = append(byTrace[r.TraceID], r)
	}
	found := false
	for _, spans := range byTrace {
		var root, search telemetry.SpanRecord
		for _, sp := range spans {
			switch sp.Name {
			case telemetry.SpanDecide:
				root = sp
			case telemetry.SpanSearch:
				search = sp
			}
		}
		if root.SpanID == 0 || search.SpanID == 0 || search.ParentID != root.SpanID {
			continue
		}
		var haveFeat, haveForest bool
		for _, sp := range spans {
			switch {
			case sp.Name == telemetry.SpanFeaturize && sp.ParentID == search.SpanID:
				haveFeat = true
			case sp.Name == telemetry.SpanForestEval && sp.ParentID == search.SpanID:
				haveForest = true
			}
		}
		if haveFeat && haveForest {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no trace decomposes into search+featurize+forest-eval (have %d traces)", len(byTrace))
	}

	// /debug/mpc JSON: the same state, plus scoreboard and ledger.
	code, _, body = get(t, ts.URL+"/debug/mpc")
	if code != http.StatusOK {
		t.Fatalf("/debug/mpc: %d", code)
	}
	var st serve.DebugState
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/debug/mpc JSON: %v", err)
	}
	if st.SnapshotGen != 1 || st.Model == "" {
		t.Fatalf("debug state header wrong: gen=%d model=%q", st.SnapshotGen, st.Model)
	}
	if len(st.Models) == 0 || st.Models[0].Observations == 0 {
		t.Fatalf("debug state has no scoreboard cells: %+v", st.Models)
	}
	if len(st.Accounting.Sessions) == 0 || len(st.RecentSpans) == 0 {
		t.Fatal("debug state missing accounting sessions or recent spans")
	}
	if st.TraceSampled == 0 || st.TraceSampleN != 1 {
		t.Fatalf("debug trace stats wrong: %+v", st)
	}

	// /debug/mpc?format=html: the human view renders.
	code, hdr, body = get(t, ts.URL+"/debug/mpc?format=html")
	if code != http.StatusOK || !strings.Contains(hdr.Get("Content-Type"), "text/html") {
		t.Fatalf("/debug/mpc html: %d %q", code, hdr.Get("Content-Type"))
	}
	if !strings.Contains(string(body), "model scoreboard") {
		t.Fatal("html view missing scoreboard section")
	}

	// /debug/models: the scoreboard alone.
	code, _, body = get(t, ts.URL+"/debug/models")
	if code != http.StatusOK {
		t.Fatalf("/debug/models: %d", code)
	}
	var models struct {
		SnapshotGen uint64                   `json:"snapshot_gen"`
		Cells       []telemetry.CellSnapshot `json:"cells"`
	}
	if err := json.Unmarshal(body, &models); err != nil {
		t.Fatal(err)
	}
	if len(models.Cells) == 0 {
		t.Fatal("/debug/models has no cells")
	}
}

// TestScoreboardDegradesAcrossReload is the drift acceptance test: a
// replay against the accurate generation-1 model, then /reload installs
// a deliberately degraded generation 2; the per-generation rolling MAPE
// on /debug/models must be visibly worse for generation 2, and with the
// gen-1 level registered as baseline, generation 2 must flag drift.
func TestScoreboardDegradesAcrossReload(t *testing.T) {
	sys, app, target, model := testStack(t)

	hub := telemetry.NewHub(telemetry.Options{Sample: 0})
	hub.Scoreboard = telemetry.NewScoreboard(telemetry.DefaultWindow, 3)
	srv, ts := newTestServer(t, sys, model, serve.Config{
		Telemetry: hub,
		Train: func() (predict.Model, error) {
			// The "retrained" model is the oracle with 40% mean
			// absolute error injected — a deterministic stand-in for a
			// model gone stale.
			return predict.NewWithError(model, 0.4, 0.4, 7), nil
		},
	})

	replay := func() {
		c := serve.NewClient(ts.URL)
		if _, err := sys.Run(app, c, target, true); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	replay() // generation 1

	if code, _, body := post(t, ts.URL, "/reload", serve.ReloadRequest{}); code != http.StatusOK {
		t.Fatalf("/reload: %d %s", code, body)
	}
	if got := srv.CurrentSnapshot().Gen; got != 2 {
		t.Fatalf("snapshot gen after reload = %d, want 2", got)
	}
	replay() // generation 2, degraded

	code, _, body := get(t, ts.URL+"/debug/models")
	if code != http.StatusOK {
		t.Fatalf("/debug/models: %d", code)
	}
	var models struct {
		Cells []telemetry.CellSnapshot `json:"cells"`
	}
	if err := json.Unmarshal(body, &models); err != nil {
		t.Fatal(err)
	}
	var gen1, gen2 *telemetry.CellSnapshot
	for i := range models.Cells {
		switch models.Cells[i].Gen {
		case 1:
			gen1 = &models.Cells[i]
		case 2:
			gen2 = &models.Cells[i]
		}
	}
	if gen1 == nil || gen2 == nil {
		t.Fatalf("missing generation cells: %+v", models.Cells)
	}
	if gen2.TimeMAPE <= gen1.TimeMAPE {
		t.Fatalf("degraded generation not visible: gen1 MAPE %.4f, gen2 MAPE %.4f",
			gen1.TimeMAPE, gen2.TimeMAPE)
	}

	// With generation 1's observed level as both generations' baseline,
	// generation 2 crosses the drift gate (factor 3 — gen-1 errors are
	// near zero against the oracle, gen-2 errors are ~40%).
	for gen := uint64(1); gen <= 2; gen++ {
		hub.Scoreboard.SetBaseline(gen, gen1.TimeMAPE+0.01, gen1.PowerMAPE+0.01)
	}
	cells := hub.Scoreboard.Snapshot()
	for _, cell := range cells {
		if cell.Gen == 2 && !cell.Drifted {
			t.Fatalf("generation 2 not flagged as drifted: %+v", cell)
		}
		if cell.Gen == 1 && cell.Drifted {
			t.Fatalf("generation 1 falsely flagged as drifted: %+v", cell)
		}
	}
}
