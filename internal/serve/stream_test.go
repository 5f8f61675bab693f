// Tests for the single event stream: a served session reports through
// one observer, whose sinks are the obs metrics families, the ledger
// and the scoreboard, and the model error all three read is the one
// predict.Calibrated.Feedback computes.
package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mpcdvfs"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/telemetry"
)

// exposition renders reg in the text format.
func exposition(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// samples returns the exposition's sample lines of family name (and its
// _bucket/_sum/_count series) that carry the given label pairs, keyed by
// series, with their values.
func samples(text, name, labels string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) || !strings.Contains(line, labels) {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			out[line[:i]] = line[i+1:]
		}
	}
	return out
}

// TestServedReplayReachesObsFamilies replays Spmv locally under an
// engine observer and over the wire on a hub-instrumented server. The
// served replay must land in the obs families under its policy and app
// with the same decision, fallback, kernel and prediction-error counts
// as the local one, and its measured energy must match.
func TestServedReplayReachesObsFamilies(t *testing.T) {
	sys, app, target, model := testStack(t)

	local := metrics.New()
	localSys := mpcdvfs.NewSystem()
	localSys.SetObserver(obs.NewMetrics(local))
	if _, err := localSys.Run(app, localSys.NewMPC(model), target, true); err != nil {
		t.Fatal(err)
	}

	served := metrics.New()
	hub := telemetry.NewHub(telemetry.Options{})
	hub.Instrument(served)
	_, ts := newTestServer(t, sys, model, serve.Config{Telemetry: hub})
	c := serve.NewClient(ts.URL)
	if _, err := sys.Run(app, c, target, true); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	lt, st := exposition(t, local), exposition(t, served)
	labels := `policy="mpc",app="` + app.Name + `"`
	for _, name := range []string{obs.MetricDecisions, obs.MetricFallbacks, obs.MetricKernels, obs.MetricPredictionErr} {
		want, got := samples(lt, name, labels), samples(st, name, labels)
		if len(want) == 0 {
			t.Fatalf("local replay recorded no %s{%s}", name, labels)
		}
		for series, v := range want {
			if strings.HasSuffix(strings.SplitN(series, "{", 2)[0], "_sum") {
				continue // error sums may differ in the last bits; the counts may not
			}
			if got[series] != v {
				t.Errorf("%s: served %q, local %q", series, got[series], v)
			}
		}
	}
	for _, domain := range []string{obs.EnergyDomainGPU, obs.EnergyDomainCPU} {
		key := obs.MetricEnergyMJ + "{" + labels + `,domain="` + domain + `"}`
		want, got := samples(lt, obs.MetricEnergyMJ, labels)[key], samples(st, obs.MetricEnergyMJ, labels)[key]
		var w, g float64
		if _, err := fmt.Sscan(want, &w); err != nil {
			t.Fatalf("local %s: %q", key, want)
		}
		if _, err := fmt.Sscan(got, &g); err != nil {
			t.Fatalf("served %s: %q", key, got)
		}
		if w <= 0 || (g-w)/w > 1e-9 || (w-g)/w > 1e-9 {
			t.Errorf("%s: served %v, local %v", key, g, w)
		}
	}
}

// TestOracleScoresExactlyZero replays four apps through one
// hub-instrumented server on an oracle over all their kernels. The
// scoreboard reads the estimate Feedback returns — the calibrated
// prediction for the executed configuration at the measured counters —
// so a perfect predictor scores exactly 0 on every app, cold start
// included. Scoring the decision-time prediction instead gave
// hybridsort a time MAPE of 0.623.
func TestOracleScoresExactlyZero(t *testing.T) {
	sys := mpcdvfs.NewSystem()
	oracle := predict.NewOracle()
	var apps []*mpcdvfs.App
	for _, name := range []string{"Spmv", "kmeans", "hybridsort", "lbm"} {
		app, err := mpcdvfs.BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range app.Kernels {
			oracle.Register(k)
		}
		apps = append(apps, &app)
	}
	hub := telemetry.NewHub(telemetry.Options{})
	hub.Instrument(metrics.New())
	_, ts := newTestServer(t, sys, oracle, serve.Config{Telemetry: hub})
	for _, app := range apps {
		_, target, err := sys.Baseline(app)
		if err != nil {
			t.Fatal(err)
		}
		c := serve.NewClient(ts.URL)
		if _, err := sys.Run(app, c, target, true); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}

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
	if len(models.Cells) != len(apps) {
		t.Fatalf("%d scoreboard cells, want one per app: %+v", len(models.Cells), models.Cells)
	}
	for _, c := range models.Cells {
		var n int
		for _, app := range apps {
			if app.Name == c.App {
				n = app.Len()
			}
		}
		if c.TimeMAPE != 0 || c.PowerMAPE != 0 || c.TimeBias != 0 || c.PowerBias != 0 {
			t.Errorf("oracle cell %s: time MAPE %v, power MAPE %v, biases %v/%v; want exactly 0",
				c.App, c.TimeMAPE, c.PowerMAPE, c.TimeBias, c.PowerBias)
		}
		if c.Observations != uint64(n) {
			t.Errorf("cell %s scored %d observations, want all %d kernels", c.App, c.Observations, n)
		}
	}
}

// TestSessionChurnLeavesSeriesUnchanged opens and closes 1,000 sessions
// on an instrumented server: no metric series may be left behind per
// session.
func TestSessionChurnLeavesSeriesUnchanged(t *testing.T) {
	srv, err := serve.New(serve.Config{
		Model:     fakeModel{},
		NewPolicy: func(predict.Model) mpcdvfs.Policy { return &nopPolicy{} },
		Telemetry: telemetry.NewHub(telemetry.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	srv.Instrument(reg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Shutdown()
		hs.Close()
	})
	ts := hs.URL
	churn := func(n int) int {
		for i := 0; i < n; i++ {
			code, _, body := post(t, ts, "/v1/session", serve.SessionRequest{App: "x", NumKernels: 4})
			var resp serve.SessionResponse
			if code != http.StatusOK || json.Unmarshal(body, &resp) != nil {
				t.Fatalf("session open: %d %s", code, body)
			}
			if code, _, body := post(t, ts, "/v1/session/close", serve.CloseRequest{SessionID: resp.SessionID}); code != http.StatusOK {
				t.Fatalf("close: %d %s", code, body)
			}
		}
		series := 0
		for _, line := range strings.Split(exposition(t, reg), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				series++
			}
		}
		return series
	}
	before := churn(1)
	if after := churn(1000); after != before {
		t.Fatalf("1,000 opened and closed sessions left %d series, %d before", after, before)
	}
}

// TestAppLabelsBounded serves 300 distinct client-chosen app names: the
// obs series and the scoreboard cells stop growing at 256 apps, and
// later apps report as "other".
func TestAppLabelsBounded(t *testing.T) {
	sys, app, target, model := testStack(t)
	reg := metrics.New()
	hub := telemetry.NewHub(telemetry.Options{})
	hub.Instrument(reg)
	_, ts := newTestServer(t, sys, model, serve.Config{Telemetry: hub})
	const apps = 300
	for i := 0; i < apps; i++ {
		code, _, body := post(t, ts.URL, "/v1/session", serve.SessionRequest{
			App: fmt.Sprintf("app%03d", i), NumKernels: app.Len(), FirstRun: true,
			Target: serve.TargetWire{TotalInsts: target.TotalInsts, TotalTimeMS: target.TotalTimeMS},
		})
		var resp serve.SessionResponse
		if code != http.StatusOK || json.Unmarshal(body, &resp) != nil {
			t.Fatalf("session open: %d %s", code, body)
		}
		mustDecide(t, ts.URL, resp.SessionID, 0)
		if code, _, body := post(t, ts.URL, "/v1/observe", serve.ObserveRequest{SessionID: resp.SessionID, Observation: validObservation(app)}); code != http.StatusOK {
			t.Fatalf("observe: %d %s", code, body)
		}
		if code, _, body := post(t, ts.URL, "/v1/session/close", serve.CloseRequest{SessionID: resp.SessionID}); code != http.StatusOK {
			t.Fatalf("close: %d %s", code, body)
		}
	}

	labels := map[string]bool{}
	for series := range samples(exposition(t, reg), obs.MetricDecisions, `policy="mpc"`) {
		labels[series] = true
	}
	if len(labels) != 257 || !labels[obs.MetricDecisions+`{policy="mpc",app="other"}`] {
		t.Fatalf("%d app series for %d apps, want 256 named and \"other\"", len(labels), apps)
	}
	cells := hub.Scoreboard.Snapshot()
	if len(cells) != 257 {
		t.Fatalf("%d scoreboard cells for %d apps, want 257", len(cells), apps)
	}
	for _, c := range cells {
		if c.App == "other" && c.Observations != apps-256 {
			t.Fatalf("\"other\" cell scored %d observations, want %d", c.Observations, apps-256)
		}
	}
}
