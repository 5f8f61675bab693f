package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"mpcdvfs"
	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/telemetry"
)

// openSession opens a profiling-run session for app over the real mux
// and returns its id.
func openSession(t testing.TB, base string, app *mpcdvfs.App, target mpcdvfs.Target) string {
	t.Helper()
	code, _, body := post(t, base, "/v1/session", serve.SessionRequest{
		App: app.Name, NumKernels: app.Len(), FirstRun: true,
		Target: serve.TargetWire{TotalInsts: target.TotalInsts, TotalTimeMS: target.TotalTimeMS},
	})
	if code != http.StatusOK {
		t.Fatalf("open session: %d %s", code, body)
	}
	var resp serve.SessionResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.SessionID
}

// mustDecide asks the session for decision index and requires a 200
// whose body decodes to a decision.
func mustDecide(t testing.TB, base, id string, index int) serve.DecideResponse {
	t.Helper()
	code, _, body := post(t, base, "/v1/decide", serve.DecideRequest{SessionID: id, Index: index})
	if code != http.StatusOK {
		t.Fatalf("decide %d on session %s: %d %s", index, id, code, body)
	}
	var d serve.DecideResponse
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatalf("decide %d on session %s: reply %q does not decode: %v", index, id, body, err)
	}
	return d
}

// validObservation is a well-formed measurement of kernel 0 of app at
// the fail-safe configuration.
func validObservation(app *mpcdvfs.App) serve.ObservationWire {
	cs := app.Kernels[0].Counters()
	fs := hw.FailSafe()
	return serve.ObservationWire{
		Counters: cs[:], Insts: 1e6, TimeMS: 2.5, GPUPowerW: 30, CPUPowerW: 10,
		Config: serve.ConfigWire{CPU: int8(fs.CPU), NB: int8(fs.NB), GPU: int8(fs.GPU), CUs: fs.CUs},
	}
}

// TestObserveRejectsInvalid posts observations the policy cannot take
// — configurations outside the hardware tables, counter vectors of the
// wrong length, negative measurements and indices outside the run —
// through the real mux over the committed forest, on a server whose
// hub feeds the metrics registry. Each gets a 400 and never reaches the
// session, which keeps serving; so does a body past the size bound,
// which gets a 413. Unchecked, a DPM state of 77 indexes
// past the hw tables inside the session's operation, and a negative
// power reaches a counter's Add; either panic closes the session.
func TestObserveRejectsInvalid(t *testing.T) {
	sys, app, target, _ := testStack(t)
	hub := telemetry.NewHub(telemetry.Options{})
	hub.Instrument(metrics.New())
	_, ts := newTestServer(t, sys, loadGoldenModel(t), serve.Config{Telemetry: hub})
	id := openSession(t, ts.URL, app, target)
	observe := func(o serve.ObservationWire) (int, []byte) {
		code, _, body := post(t, ts.URL, "/v1/observe", serve.ObserveRequest{SessionID: id, Observation: o})
		return code, body
	}

	// A predicted decision, then its observation at -1000 W.
	mustDecide(t, ts.URL, id, 0)
	if code, body := observe(validObservation(app)); code != http.StatusOK {
		t.Fatalf("observe 0: %d %s", code, body)
	}
	mustDecide(t, ts.URL, id, 1)
	o := validObservation(app)
	o.Index, o.GPUPowerW = 1, -1000
	if code, body := observe(o); code != http.StatusBadRequest {
		t.Fatalf("observe 1 at -1000 W: %d %s, want 400", code, body)
	}
	mustDecide(t, ts.URL, id, 2)

	for _, tc := range []struct {
		name string
		edit func(*serve.ObservationWire)
	}{
		{"gpu 77", func(o *serve.ObservationWire) { o.Config.GPU = 77 }},
		{"cpu -1", func(o *serve.ObservationWire) { o.Config.CPU = -1 }},
		{"cus 3", func(o *serve.ObservationWire) { o.Config.CUs = 3 }},
		{"0 counters", func(o *serve.ObservationWire) { o.Counters = nil }},
		{"11 counters", func(o *serve.ObservationWire) { o.Counters = append(o.Counters, 1, 2, 3) }},
		{"negative counter", func(o *serve.ObservationWire) { o.Counters[3] = -1 }},
		{"negative insts", func(o *serve.ObservationWire) { o.Insts = -1 }},
		{"negative time", func(o *serve.ObservationWire) { o.TimeMS = -2.5 }},
		{"negative cpu power", func(o *serve.ObservationWire) { o.CPUPowerW = -1e308 }},
		{"negative overhead", func(o *serve.ObservationWire) { o.OverheadMS = -0.1 }},
		{"index -5", func(o *serve.ObservationWire) { o.Index = -5 }},
		{"index num_kernels", func(o *serve.ObservationWire) { o.Index = app.Len() }},
	} {
		o := validObservation(app)
		o.Index = 2
		tc.edit(&o)
		if code, body := observe(o); code != http.StatusBadRequest {
			t.Fatalf("%s: %d %s, want 400", tc.name, code, body)
		}
	}
	o = validObservation(app)
	o.Index = 2
	if code, body := observe(o); code != http.StatusOK {
		t.Fatalf("valid observation: %d %s", code, body)
	}
	// A body past the size bound, declared (Content-Length) and chunked:
	// its 2 MB session id is read no further than the bound allows.
	huge := `{"session_id":"` + strings.Repeat("x", 2<<20) + `"}`
	for _, body := range []io.Reader{strings.NewReader(huge), io.MultiReader(strings.NewReader(huge))} {
		resp, err := http.Post(ts.URL+"/v1/observe", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized observe body: %d %.200s, want 413", resp.StatusCode, reply)
		}
	}
	mustDecide(t, ts.URL, id, 3)
}

// TestOverflowingObservationDecidesFailSafe posts, through the real mux
// over the committed forest, observations whose VALUInsts ×
// GlobalWorkSize overflows — every counter at 1e308, or just those two
// at 1e200 — so the forest prices the kernel at +Inf. Calibration must
// not turn that into a ratio of 0 and NaN times, which meet every
// headroom: the next decide is a 200 whose body decodes to the
// fail-safe configuration with the +Inf time, and the session keeps
// serving.
func TestOverflowingObservationDecidesFailSafe(t *testing.T) {
	sys, app, target, _ := testStack(t)
	_, ts := newTestServer(t, sys, loadGoldenModel(t), serve.Config{})
	fs := hw.DefaultSpace().Clamp(hw.FailSafe())
	for _, tc := range []struct {
		name string
		edit func([]float64)
	}{
		{"every counter 1e308", func(cs []float64) {
			for i := range cs {
				cs[i] = 1e308
			}
		}},
		{"work volume 1e200 × 1e200", func(cs []float64) {
			cs[counters.VALUInsts], cs[counters.GlobalWorkSize] = 1e200, 1e200
		}},
	} {
		id := openSession(t, ts.URL, app, target)
		mustDecide(t, ts.URL, id, 0)
		o := validObservation(app)
		tc.edit(o.Counters)
		if code, _, body := post(t, ts.URL, "/v1/observe", serve.ObserveRequest{SessionID: id, Observation: o}); code != http.StatusOK {
			t.Fatalf("%s: observe: %d %s", tc.name, code, body)
		}
		d := mustDecide(t, ts.URL, id, 1)
		if got := d.Config; got != (serve.ConfigWire{CPU: int8(fs.CPU), NB: int8(fs.NB), GPU: int8(fs.GPU), CUs: fs.CUs}) {
			t.Fatalf("%s: decided %+v, want the fail-safe %v", tc.name, got, fs)
		}
		if tm := float64(d.Est.TimeMS); !math.IsInf(tm, 1) {
			t.Fatalf("%s: decided time %v, want +Inf", tc.name, tm)
		}
		mustDecide(t, ts.URL, id, 2)
	}
}

// FuzzObserveHandler posts fuzzer-built observation bodies to a live
// session over the committed forest, on a server whose hub feeds the
// metrics registry and whose trainer's reservoir taps every observe.
// Whatever the body, the reply is a 200 or a 4xx — never a 5xx or a
// dead process — a body carrying a negative measurement gets a 400,
// the session still answers its next decide with a 200, and every
// sample the reservoir stores has a finite time target.
func FuzzObserveHandler(f *testing.F) {
	sys, app, target, _ := testStack(f)
	hub := telemetry.NewHub(telemetry.Options{})
	hub.Instrument(metrics.New())
	tr := newTestTrainer(nil)
	_, ts := newTestServer(f, sys, loadGoldenModel(f), serve.Config{Telemetry: hub, Learn: tr})

	seed := func(edit func(*serve.ObservationWire)) {
		o := validObservation(app)
		edit(&o)
		b, err := json.Marshal(o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(func(*serve.ObservationWire) {})
	seed(func(o *serve.ObservationWire) { o.Config.GPU = 77 })
	seed(func(o *serve.ObservationWire) { o.Config.CPU = -1 })
	seed(func(o *serve.ObservationWire) { o.Config.CUs = 3 })
	seed(func(o *serve.ObservationWire) { o.Counters = nil })
	seed(func(o *serve.ObservationWire) { o.Counters = append(o.Counters, 1, 2, 3) })
	seed(func(o *serve.ObservationWire) {
		for i := range o.Counters {
			o.Counters[i] = 1e308
		}
	})
	seed(func(o *serve.ObservationWire) {
		for i := range o.Counters {
			o.Counters[i] = -1e308
		}
		o.GPUPowerW, o.CPUPowerW = -1e308, -5
	})
	seed(func(o *serve.ObservationWire) { o.GPUPowerW, o.TimeMS, o.Index = -30, 0, -5 })
	f.Add([]byte(`{"config":{"cpu":0,"nb":0,"gpu":77,"cus":8}}`))
	f.Add([]byte(`{"counters":[1,2,3,4,5,6,7,8],"config":{"cpu":127,"nb":-128,"gpu":4,"cus":8}}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, observation []byte) {
		id := openSession(t, ts.URL, app, target)
		mustDecide(t, ts.URL, id, 0)
		body := append([]byte(`{"session_id":"`+id+`","observation":`), observation...)
		body = append(body, '}')
		resp, err := http.Post(ts.URL+"/v1/observe", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK && (resp.StatusCode < 400 || resp.StatusCode >= 500) {
			t.Fatalf("observe %q: %d %s, want 200 or 4xx", observation, resp.StatusCode, reply)
		}
		var o serve.ObservationWire
		if json.Unmarshal(observation, &o) == nil && negativeMeasurement(o) && resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("observe %q with a negative measurement: %d %s, want 400", observation, resp.StatusCode, reply)
		}
		mustDecide(t, ts.URL, id, 1)
		if code, _, reply := post(t, ts.URL, "/v1/session/close", serve.CloseRequest{SessionID: id}); code != http.StatusOK {
			t.Fatalf("close: %d %s", code, reply)
		}
		for _, s := range tr.SnapshotSamples() {
			if !finiteTimeTarget(s) {
				t.Fatalf("observe %q: the reservoir stores %+v, whose time target is not finite", observation, s)
			}
		}
	})
}

// finiteTimeTarget reports whether s's time-forest training target, the
// log of its time per instruction (VALUInsts × GlobalWorkSize, or 1
// when that product is not positive), is finite.
func finiteTimeTarget(s predict.Sample) bool {
	insts := s.Counters[counters.VALUInsts] * s.Counters[counters.GlobalWorkSize]
	if insts <= 0 {
		insts = 1
	}
	target := math.Log(s.TimeMS / insts)
	return !math.IsInf(target, 0) && !math.IsNaN(target)
}

// negativeMeasurement reports whether o carries a negative counter,
// instruction count, time, power or overhead.
func negativeMeasurement(o serve.ObservationWire) bool {
	for _, v := range o.Counters {
		if v < 0 {
			return true
		}
	}
	return o.Insts < 0 || o.TimeMS < 0 || o.GPUPowerW < 0 || o.CPUPowerW < 0 || o.OverheadMS < 0
}
