// Package serve turns the MPC policy stack into a concurrent decision
// service: many client applications stream their kernel launches to one
// process, each over its own session, and get back per-kernel hardware
// configurations with predicted time/power — the paper's controller as
// a multi-tenant inference server.
//
// # Session ownership model
//
// Each session owns one policy instance (with its tracker, pattern
// extractor and calibration state), and that state is touched by one
// operation at a time, under the session's lock, on the goroutine of
// the request that carries the operation. The determinism contract of
// the simulator therefore extends across sessions, not within one: a
// session's decision stream is byte-identical to a single-threaded
// replay of the same workload (golden-tested), no matter how many
// sibling sessions run concurrently; concurrency only exists between
// sessions, which share nothing mutable but internally synchronized
// structures (the model's sweep plan is shared too, but it is immutable
// once installed).
//
// # Snapshot lifecycle
//
// The serving model lives behind an atomic pointer. A session pins the
// snapshot current at creation and keeps it for life — /reload installs
// a new generation without pausing anyone: new sessions see the new
// model, existing sessions finish on the one they started with, and the
// old snapshot is garbage once its last session closes. Policy state
// never mixes models, which would silently break calibration.
//
// # Backpressure and drain
//
// Every client is closed-loop, with at most one operation in flight per
// session, so a session never waits for itself: a request that finds
// its session busy is rejected with HTTP 429 and a Retry-After hint
// instead of blocking the handler. A policy panic closes its session
// alone (500, then 410). Closing a session (or shutting the server
// down) waits for a running operation to finish, so accepted work is
// never dropped.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpcdvfs/internal/learn"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/telemetry"
)

// Snapshot is one immutable generation of the serving model.
type Snapshot struct {
	Gen   uint64
	Model predict.Model
	Tag   string // provenance: file path, "trained seed=N", ...
}

// Config configures a Server.
type Config struct {
	// Model is the initial serving model (generation 1). Required.
	Model predict.Model
	// Tag describes Model's provenance (shown in /reload responses).
	Tag string
	// NewPolicy builds one policy instance per session from a snapshot's
	// model. Required. It must build the exact stack a local replay
	// would use — that identity is what the golden parity test pins.
	NewPolicy func(m predict.Model) sim.Policy
	// Train, when set, builds the model /reload installs. /reload never
	// opens a file the client names: a body with a path gets 400.
	Train func() (predict.Model, error)
	// Telemetry, when set, deep-instruments the server: every decision
	// runs under a trace root (sampled per the hub's tracer); each
	// session and its policy report through the hub's session observer,
	// whose sinks are the obs metrics families, the energy/decision
	// ledger and the per-generation model scoreboard; and Handler
	// additionally mounts the /debug/mpc, /debug/models and /debug/trace
	// endpoints. Nil keeps the serving path telemetry-free.
	Telemetry *telemetry.Hub
	// Learn, when set, closes the learning loop: every /v1/observe
	// ground-truth tuple is offered to the trainer's reservoir, gated
	// promotions publish through Install exactly like an operator
	// /reload, promoted generations get their holdout MAPE as drift
	// baseline, and — when Telemetry is also set — the scoreboard's
	// drift rising edge triggers an immediate training round. Handler
	// additionally mounts /debug/learn. serve.New does the binding; the
	// caller only constructs the trainer and decides whether to Start
	// its periodic loop.
	Learn *learn.Trainer
}

// Server is the concurrent decision service. Create with New, mount
// Handler into an HTTP server, and Shutdown to drain.
type Server struct {
	cfg  Config
	snap atomic.Pointer[Snapshot]
	gen  atomic.Uint64

	mu       sync.Mutex
	sessions map[string]*session
	apps     map[string]bool // app labels handed out, at most maxAppLabels
	nextID   uint64
	draining bool

	m atomic.Pointer[serveMetrics]
}

type serveMetrics struct {
	latency  *metrics.Histogram
	requests *metrics.CounterVec
	active   *metrics.Gauge
	snapGen  *metrics.Gauge
}

// New validates cfg and returns a Server serving cfg.Model as
// generation 1.
func New(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("serve: Config.Model is required")
	}
	if cfg.NewPolicy == nil {
		return nil, fmt.Errorf("serve: Config.NewPolicy is required")
	}
	s := &Server{cfg: cfg, sessions: make(map[string]*session), apps: make(map[string]bool)}
	s.gen.Store(1)
	s.snap.Store(&Snapshot{Gen: 1, Model: cfg.Model, Tag: cfg.Tag})
	if tr := cfg.Learn; tr != nil {
		// Close the loop: gated candidates publish like /reload, the
		// promoted generation's drift baseline is its demonstrated
		// holdout MAPE, and scoreboard drift wakes the trainer.
		var baseline func(gen uint64, timeMAPE, powerMAPE float64)
		if cfg.Telemetry != nil {
			baseline = cfg.Telemetry.Scoreboard.SetBaseline
			cfg.Telemetry.Scoreboard.SetDriftHook(tr.NotifyDrift)
		}
		tr.Bind(s.Install, baseline)
	}
	return s, nil
}

// Instrument mirrors the server's counters into reg: decision latency,
// request outcomes (a 429 is backpressure: the request's session was
// busy), live session count and the installed snapshot generation.
// Call before serving traffic.
func (s *Server) Instrument(reg *metrics.Registry) {
	m := &serveMetrics{
		latency: reg.Histogram("mpcdvfs_serve_decision_latency_ms",
			"Wall time of /v1/decide requests (optimization), in milliseconds.",
			metrics.ExponentialBuckets(0.05, 2, 16)).With(),
		requests: reg.Counter("mpcdvfs_serve_requests_total",
			"Decision-service requests by endpoint and outcome.", "endpoint", "code"),
		active: reg.Gauge("mpcdvfs_serve_sessions_active",
			"Sessions currently open.").With(),
		snapGen: reg.Gauge("mpcdvfs_serve_snapshot_generation",
			"Generation of the model snapshot new sessions receive.").With(),
	}
	m.snapGen.Set(float64(s.gen.Load()))
	s.m.Store(m)
	if s.cfg.Learn != nil {
		s.cfg.Learn.Instrument(reg)
	}
}

// CurrentSnapshot returns the snapshot new sessions would pin now.
func (s *Server) CurrentSnapshot() *Snapshot { return s.snap.Load() }

// Install atomically publishes model as the next snapshot generation
// and returns it. In-flight sessions are untouched.
func (s *Server) Install(model predict.Model, tag string) uint64 {
	gen := s.gen.Add(1)
	s.snap.Store(&Snapshot{Gen: gen, Model: model, Tag: tag})
	if m := s.m.Load(); m != nil {
		m.snapGen.Set(float64(gen))
	}
	return gen
}

// SessionCount returns the number of open sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// Shutdown closes every session, waiting for each one's running
// operation to finish. New sessions and new operations are rejected
// from the moment it is called.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.draining = true
	open := s.sessions
	s.sessions = nil // draining: handleSession publishes nothing more
	s.mu.Unlock()
	for _, sess := range open {
		sess.close() // order-independent: every session gets the same signal
	}
	if m := s.m.Load(); m != nil && len(open) > 0 {
		m.active.Add(-float64(len(open)))
	}
}

// Handler returns the /v1 decision API plus /reload, and — when the
// server has a telemetry hub — the /debug introspection endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/session", s.handleSession)
	mux.HandleFunc("/v1/session/close", s.handleClose)
	mux.HandleFunc("/v1/decide", s.handleDecide)
	mux.HandleFunc("/v1/observe", s.handleObserve)
	mux.HandleFunc("/reload", s.handleReload)
	if s.cfg.Telemetry != nil {
		mux.HandleFunc("/debug/mpc", s.handleDebugMPC)
		mux.HandleFunc("/debug/models", s.handleDebugModels)
		mux.HandleFunc("/debug/trace", s.handleDebugTrace)
	}
	if s.cfg.Learn != nil {
		mux.HandleFunc("/debug/learn", s.handleDebugLearn)
	}
	return mux
}

// writeJSON encodes v and writes it with the given status. It encodes
// before it writes the status, so a value encoding/json refuses gets a
// 500 with an error body, not the status meant for v over an empty one.
// Write errors mean the client went away mid-response; nothing useful
// remains to be done with the connection, so they are dropped
// deliberately.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = json.Marshal(ErrorResponse{Error: "encode reply: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
	_, _ = w.Write(newline)
}

// newline ends every JSON reply, as json.Encoder ends what it encodes.
var newline = []byte{'\n'}

func (s *Server) count(endpoint string, status int) {
	if m := s.m.Load(); m != nil {
		m.requests.With(endpoint, strconv.Itoa(status)).Inc()
	}
}

func (s *Server) fail(w http.ResponseWriter, endpoint string, status int, msg string) {
	s.count(endpoint, status)
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// refuse answers an operation session.do did not run to completion:
// busy is backpressure (429 with a Retry-After hint, counted as the
// endpoint's 429), closed is 410, and a panicking operation is 500.
func (s *Server) refuse(w http.ResponseWriter, endpoint string, err error) {
	switch err {
	case errSessionBusy:
		w.Header().Set("Retry-After", "1")
		s.fail(w, endpoint, http.StatusTooManyRequests, "session busy")
	case errSessionClosed:
		s.fail(w, endpoint, http.StatusGone, "session closed")
	default:
		s.fail(w, endpoint, http.StatusInternalServerError, err.Error())
	}
}

// maxBodyBytes bounds every request body. The largest valid request,
// an observation, is well under a kilobyte; a body past the bound gets
// a 413 before the server buffers any more of it.
const maxBodyBytes = 1 << 20

// maxNumKernels bounds the kernel count a session may declare. Real
// applications run thousands of kernels at most; a larger count gets a
// 400 at session open.
const maxNumKernels = 1 << 20

// decodeBody decodes a POST body into v. When it cannot, it writes the
// error reply and returns its status; 0 means v holds the request.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) int {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST required"})
		return http.StatusMethodNotAllowed
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, ErrorResponse{Error: "bad request body: " + err.Error()})
		return status
	}
	return 0
}

// indexError explains a kernel index outside the session's run.
func indexError(index, numKernels int) string {
	return fmt.Sprintf("index %d lies outside the session's %d kernels", index, numKernels)
}

func (s *Server) lookup(id string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if status := decodeBody(w, r, &req); status != 0 {
		s.count("session", status)
		return
	}
	if req.NumKernels <= 0 || req.NumKernels > maxNumKernels {
		s.fail(w, "session", http.StatusBadRequest, fmt.Sprintf("num_kernels must lie in [1, %d]", maxNumKernels))
		return
	}
	snap := s.snap.Load()
	s.mu.Lock()
	s.nextID++
	id := "s" + strconv.FormatUint(s.nextID, 10)
	app := s.appLabelLocked(req.App)
	s.mu.Unlock()

	sess := newSession(s.cfg.NewPolicy(snap.Model), snap)
	sess.app, sess.numKernels = app, req.NumKernels
	if hub := s.cfg.Telemetry; hub != nil {
		sess.tc = hub.Tracer.NewContext(id)
		sess.obsv = hub.SessionObserver(id, snap.Gen)
	}
	info := sim.RunInfo{
		AppName:    app,
		NumKernels: req.NumKernels,
		Target:     sim.Target{TotalInsts: req.Target.TotalInsts, TotalTimeMS: req.Target.TotalTimeMS},
		FirstRun:   req.FirstRun,
	}
	// The session is still private, so do never finds it busy; it runs
	// Begin for its recover. The trace context and the observer are
	// threaded before Begin, exactly as sim.Engine.Run threads them.
	if err := sess.do(func() {
		if tr, ok := sess.policy.(telemetry.Traceable); ok {
			tr.SetTraceContext(sess.tc)
		}
		if in, ok := sess.policy.(obs.Instrumentable); ok {
			in.SetObserver(sess.obsv)
		}
		sess.policy.Begin(info)
	}); err != nil {
		s.refuse(w, "session", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.fail(w, "session", http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.sessions[id] = sess
	s.mu.Unlock()

	if m := s.m.Load(); m != nil {
		m.active.Add(1)
	}
	s.count("session", http.StatusOK)
	writeJSON(w, http.StatusOK, SessionResponse{SessionID: id, Policy: sess.name, SnapshotGen: snap.Gen})
}

// maxAppLabels bounds the distinct app labels served events carry — the
// ledger's session bound — because the client names the app and every
// label is a metrics series and a scoreboard cell per generation.
const maxAppLabels = 256

// appLabelLocked returns the label a session of app reports under: the
// app itself while fewer than maxAppLabels distinct apps have been
// served, "other" after that. It is applied once, at session open, and
// the policy's own events carry it too. Caller holds s.mu.
func (s *Server) appLabelLocked(app string) string {
	if !s.apps[app] && len(s.apps) >= maxAppLabels {
		return "other"
	}
	s.apps[app] = true
	return app
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	var req DecideRequest
	if status := decodeBody(w, r, &req); status != 0 {
		s.count("decide", status)
		return
	}
	sess, ok := s.lookup(req.SessionID)
	if !ok {
		s.fail(w, "decide", http.StatusNotFound, "unknown session "+req.SessionID)
		return
	}
	if req.Index < 0 || req.Index >= sess.numKernels {
		s.fail(w, "decide", http.StatusBadRequest, indexError(req.Index, sess.numKernels))
		return
	}
	start := time.Now()
	var d sim.Decision
	if err := sess.do(func() {
		root := sess.tc.StartRoot(telemetry.SpanDecide, req.Index)
		d = sess.policy.Decide(req.Index)
		root.End()
		sess.lastIdx, sess.lastD = req.Index, d // for its observation to report
	}); err != nil {
		s.refuse(w, "decide", err)
		return
	}
	if m := s.m.Load(); m != nil {
		m.latency.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
	s.count("decide", http.StatusOK)
	writeJSON(w, http.StatusOK, toDecideResponse(d, sess.snap.Gen).wire())
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req ObserveRequest
	if status := decodeBody(w, r, &req); status != 0 {
		s.count("observe", status)
		return
	}
	if err := req.Observation.check(); err != nil {
		s.fail(w, "observe", http.StatusBadRequest, err.Error())
		return
	}
	sess, ok := s.lookup(req.SessionID)
	if !ok {
		s.fail(w, "observe", http.StatusNotFound, "unknown session "+req.SessionID)
		return
	}
	if i := req.Observation.Index; i < 0 || i >= sess.numKernels {
		s.fail(w, "observe", http.StatusBadRequest, indexError(i, sess.numKernels))
		return
	}
	ob := req.Observation.observation()
	if err := sess.do(func() {
		sess.report(ob)
		sess.policy.Observe(ob)
		if tr := s.cfg.Learn; tr != nil {
			// The reservoir tap: every served ground-truth tuple is
			// training signal, whether or not it scored a prediction.
			// Trainer.Add is internally synchronized and allocation-free
			// at steady state, so the session's lock is barely held longer.
			tr.Add(predict.Sample{Counters: ob.Counters, Config: ob.Config,
				TimeMS: ob.TimeMS, GPUPowerW: ob.GPUPowerW})
		}
	}); err != nil {
		s.refuse(w, "observe", err)
		return
	}
	s.count("observe", http.StatusOK)
	writeJSON(w, http.StatusOK, OKResponse{OK: true})
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	var req CloseRequest
	if status := decodeBody(w, r, &req); status != 0 {
		s.count("close", status)
		return
	}
	s.mu.Lock()
	sess, ok := s.sessions[req.SessionID]
	if ok {
		delete(s.sessions, req.SessionID)
	}
	s.mu.Unlock()
	if !ok {
		s.fail(w, "close", http.StatusNotFound, "unknown session "+req.SessionID)
		return
	}
	sess.close() // waits for a running operation
	if m := s.m.Load(); m != nil {
		m.active.Add(-1)
	}
	s.count("close", http.StatusOK)
	writeJSON(w, http.StatusOK, OKResponse{OK: true})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req ReloadRequest
	if status := decodeBody(w, r, &req); status != 0 {
		s.count("reload", status)
		return
	}
	if req.Path != "" {
		s.fail(w, "reload", http.StatusBadRequest, "reload takes no path: the server never opens a file a client names")
		return
	}
	if s.cfg.Train == nil {
		s.fail(w, "reload", http.StatusNotImplemented, "server has no model source to reload from")
		return
	}
	model, err := s.cfg.Train()
	if err != nil {
		s.fail(w, "reload", http.StatusInternalServerError, "reload: "+err.Error())
		return
	}
	gen := s.Install(model, "reloaded")
	s.count("reload", http.StatusOK)
	writeJSON(w, http.StatusOK, ReloadResponse{SnapshotGen: gen, Model: model.Name()})
}
