package serve

import (
	"html/template"
	"net/http"
	"sort"
	"strings"

	"mpcdvfs/internal/learn"
	"mpcdvfs/internal/telemetry"
)

// debugRecentSpans bounds the span tail /debug/mpc inlines; the full
// ring is always available from /debug/trace.
const debugRecentSpans = 64

// DebugSession is one live session row of /debug/mpc.
type DebugSession struct {
	SessionID   string `json:"session_id"`
	Policy      string `json:"policy"`
	App         string `json:"app"`
	SnapshotGen uint64 `json:"snapshot_gen"`
}

// DebugState is the /debug/mpc body: one self-contained view of the
// serving process — live sessions, the installed model, per-generation
// prediction quality, the energy/decision ledger, and the tail of the
// span ring.
type DebugState struct {
	SnapshotGen  uint64                   `json:"snapshot_gen"`
	SnapshotTag  string                   `json:"snapshot_tag"`
	Model        string                   `json:"model"`
	Sessions     []DebugSession           `json:"sessions"`
	Models       []telemetry.CellSnapshot `json:"models"`
	Accounting   telemetry.Snapshot       `json:"accounting"`
	TraceSampleN int                      `json:"trace_sample_n"`
	TraceRoots   uint64                   `json:"trace_roots"`
	TraceSampled uint64                   `json:"trace_sampled"`
	RecentSpans  []telemetry.SpanRecord   `json:"recent_spans"`
}

// debugState assembles the current DebugState. Only called when the
// server has a telemetry hub.
func (s *Server) debugState() DebugState {
	hub := s.cfg.Telemetry
	snap := s.snap.Load()
	st := DebugState{
		SnapshotGen:  snap.Gen,
		SnapshotTag:  snap.Tag,
		Model:        snap.Model.Name(),
		Models:       hub.Scoreboard.Snapshot(),
		Accounting:   hub.Accounting.Snapshot(),
		TraceSampleN: hub.Tracer.SampleN(),
	}
	st.TraceRoots, st.TraceSampled = hub.Tracer.Stats()

	s.mu.Lock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		sess := s.sessions[id]
		st.Sessions = append(st.Sessions, DebugSession{
			SessionID:   id,
			Policy:      sess.name,
			App:         sess.app,
			SnapshotGen: sess.snap.Gen,
		})
	}
	s.mu.Unlock()

	spans := hub.Tracer.Snapshot(nil)
	if len(spans) > debugRecentSpans {
		spans = spans[len(spans)-debugRecentSpans:]
	}
	st.RecentSpans = spans
	return st
}

var debugMPCTmpl = template.Must(template.New("mpc").Funcs(template.FuncMap{
	// us converts span nanoseconds to microseconds for the HTML view.
	"us": func(ns int64) float64 { return float64(ns) / 1e3 },
}).Parse(`<!doctype html>
<title>mpcdvfs /debug/mpc</title>
<style>body{font-family:monospace}table{border-collapse:collapse}td,th{border:1px solid #999;padding:2px 8px;text-align:left}</style>
<h1>mpcdvfs serving state</h1>
<p>model <b>{{.Model}}</b> gen <b>{{.SnapshotGen}}</b> ({{.SnapshotTag}})
&mdash; trace 1/{{.TraceSampleN}}: {{.TraceSampled}}/{{.TraceRoots}} decisions sampled</p>
<h2>sessions ({{len .Sessions}})</h2>
<table><tr><th>id</th><th>policy</th><th>app</th><th>gen</th></tr>
{{range .Sessions}}<tr><td>{{.SessionID}}</td><td>{{.Policy}}</td><td>{{.App}}</td><td>{{.SnapshotGen}}</td></tr>
{{end}}</table>
<h2>model scoreboard</h2>
<table><tr><th>gen</th><th>app</th><th>obs</th><th>time MAPE</th><th>power MAPE</th><th>time bias</th><th>drifted</th></tr>
{{range .Models}}<tr><td>{{.Gen}}</td><td>{{.App}}</td><td>{{.Observations}}</td><td>{{printf "%.4f" .TimeMAPE}}</td><td>{{printf "%.4f" .PowerMAPE}}</td><td>{{printf "%+.4f" .TimeBias}}</td><td>{{.Drifted}}</td></tr>
{{end}}</table>
<h2>energy ledger</h2>
<table><tr><th>session</th><th>decisions</th><th>fallbacks</th><th>predicted mJ</th><th>measured mJ</th></tr>
{{range .Accounting.Sessions}}<tr><td>{{.SessionID}}</td><td>{{.Decisions}}</td><td>{{.Fallbacks}}</td><td>{{printf "%.1f" .PredictedEnergyMJ}}</td><td>{{printf "%.1f" .MeasuredEnergyMJ}}</td></tr>
{{end}}</table>
<h2>recent spans ({{len .RecentSpans}})</h2>
<table><tr><th>trace</th><th>span</th><th>parent</th><th>name</th><th>session</th><th>index</th><th>&micro;s</th></tr>
{{range .RecentSpans}}<tr><td>{{.TraceID}}</td><td>{{.SpanID}}</td><td>{{.ParentID}}</td><td>{{.Name}}</td><td>{{.Session}}</td><td>{{.Index}}</td><td>{{printf "%.1f" (us .DurNS)}}</td></tr>
{{end}}</table>
`))

// handleDebugMPC serves the full introspection view: JSON by default,
// minimal HTML with ?format=html (or an Accept header preferring it).
func (s *Server) handleDebugMPC(w http.ResponseWriter, r *http.Request) {
	st := s.debugState()
	wantsHTML := r.URL.Query().Get("format") == "html" ||
		strings.Contains(r.Header.Get("Accept"), "text/html")
	if !wantsHTML {
		s.count("debug_mpc", http.StatusOK)
		writeJSON(w, http.StatusOK, st)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := debugMPCTmpl.Execute(w, st); err != nil {
		// Execute only fails once the body started streaming; the
		// connection is unusable, nothing more to do.
		return
	}
	s.count("debug_mpc", http.StatusOK)
}

// handleDebugModels serves the model-quality scoreboard alone — the
// endpoint a drift watcher polls.
func (s *Server) handleDebugModels(w http.ResponseWriter, r *http.Request) {
	hub := s.cfg.Telemetry
	s.count("debug_models", http.StatusOK)
	writeJSON(w, http.StatusOK, struct {
		SnapshotGen uint64                   `json:"snapshot_gen"`
		Cells       []telemetry.CellSnapshot `json:"cells"`
	}{SnapshotGen: s.gen.Load(), Cells: hub.Scoreboard.Snapshot()})
}

// handleDebugLearn serves the continuous trainer's state: by default
// the Status JSON (reservoir fill, round/promotion/rejection counts,
// last holdout MAPEs); with ?format=samples, the current reservoir
// contents as a JSONL snapshot — the format learn.ReadSnapshot parses,
// so an operator can capture live training data for offline replay.
func (s *Server) handleDebugLearn(w http.ResponseWriter, r *http.Request) {
	tr := s.cfg.Learn
	if r.URL.Query().Get("format") == "samples" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		s.count("debug_learn", http.StatusOK)
		// An encode error means the client went away mid-stream.
		_ = learn.WriteSnapshot(w, tr.SnapshotSamples())
		return
	}
	s.count("debug_learn", http.StatusOK)
	writeJSON(w, http.StatusOK, struct {
		SnapshotGen uint64       `json:"snapshot_gen"`
		Learn       learn.Status `json:"learn"`
	}{SnapshotGen: s.gen.Load(), Learn: tr.Status()})
}

// handleDebugTrace dumps the span ring as JSONL, oldest first — the
// same format telemetry.ReadSpansJSONL parses, so clients (cmd/loadgen)
// can reconstruct per-phase latency breakdowns.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	recs := s.cfg.Telemetry.Tracer.Snapshot(nil)
	w.Header().Set("Content-Type", "application/x-ndjson")
	s.count("debug_trace", http.StatusOK)
	_ = telemetry.WriteSpansJSONL(w, recs)
}
