package app

import "fix/internal/telemetry"

// trace uses the exported Span* constants (or conforming literals); a
// same-named method on an unrelated type is not a span mint.
func trace(tc *telemetry.Context, log *logger) {
	root := tc.StartRoot(telemetry.SpanDecide, 0)
	sp := tc.Start(telemetry.SpanSearch)
	feat := tc.Start("mpcdvfs_featurize")
	feat.End()
	t0 := tc.StartPhase()
	tc.EndPhase("mpcdvfs_forest_eval", t0)
	sp.End()
	root.End()
	log.Start("anything goes: not the trace context")
}

type logger struct{}

func (l *logger) Start(name string) {}
