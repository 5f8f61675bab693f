package app

import "fix/internal/telemetry"

func trace(tc *telemetry.Context, phase string) {
	root := tc.StartRoot("decide", 0)     // want `span name "decide" violates the naming contract`
	sp := tc.Start("mpcdvfs_Search")      // want `span name "mpcdvfs_Search" violates the naming contract`
	feat := tc.Start("mpcdvfs-featurize") // want `span name "mpcdvfs-featurize" violates the naming contract`
	feat.End()
	t0 := tc.StartPhase()
	tc.EndPhase("mpcdvfs_"+phase, t0) // want `not a compile-time constant`
	sp.End()
	root.End()
}
