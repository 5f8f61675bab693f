package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// expectedJSON records the per-app decision digests of both workloads.
// serve-sweep's digest covers one profiling run per app (every served
// run must equal it), whatever the pass count. replay-steady's covers
// every steady-state run of the app, so it is recorded per pass count:
// the fixed work of the benchmark's run_seconds and of each half of its
// traced run.
//
//go:embed expected.json
var expectedJSON []byte

type expectation struct {
	Passes int               `json:"passes,omitempty"` // 0: any pass count
	Apps   map[string]string `json:"apps"`
}

// checkDigests compares per-app digests (suite order) with the record
// for workload. It returns the indices of mismatching apps, and
// checked=false when nothing is recorded for this pass count.
func checkDigests(workload string, passes int, suite []suiteApp, got []digest) (bad []int, checked bool, err error) {
	var all map[string][]expectation
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, false, fmt.Errorf("expected.json: %w", err)
	}
	var exp *expectation
	for i, e := range all[workload] {
		if e.Passes == 0 || e.Passes == passes {
			exp = &all[workload][i]
		}
	}
	if exp == nil {
		return nil, false, nil
	}
	for i, s := range suite {
		if exp.Apps[s.app.Name] != got[i].String() {
			bad = append(bad, i)
		}
	}
	return bad, true, nil
}

// logDigests prints the per-app digests in expected.json's shape.
func logDigests(workload string, passes int, suite []suiteApp, got []digest) {
	apps := make(map[string]string, len(suite))
	for i, s := range suite {
		apps[s.app.Name] = got[i].String()
	}
	line, _ := json.Marshal(expectation{Passes: passes, Apps: apps})
	logf("%s digests: %s (run digest %s)", workload, line, combine(got))
}
