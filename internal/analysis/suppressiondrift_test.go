package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoSuppressionDrift pins the //mpclint:ignore directives on
// production code to the known, argued-for set. New code must satisfy
// the analyzers outright; a suppression only joins this list with a
// justification in its directive text and a deliberate update here.
//
// The scan covers every internal package (not just the decision-path
// wall): hotpath-alloc and determinism-taint suppressions live where
// the annotated hot paths and their slow-path branches live, and each
// one names the AllocsPerRun pin or replay wall that keeps it honest.
func TestNoSuppressionDrift(t *testing.T) {
	root := filepath.Join("..", "..")
	want := map[string]int{
		// rf.go grows trees with bit-exact split decisions; its three
		// float-eq suppressions are the byte-identical-forest guarantee.
		filepath.Join("internal", "rf", "rf.go"): 3,
		// hotpath-alloc: OptimizeWindow's exhaustive-ablation sweep,
		// off the steady-state path, and the window and slot scratch
		// appends, capacity-bounded by the longest window. The search
		// prices through predict.Calibrated's hotpath-proven methods
		// and needs none for them.
		// TestMPCSteadyStateRunZeroAlloc pins the window path.
		filepath.Join("internal", "core", "climb.go"): 3,
		// hotpath-alloc: decideMPC's horizon-change observer call, its
		// window append within the capacity Begin reserves, and the
		// pattern-divergence PPK fallback. The once-per-run deficit
		// pricing calls the Calibrated directly and needs none.
		// TestMPCSteadyStateRunZeroAlloc pins the run.
		filepath.Join("internal", "policy", "mpc.go"): 3,
		// hotpath-alloc: the batched sweep's once-per-space plan build.
		filepath.Join("internal", "predict", "spaceeval.go"): 1,
		// hotpath-alloc: Calibrated.raw's inner-model calls: the split
		// model's time on a memo miss and its power on the first read,
		// or a model without the split form on a miss.
		// TestCalibratedPredictKernelZeroAlloc pins the paths over the
		// forest.
		filepath.Join("internal", "predict", "calibrate.go"): 3,
		// determinism-taint: CHA may-target through serve.Client.Decide
		// (latency-callback timing, not decision input).
		filepath.Join("internal", "sim", "sim.go"): 1,
		// hotpath-alloc: reservoir fill-phase append within the capacity
		// NewReservoir preallocated.
		filepath.Join("internal", "learn", "reservoir.go"): 1,
		// pooled-concurrency: the trainer's long-lived retraining loop.
		filepath.Join("internal", "learn", "learn.go"): 1,
		// float-eq: re-registration demands bit-identical histogram
		// bucket boundaries.
		filepath.Join("internal", "metrics", "metrics.go"): 1,
		// hotpath-alloc: slog observers build attributes only behind the
		// enabled() gate.
		filepath.Join("internal", "obs", "stream.go"): 6,
		// hotpath-alloc: span buffer's first-trace build and the two
		// capacity-bounded appends.
		filepath.Join("internal", "telemetry", "span.go"): 3,
		// pooled-concurrency: the CLI's long-lived HTTP accept loop.
		filepath.Join("internal", "cli", "cli.go"): 1,
	}

	got := map[string]int{}
	dir := filepath.Join(root, "internal")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range entries {
		if !pkg.IsDir() || pkg.Name() == "analysis" {
			// internal/analysis implements the directives; its sources
			// mention them in docs and fixtures, not as suppressions.
			continue
		}
		pkgDir := filepath.Join(dir, pkg.Name())
		files, err := os.ReadDir(pkgDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range files {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(pkgDir, name))
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(data), "//mpclint:ignore"); n > 0 {
				got[filepath.Join("internal", pkg.Name(), name)] = n
			}
		}
	}

	for f, n := range got {
		if want[f] != n {
			t.Errorf("%s carries %d mpclint suppressions, want %d — new code must pass the analyzers unsuppressed (update this pin only with a justified directive)", f, n, want[f])
		}
	}
	for f, n := range want {
		if got[f] != n {
			t.Errorf("%s expected to carry %d suppressions, found %d — if they were removed, update this pin", f, n, got[f])
		}
	}
}
