package metrics_test

import (
	"flag"
	"os"
	"strings"
	"testing"

	"mpcdvfs/internal/learn"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/par"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/telemetry"
)

var update = flag.Bool("update", false, "regenerate testdata/families.txt")

// TestFamiliesGolden pins every mpcdvfs_* family, with its kind and
// label names, that mpcserve's full instrumentation registers: the
// worker pool, the obs.Metrics sink served sessions report through,
// the telemetry hub, the decision server, the continuous trainer and
// the forest's sweep-plan counters. A second family for one fact shows
// up here in review.
// Regenerate with -update.
func TestFamiliesGolden(t *testing.T) {
	reg := metrics.New()
	par.Instrument(reg)
	hub := telemetry.NewHub(telemetry.Options{})
	hub.Instrument(reg)
	rfm := &predict.RandomForest{}
	srv, err := serve.New(serve.Config{
		Model:     rfm,
		NewPolicy: func(predict.Model) sim.Policy { return sim.NewTurboCore() },
		Telemetry: hub,
		Learn:     learn.New(learn.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Instrument(reg)
	rfm.InstrumentArenaPool(reg)

	got := strings.Join(metrics.Schema(reg), "\n") + "\n"
	const path = "testdata/families.txt"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("registered families differ from %s (regenerate with -update):\n%s", path, got)
	}
}
