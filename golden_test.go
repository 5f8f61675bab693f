package mpcdvfs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mpcdvfs"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/rf"
	"mpcdvfs/internal/telemetry"
	"mpcdvfs/internal/trace"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden (model and expected replay)")

// goldenRecord is one kernel decision in the golden replay. Floats are
// stored as %.6g strings so the file survives encoding round trips and
// diffs readably; the simulation itself is fully deterministic, so
// equality at 6 significant digits only ever breaks when behaviour
// actually changes.
type goldenRecord struct {
	Kernel   string `json:"kernel"`
	Config   string `json:"config"`
	Evals    int    `json:"evals"`
	TimeMS   string `json:"time_ms"`
	EnergyMJ string `json:"energy_mj"`
}

type goldenRun struct {
	Records       []goldenRecord `json:"records"`
	TotalTimeMS   string         `json:"total_time_ms"`
	TotalEnergyMJ string         `json:"total_energy_mj"`
}

type goldenReplay struct {
	App  string      `json:"app"`
	Runs []goldenRun `json:"runs"`
}

func g6(v float64) string { return fmt.Sprintf("%.6g", v) }

func snapshot(app string, results []*mpcdvfs.Result) goldenReplay {
	gr := goldenReplay{App: app}
	for _, res := range results {
		run := goldenRun{
			TotalTimeMS:   g6(res.TotalTimeMS()),
			TotalEnergyMJ: g6(res.TotalEnergyMJ()),
		}
		for _, rec := range res.Records {
			run.Records = append(run.Records, goldenRecord{
				Kernel:   rec.Kernel,
				Config:   rec.Config.String(),
				Evals:    rec.Evals,
				TimeMS:   g6(rec.TimeMS),
				EnergyMJ: g6(rec.GPUEnergyMJ + rec.CPUEnergyMJ),
			})
		}
		gr.Runs = append(gr.Runs, run)
	}
	return gr
}

// TestGoldenMPCReplay replays the committed model through the full MPC
// pipeline (baseline, profiling run, steady-state run) and compares
// every decision against testdata/golden/golden.json. Any behavioural
// change to the predictor, optimizer, tracker, horizon or engine shows
// up here as a readable diff; refresh intentionally with
//
//	go test -run TestGoldenMPCReplay -update
func TestGoldenMPCReplay(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	modelPath := filepath.Join(dir, "model.bin")
	goldenPath := filepath.Join(dir, "golden.json")

	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		opt := mpcdvfs.DefaultTrainOptions(20170204)
		opt.NumKernels = 12
		opt.Forest = rf.Config{
			NumTrees: 8, MaxDepth: 8, MinLeaf: 2, NumThresh: 12,
			SampleFrac: 1.0, Seed: 20170204,
		}
		m, err := predict.TrainRandomForest(opt)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(modelPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := predict.SaveModel(f, m); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	mf, err := os.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	model, err := predict.LoadModel(mf)
	mf.Close()
	if err != nil {
		t.Fatal(err)
	}

	const appName = "Spmv"
	sys := mpcdvfs.NewSystem()
	app, err := mpcdvfs.BenchmarkByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	_, target, err := sys.Baseline(&app)
	if err != nil {
		t.Fatal(err)
	}
	results, err := sys.RunRepeated(&app, sys.NewMPC(model), target, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := snapshot(appName, results)

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden files regenerated under %s", dir)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want goldenReplay
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	if got.App != want.App || len(got.Runs) != len(want.Runs) {
		t.Fatalf("replay shape changed: app %q runs %d, want %q / %d",
			got.App, len(got.Runs), want.App, len(want.Runs))
	}
	for r := range want.Runs {
		w, g := want.Runs[r], got.Runs[r]
		if len(g.Records) != len(w.Records) {
			t.Fatalf("run %d: %d records, want %d", r, len(g.Records), len(w.Records))
		}
		for i := range w.Records {
			if g.Records[i] != w.Records[i] {
				t.Errorf("run %d kernel %d drifted:\n got %+v\nwant %+v (refresh with -update if intended)",
					r, i, g.Records[i], w.Records[i])
			}
		}
		if g.TotalTimeMS != w.TotalTimeMS || g.TotalEnergyMJ != w.TotalEnergyMJ {
			t.Errorf("run %d totals drifted: %s ms / %s mJ, want %s / %s",
				r, g.TotalTimeMS, g.TotalEnergyMJ, w.TotalTimeMS, w.TotalEnergyMJ)
		}
	}
}

// TestGoldenCompiledVsTreeWalk replays the committed model through the
// full MPC pipeline twice — once as served, on the compiled forests
// LoadModel builds, and once on the tree-walk reference over the same
// file's decoded forests — and requires the two JSONL traces to be
// byte-identical. This is the end-to-end statement of the compiled
// contract: which inference engine runs is unobservable in any output.
func TestGoldenCompiledVsTreeWalk(t *testing.T) {
	modelPath := filepath.Join("testdata", "golden", "model.bin")

	replay := func(compiled bool) []byte {
		t.Helper()
		mf, err := os.Open(modelPath)
		if err != nil {
			t.Fatalf("%v (regenerate with go test -run TestGoldenMPCReplay -update)", err)
		}
		var model predict.Model
		if compiled {
			model, err = predict.LoadModel(mf)
		} else {
			var tf, pf *rf.Forest
			if tf, pf, err = predict.ReadForests(mf); err == nil {
				model, err = predict.NewTreeWalk(tf, pf)
			}
		}
		mf.Close()
		if err != nil {
			t.Fatal(err)
		}

		sys := mpcdvfs.NewSystem()
		app, err := mpcdvfs.BenchmarkByName("Spmv")
		if err != nil {
			t.Fatal(err)
		}
		_, target, err := sys.Baseline(&app)
		if err != nil {
			t.Fatal(err)
		}
		results, err := sys.RunRepeated(&app, sys.NewMPC(model), target, 2)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, res := range results {
			if err := trace.WriteJSONL(&buf, res); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}

	fast := replay(true)
	ref := replay(false)
	if len(fast) == 0 {
		t.Fatal("empty replay trace")
	}
	if !bytes.Equal(fast, ref) {
		// Locate the first differing line for a readable failure.
		fl := bytes.Split(fast, []byte("\n"))
		rl := bytes.Split(ref, []byte("\n"))
		for i := 0; i < len(fl) && i < len(rl); i++ {
			if !bytes.Equal(fl[i], rl[i]) {
				t.Fatalf("JSONL traces diverge at line %d:\ncompiled:  %s\ntree-walk: %s", i+1, fl[i], rl[i])
			}
		}
		t.Fatalf("JSONL traces differ in length: compiled %d lines, tree-walk %d", len(fl), len(rl))
	}
}

// TestGoldenTracedReplayIdentical is the end-to-end statement of the
// telemetry non-perturbation contract: the full MPC pipeline replayed
// with span tracing at 100% sampling must produce a decision stream
// byte-identical to the untraced replay — the tracer observes wall
// time, never decisions. The sampled run must also actually trace:
// every decision gets a root span, and the decide path decomposes into
// the expected phases.
func TestGoldenTracedReplayIdentical(t *testing.T) {
	modelPath := filepath.Join("testdata", "golden", "model.bin")

	replay := func(tc *mpcdvfs.TraceContext) []byte {
		t.Helper()
		mf, err := os.Open(modelPath)
		if err != nil {
			t.Fatalf("%v (regenerate with go test -run TestGoldenMPCReplay -update)", err)
		}
		model, err := predict.LoadModel(mf)
		mf.Close()
		if err != nil {
			t.Fatal(err)
		}
		sys := mpcdvfs.NewSystem()
		sys.SetTraceContext(tc)
		app, err := mpcdvfs.BenchmarkByName("Spmv")
		if err != nil {
			t.Fatal(err)
		}
		_, target, err := sys.Baseline(&app)
		if err != nil {
			t.Fatal(err)
		}
		results, err := sys.RunRepeated(&app, sys.NewMPC(model), target, 2)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, res := range results {
			if err := trace.WriteJSONL(&buf, res); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}

	untraced := replay(nil)
	tr := telemetry.NewTracer(16384, 1)
	traced := replay(tr.NewContext("golden"))
	if len(untraced) == 0 {
		t.Fatal("empty replay trace")
	}
	if !bytes.Equal(traced, untraced) {
		ul := bytes.Split(untraced, []byte("\n"))
		tl := bytes.Split(traced, []byte("\n"))
		for i := 0; i < len(ul) && i < len(tl); i++ {
			if !bytes.Equal(ul[i], tl[i]) {
				t.Fatalf("traced replay diverges at line %d:\ntraced:   %s\nuntraced: %s", i+1, tl[i], ul[i])
			}
		}
		t.Fatalf("replays differ in length: traced %d lines, untraced %d", len(tl), len(ul))
	}

	roots, sampled := tr.Stats()
	if roots == 0 || roots != sampled {
		t.Fatalf("100%%-sampled run traced %d/%d decisions", sampled, roots)
	}
	names := map[string]int{}
	for _, rec := range tr.Snapshot(nil) {
		names[rec.Name]++
	}
	for _, want := range []string{telemetry.SpanDecide, telemetry.SpanSearch,
		telemetry.SpanFeaturize, telemetry.SpanForestEval} {
		if names[want] == 0 {
			t.Fatalf("traced replay has no %s spans (have %v)", want, names)
		}
	}
}
