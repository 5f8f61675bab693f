package policy

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/workload"
)

// countingForest counts the scalar queries that reach a forest; its
// batched sweeps pass through uncounted. A calibrated model prices a
// query's time first, so PredictTime counts each query once, and
// PredictPower only adds the power of a query already counted.
type countingForest struct {
	*predict.RandomForest
	calls int
}

func (c *countingForest) PredictKernel(cs counters.Set, cfg hw.Config) predict.Estimate {
	c.calls++
	return c.RandomForest.PredictKernel(cs, cfg)
}

func (c *countingForest) PredictTime(cs counters.Set, cfg hw.Config) float64 {
	c.calls++
	return c.RandomForest.PredictTime(cs, cfg)
}

// TestSteadyStateMemoHalvesForestCalls replays the golden Spmv runs (a
// profiling run, then a steady-state one) over the committed forest,
// counting the scalar calls that reach it. The steady-state run must
// make the golden replay's decisions, and reach the forest at most half
// as often as its decisions' summed Evals: Evals still counts every
// configuration the search priced, and the memo answers the repeats.
func TestSteadyStateMemoHalvesForestCalls(t *testing.T) {
	f, err := os.Open("../../testdata/golden/model.bin")
	if err != nil {
		t.Fatal(err)
	}
	model, err := predict.LoadModel(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../../testdata/golden/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		App  string
		Runs []struct {
			Records []struct {
				Kernel, Config string
				Evals          int
				Time           string `json:"time_ms"`
				Energy         string `json:"energy_mj"`
			}
		}
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	app, err := workload.ByName(golden.App)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(hw.DefaultSpace())
	_, target, err := eng.Baseline(&app)
	if err != nil {
		t.Fatal(err)
	}
	cf := &countingForest{RandomForest: model}
	m := NewMPC(cf, eng.Space)
	if _, err := eng.Run(&app, m, target, true); err != nil {
		t.Fatal(err)
	}
	cf.calls = 0
	res, err := eng.Run(&app, m, target, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Profiling() {
		t.Fatal("second run still profiling")
	}

	want := golden.Runs[1].Records
	if len(res.Records) != len(want) {
		t.Fatalf("steady-state run made %d decisions, golden %d", len(res.Records), len(want))
	}
	g6 := func(v float64) string { return fmt.Sprintf("%.6g", v) }
	for i, rec := range res.Records {
		w := want[i]
		if rec.Kernel != w.Kernel || rec.Config.String() != w.Config || rec.Evals != w.Evals ||
			g6(rec.TimeMS) != w.Time || g6(rec.GPUEnergyMJ+rec.CPUEnergyMJ) != w.Energy {
			t.Fatalf("decision %d: %s %v evals %d time %s energy %s, golden %+v", i,
				rec.Kernel, rec.Config, rec.Evals, g6(rec.TimeMS), g6(rec.GPUEnergyMJ+rec.CPUEnergyMJ), w)
		}
	}
	evals := res.Evals()
	t.Logf("steady-state run: %d forest calls for %d Evals over %d decisions", cf.calls, evals, len(res.Records))
	if 2*cf.calls > evals {
		t.Fatalf("steady-state run reached the forest %d times for %d Evals, want at most half", cf.calls, evals)
	}
}

// TestProfilingRunsKeepNoMemo pins where the memo is not: PPK's runs
// and MPC's profiling run reach the model exactly once per configuration
// a decision priced plus once per feedback. Over the scalar-only oracle
// every sweep is priced configuration by configuration, so a memo would
// show as fewer calls. MPC's steady-state run, which has one, makes
// fewer.
func TestProfilingRunsKeepNoMemo(t *testing.T) {
	f := newFixture(t, "Spmv")
	for _, mk := range []func(predict.Model) sim.Policy{
		func(m predict.Model) sim.Policy { return NewMPC(m, f.eng.Space) },
		func(m predict.Model) sim.Policy { return NewPPK(m, f.eng.Space) },
	} {
		cm := &countingModel{inner: f.oracle}
		p := mk(cm)
		for run := 0; run < 2; run++ {
			before := cm.calls
			res, err := f.eng.Run(&f.app, p, f.target, run == 0)
			if err != nil {
				t.Fatal(err)
			}
			calls, uncached := cm.calls-before, res.Evals()+f.app.Len()
			steady := run == 1 && p.Name() == "mpc"
			if steady && calls >= uncached {
				t.Errorf("%s run %d: %d model calls, want fewer than the %d of a run without a memo", p.Name(), run, calls, uncached)
			}
			if !steady && calls != uncached {
				t.Errorf("%s run %d: %d model calls, want Evals + kernels = %d", p.Name(), run, calls, uncached)
			}
		}
	}
}
