package policy

import (
	"os"
	"testing"

	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/workload"
)

// recorder forwards to an MPC and keeps the observations of the last
// run it saw begin.
type recorder struct {
	*MPC
	info sim.RunInfo
	obs  []sim.Observation
}

func (r *recorder) Begin(info sim.RunInfo) {
	r.info, r.obs = info, r.obs[:0]
	r.MPC.Begin(info)
}

func (r *recorder) Observe(o sim.Observation) {
	r.obs = append(r.obs, o)
	r.MPC.Observe(o)
}

// TestMPCSteadyStateRunZeroAlloc pins a warm MPC's whole steady-state
// run at zero allocations: Begin, every Decide and every Observe. Every
// suite app gets its own MPC over the committed golden forest (behind
// predict.Calibrated, as NewMPC wraps it) with the obs.Metrics observer
// attached, as mpcsim -metrics-addr and the replay-steady benchmark
// run it. The engine makes each app's profiling run and two
// steady-state runs; the pinned run replays the last one's observations
// straight into the policy, because the engine's per-run Result is not
// the policy's to pin.
func TestMPCSteadyStateRunZeroAlloc(t *testing.T) {
	f, err := os.Open("../../testdata/golden/model.bin")
	if err != nil {
		t.Fatal(err)
	}
	model, err := predict.LoadModel(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(hw.DefaultSpace())
	eng.Obs = obs.NewMetrics(metrics.New())

	var runs []*recorder
	for _, app := range workload.Benchmarks() {
		_, target, err := eng.Baseline(&app)
		if err != nil {
			t.Fatal(err)
		}
		r := &recorder{MPC: NewMPC(model, eng.Space)}
		if _, err := eng.RunRepeated(&app, r, target, 3); err != nil {
			t.Fatal(err)
		}
		if r.Profiling() {
			t.Fatalf("%s: third run still profiling", app.Name)
		}
		runs = append(runs, r)
	}
	steadyRun := func() {
		for _, r := range runs {
			r.MPC.Begin(r.info)
			for i, o := range r.obs {
				r.MPC.Decide(i)
				r.MPC.Observe(o)
			}
		}
	}
	steadyRun() // the replayed stream's own first pass may still grow scratch
	if allocs := testing.AllocsPerRun(20, steadyRun); allocs != 0 {
		t.Fatalf("steady-state MPC runs over the suite allocate %v times, want 0", allocs)
	}
}
