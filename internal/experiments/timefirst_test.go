package experiments

import (
	"math"
	"testing"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/policy"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/sim"
)

// descentCounter counts the scalar forest descents that reach the
// shared forest, one per forest a call walks: PredictKernel walks both,
// PredictTime and PredictPower one each. Batched sweeps pass through
// uncounted.
type descentCounter struct {
	*predict.RandomForest
	time, power int
}

func (c *descentCounter) PredictKernel(cs counters.Set, cfg hw.Config) predict.Estimate {
	c.time++
	c.power++
	return c.RandomForest.PredictKernel(cs, cfg)
}

func (c *descentCounter) PredictTime(cs counters.Set, cfg hw.Config) float64 {
	c.time++
	return c.RandomForest.PredictTime(cs, cfg)
}

func (c *descentCounter) PredictPower(cs counters.Set, cfg hw.Config) float64 {
	c.power++
	return c.RandomForest.PredictPower(cs, cfg)
}

// sweeper is a model with the batched sweeps and without the split form.
type sweeper interface {
	predict.Model
	predict.TracedSpaceEvaluator
	predict.BoundedSpaceEvaluator
}

// hideSplit hides the split form of the model it wraps, so the policy's
// calibrated model prices both forests on every scalar query, as it did
// before the search read times first.
type hideSplit struct{ sweeper }

// decisionLog keeps the decisions of the MPC it wraps.
type decisionLog struct {
	*policy.MPC
	ds []sim.Decision
}

func (l *decisionLog) Decide(i int) sim.Decision {
	d := l.MPC.Decide(i)
	l.ds = append(l.ds, d)
	return d
}

// sameDecision reports whether two decisions are equal, their estimates
// bit for bit.
func sameDecision(a, b sim.Decision) bool {
	bits := func(d sim.Decision) [2]uint64 {
		return [2]uint64{math.Float64bits(d.PredTimeMS), math.Float64bits(d.PredGPUPowerW)}
	}
	if bits(a) != bits(b) {
		return false
	}
	a.PredTimeMS, a.PredGPUPowerW, b.PredTimeMS, b.PredGPUPowerW = 0, 0, 0, 0
	return a == b
}

// TestTimeFirstSteadyStatePass replays one steady-state pass of the
// suite on the fixture forest twice — once with the forest's split form
// visible and once hidden — after each app's profiling run. Both passes
// must make the same decisions (configuration, Evals and the applied
// estimate's bits), and the time-first pass must make fewer scalar
// descents, all of the saving on the power forest.
func TestTimeFirstSteadyStatePass(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the fixture forest")
	}
	f := Shared()
	rf, err := f.RF()
	if err != nil {
		t.Fatal(err)
	}
	counters := [2]*descentCounter{{RandomForest: rf}, {RandomForest: rf}}
	models := [2]predict.Model{counters[0], hideSplit{counters[1]}}
	var steady [2]struct{ time, power int } // time-first, both forests
	evals, decisions := 0, 0
	for a := range f.Apps {
		app := &f.Apps[a]
		_, target := f.Baseline(app)
		var logs [2]*decisionLog
		for i, m := range models {
			p := &decisionLog{MPC: policy.NewMPC(m, f.Space)}
			if _, err := f.Engine.Run(app, p, target, true); err != nil {
				t.Fatal(err)
			}
			c := counters[i]
			c.time, c.power, p.ds = 0, 0, nil
			if _, err := f.Engine.Run(app, p, target, false); err != nil {
				t.Fatal(err)
			}
			if p.Profiling() {
				t.Fatalf("%s: second run still profiling", app.Name)
			}
			steady[i].time += c.time
			steady[i].power += c.power
			logs[i] = p
		}
		for k, got := range logs[0].ds {
			if want := logs[1].ds[k]; !sameDecision(got, want) {
				t.Fatalf("%s decision %d: time-first %+v, both forests %+v", app.Name, k, got, want)
			}
			evals += got.Evals
		}
		decisions += len(logs[0].ds)
	}
	tf, both := steady[0], steady[1]
	t.Logf("one steady-state pass: %d decisions, %d Evals; forest descents time-first %d (%d time + %d power), both forests %d (%d + %d)",
		decisions, evals, tf.time+tf.power, tf.time, tf.power, both.time+both.power, both.time, both.power)
	if tf.time != both.time {
		t.Errorf("time descents: time-first %d, both forests %d; want equal", tf.time, both.time)
	}
	if tf.power >= both.power {
		t.Errorf("power descents: time-first %d, both forests %d; want fewer", tf.power, both.power)
	}
}
