package core

import (
	"math"
	"testing"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/predict"
)

// FuzzTimeFirstSearch is the time-first search's decision property.
// Over the forest's split form, the search asks a configuration's
// power only where it reads the energy; over scalarOnly, which hides
// the split form, every query prices both forests. For any counters
// (1e308 and non-finite ones included), headroom (0, NaN and ±Inf
// included), trust anchor, memo state and calibration ratio, both must
// return the same Config, Est bits, Evals and Feasible from the
// recovering climb (at the fuzzed headroom, then at the fail-safe's own
// calibrated time, which finds times the first climb left without a
// power in the memo) and the same Config, Est bits and evaluation count
// from a three-kernel window in which the fuzzed kernel is optimized
// last. A speculative climb that misses the headroom hands on only its
// time, so there the power is left out of the comparison.
func FuzzTimeFirstSearch(f *testing.F) {
	m := batchedModel(f)
	for _, k := range []kernel.Kernel{kernel.NewComputeBound("c", 1), kernel.NewMemoryBound("m", 1), kernel.NewPeak("p", 1)} {
		cs := k.Counters()
		fs := m.PredictKernel(cs, hw.FailSafe())
		for _, head := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), fs.TimeMS * 1.05, fs.TimeMS * 0.7} {
			f.Add(cs[0], cs[1], cs[2], cs[3], cs[4], cs[5], cs[6], cs[7], head, fs.TimeMS, fs.TimeMS*0.8, fs.GPUPowerW*1.1, true)
		}
		f.Add(cs[0], cs[1], cs[2], cs[3], cs[4], cs[5], cs[6], cs[7], fs.TimeMS*0.5, 0.0, 0.0, 0.0, false)
	}
	f.Add(1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1e308, 1.0, 1.0, 5.0, 30.0, true)
	others := [2]counters.Set{kernel.NewComputeBound("c", 2).Counters(), kernel.NewMemoryBound("m", 2).Counters()}
	f.Fuzz(func(t *testing.T, c0, c1, c2, c3, c4, c5, c6, c7, head, refTimeMS, measTimeMS, measPowerW float64, memo bool) {
		cs := counters.Set{c0, c1, c2, c3, c4, c5, c6, c7}
		space := hw.DefaultSpace()
		type outcome struct {
			climbs [3]climbResult // recovering ×2, speculative
			cfg    hw.Config
			est    predict.Estimate
			evals  int
		}
		search := func(inner predict.Model) outcome {
			cal := predict.NewCalibrated(inner)
			cal.BeginRun(memo)
			cal.Feedback(cs, space.Clamp(hw.FailSafe()), measTimeMS, measPowerW)
			o := NewOptimizer(cal, space)
			var out outcome
			heads := [3]float64{head, cal.PredictKernel(cs, o.FailSafe()).TimeMS, head}
			for i, h := range heads {
				cache := evalCache{o: o, cs: cs}
				out.climbs[i] = o.hillClimb(&cache, h, i < 2, refTimeMS)
			}
			insts := cs[counters.VALUInsts] * cs[counters.GlobalWorkSize]
			win := []WindowKernel{{ExecIndex: 0, Rank: 2, ExpInsts: insts}}
			win[0].Rec.Counters, win[0].Rec.TimeMS = cs, refTimeMS
			for j, ocs := range others {
				w := WindowKernel{ExecIndex: j + 1, Rank: j, ExpInsts: ocs[counters.VALUInsts] * ocs[counters.GlobalWorkSize]}
				w.Rec.Counters = ocs
				win = append(win, w)
			}
			out.cfg, out.est, out.evals = o.OptimizeWindow(win, NewTracker(insts/head))
			return out
		}
		got, want := search(m), search(scalarOnly{m})
		for i := range got.climbs {
			g, w := got.climbs[i], want.climbs[i]
			if i == 2 && !w.Feasible {
				g.Est.GPUPowerW, w.Est.GPUPowerW = 0, 0
			}
			sameClimbResult(t, "time-first climb", g, w)
		}
		if got.cfg != want.cfg || got.evals != want.evals ||
			math.Float64bits(got.est.TimeMS) != math.Float64bits(want.est.TimeMS) ||
			math.Float64bits(got.est.GPUPowerW) != math.Float64bits(want.est.GPUPowerW) {
			t.Fatalf("time-first window: %v %+v %d evals, both forests %v %+v %d evals", got.cfg, got.est, got.evals, want.cfg, want.est, want.evals)
		}
	})
}
