package predict

import (
	"math"
	"math/rand"
	"testing"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
)

// splitQueries returns counter sets for the split-form tests: random
// kernels, adversarial sets holding ±0, NaN, ±Inf, subnormals and the
// largest magnitudes, every counter at 1e308, and VALUInsts ×
// GlobalWorkSize overflowing to +Inf from two counters at 1e200.
func splitQueries(rng *rand.Rand) []counters.Set {
	var sets []counters.Set
	for i := 0; i < 4; i++ {
		sets = append(sets, kernel.Random("q", rng).Counters())
	}
	sets = append(sets, adversarialSets(rng, 8, false)...)
	var huge counters.Set
	for i := range huge {
		huge[i] = 1e308
	}
	wide := kernel.NewBalanced("w", 1).Counters()
	wide[counters.VALUInsts], wide[counters.GlobalWorkSize] = 1e200, 1e200
	return append(sets, huge, wide)
}

// TestSplitHalvesMatchPredictKernel pins RandomForest's split form to
// PredictKernel bit for bit over the full space: PredictTime is its
// TimeMS and PredictPower its GPUPowerW, on random queries and on ones
// whose features or times come out NaN or ±Inf.
func TestSplitHalvesMatchPredictKernel(t *testing.T) {
	m := quickRF(t)
	rng := rand.New(rand.NewSource(29))
	nonFinite := 0
	for _, cs := range splitQueries(rng) {
		hw.FullSpace().ForEach(func(c hw.Config) {
			want := m.PredictKernel(cs, c)
			tm, p := m.PredictTime(cs, c), m.PredictPower(cs, c)
			if math.Float64bits(tm) != math.Float64bits(want.TimeMS) || math.Float64bits(p) != math.Float64bits(want.GPUPowerW) {
				t.Fatalf("%v at %v: split (%v, %v), PredictKernel %+v", cs, c, tm, p, want)
			}
			if math.IsNaN(tm) || math.IsInf(tm, 0) {
				nonFinite++
			}
		})
	}
	if nonFinite == 0 {
		t.Fatal("no query priced a non-finite time, so the NaN and ±Inf cases check nothing")
	}
}

// splitCounter counts the split calls that reach a forest and records
// which queries had their power priced since the last reset.
type splitCounter struct {
	*RandomForest
	time, power int
	priced      map[splitQuery]bool
}

// splitQuery is a query by the bits of its counters, so NaN finds
// itself.
type splitQuery struct {
	bits [counters.NumCounters]uint64
	cfg  hw.Config
}

func queryOf(cs counters.Set, c hw.Config) splitQuery {
	q := splitQuery{cfg: c}
	for i, v := range cs {
		q.bits[i] = math.Float64bits(v)
	}
	return q
}

func (s *splitCounter) PredictTime(cs counters.Set, c hw.Config) float64 {
	s.time++
	return s.RandomForest.PredictTime(cs, c)
}

func (s *splitCounter) PredictPower(cs counters.Set, c hw.Config) float64 {
	s.power++
	s.priced[queryOf(cs, c)] = true
	return s.RandomForest.PredictPower(cs, c)
}

func (s *splitCounter) PredictKernel(cs counters.Set, c hw.Config) Estimate {
	panic("a Calibrated over a split model asked for both forests at once")
}

// TestPredictKernelWithinPricesOnlyWhatItReturns drives a Calibrated
// over the split forest with bounded calls, full calls and feedback,
// with and without a memo, at headrooms 0, ±Inf, NaN and the query's
// own calibrated time. Every answer's time must equal PredictKernel's
// bits; its power must too wherever the time is not above the headroom,
// and elsewhere must be either NaN or a power the run priced for that
// query (never another query's). A query whose time is above the
// headroom, asked first, must reach no power forest.
func TestPredictKernelWithinPricesOnlyWhatItReturns(t *testing.T) {
	m := quickRF(t)
	rng := rand.New(rand.NewSource(30))
	sets := splitQueries(rng)
	space := hw.DefaultSpace()
	for _, memo := range []bool{true, false} {
		inner := &splitCounter{RandomForest: m, priced: map[splitQuery]bool{}}
		c := NewCalibrated(inner)
		ref := NewCalibrated(m)
		skipped := 0
		for q := 0; q < 6000; q++ {
			if q%600 == 0 {
				c.BeginRun(memo)
				clear(inner.priced)
			}
			cs := sets[rng.Intn(len(sets))]
			cfg := space.At(rng.Intn(12))
			want := ref.PredictKernel(cs, cfg)
			switch rng.Intn(8) {
			case 0:
				mt, mp := math.Exp(rng.NormFloat64()), 10*math.Exp(rng.NormFloat64())
				got := c.Feedback(cs, cfg, mt, mp)
				ref.Feedback(cs, cfg, mt, mp)
				if !sameBits(got, want) {
					t.Fatalf("feedback %d on %v at %v: %+v, want %+v", q, cs, cfg, got, want)
				}
				continue
			case 1:
				if got := c.PredictKernel(cs, cfg); !sameBits(got, want) {
					t.Fatalf("query %d on %v at %v: %+v, want %+v", q, cs, cfg, got, want)
				}
				continue
			}
			head := []float64{0, math.Inf(1), math.Inf(-1), math.NaN(), want.TimeMS, want.TimeMS * 0.9}[rng.Intn(6)]
			fresh := !inner.priced[queryOf(cs, cfg)]
			before := inner.power
			got := c.PredictKernelWithin(cs, cfg, head)
			if math.Float64bits(got.TimeMS) != math.Float64bits(want.TimeMS) {
				t.Fatalf("query %d on %v at %v within %v: time %v, want %v", q, cs, cfg, head, got.TimeMS, want.TimeMS)
			}
			switch {
			case fresh && got.TimeMS > head:
				if inner.power != before || !math.IsNaN(got.GPUPowerW) {
					t.Fatalf("query %d on %v at %v: time %v above headroom %v, yet the power forest ran (power %v)", q, cs, cfg, got.TimeMS, head, got.GPUPowerW)
				}
				skipped++
			case !(got.TimeMS > head) || !math.IsNaN(got.GPUPowerW):
				if !sameBits(got, want) {
					t.Fatalf("query %d on %v at %v within %v: %+v, want %+v", q, cs, cfg, head, got, want)
				}
				if !inner.priced[queryOf(cs, cfg)] {
					t.Fatalf("query %d on %v at %v within %v returned power %v that no call priced", q, cs, cfg, head, got.GPUPowerW)
				}
			}
		}
		if skipped == 0 {
			t.Fatalf("memo %v: no call skipped a power, so the bound checks nothing", memo)
		}
		if c.KnownKernels() == 0 {
			t.Fatalf("memo %v: no feedback took, so no ratio was checked", memo)
		}
	}
}
