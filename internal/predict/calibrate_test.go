package predict

import (
	"math"
	"math/rand"
	"testing"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
)

func TestCalibratedCorrectsBias(t *testing.T) {
	k := kernel.NewBalanced("b", 1)
	o := NewOracle()
	o.Register(k)
	// A model that is consistently 40% slow-side and 20% power-high.
	inner := &scaledModel{inner: o, t: 1.4, p: 1.2}
	c := NewCalibrated(inner)
	cs := k.Counters()
	cfg := hw.FailSafe()
	truth := k.Evaluate(cfg)

	before := c.PredictKernel(cs, cfg)
	if math.Abs(before.TimeMS-1.4*truth.TimeMS) > 1e-9 {
		t.Fatalf("uncalibrated prediction %v, want biased", before.TimeMS)
	}
	// Feed back the measurement; the next prediction must be corrected.
	c.Feedback(cs, cfg, truth.TimeMS, truth.GPUW+truth.NBW)
	after := c.PredictKernel(cs, cfg)
	if errBefore, errAfter := math.Abs(before.TimeMS-truth.TimeMS), math.Abs(after.TimeMS-truth.TimeMS); errAfter >= errBefore {
		t.Errorf("calibration did not reduce time error: %v -> %v", errBefore, errAfter)
	}
	// Converges with repeated feedback.
	for i := 0; i < 20; i++ {
		c.Feedback(cs, cfg, truth.TimeMS, truth.GPUW+truth.NBW)
	}
	final := c.PredictKernel(cs, cfg)
	if d := math.Abs(final.TimeMS-truth.TimeMS) / truth.TimeMS; d > 0.01 {
		t.Errorf("calibrated time still %.1f%% off after convergence", 100*d)
	}
	if d := math.Abs(final.GPUPowerW-(truth.GPUW+truth.NBW)) / (truth.GPUW + truth.NBW); d > 0.01 {
		t.Errorf("calibrated power still %.1f%% off", 100*d)
	}
	if c.KnownKernels() != 1 {
		t.Errorf("KnownKernels = %d", c.KnownKernels())
	}
}

// scaledModel applies a constant multiplicative bias.
type scaledModel struct {
	inner Model
	t, p  float64
}

func (s *scaledModel) Name() string { return "scaled" }
func (s *scaledModel) PredictKernel(cs counters.Set, c hw.Config) Estimate {
	e := s.inner.PredictKernel(cs, c)
	e.TimeMS *= s.t
	e.GPUPowerW *= s.p
	return e
}

func TestCalibratedRatioIsPerKernel(t *testing.T) {
	a := kernel.NewComputeBound("a", 1)
	b := kernel.NewMemoryBound("b", 1)
	o := NewOracle()
	o.Register(a)
	o.Register(b)
	c := NewCalibrated(&scaledModel{inner: o, t: 2, p: 1})
	cfg := hw.FailSafe()
	ma := a.Evaluate(cfg)
	// Only kernel a gets feedback.
	c.Feedback(a.Counters(), cfg, ma.TimeMS, ma.GPUW+ma.NBW)
	// a corrected, b still biased.
	ea := c.PredictKernel(a.Counters(), cfg)
	eb := c.PredictKernel(b.Counters(), cfg)
	if math.Abs(ea.TimeMS-ma.TimeMS) > 0.1*ma.TimeMS {
		t.Error("kernel a not corrected")
	}
	if mb := b.Evaluate(cfg); math.Abs(eb.TimeMS-2*mb.TimeMS) > 1e-9 {
		t.Error("kernel b should still carry the bias")
	}
}

// TestCalibratedIgnoresDegenerateFeedback covers feedback that must
// leave no ratio: non-positive measurements, and a kernel whose work
// volume overflows, which the forest prices at +Inf. A time ratio of
// measured/+Inf = 0 would turn the kernel's later times into
// +Inf × 0 = NaN, which meets every headroom; they must stay +Inf.
func TestCalibratedIgnoresDegenerateFeedback(t *testing.T) {
	k := kernel.NewBalanced("b", 1)
	o := NewOracle()
	o.Register(k)
	c := NewCalibrated(o)
	cfg := hw.FailSafe()
	c.Feedback(k.Counters(), cfg, 0, 10)  // zero time: ignored
	c.Feedback(k.Counters(), cfg, 10, -1) // negative power: ignored
	if c.KnownKernels() != 0 {
		t.Errorf("degenerate feedback stored: %d kernels", c.KnownKernels())
	}
	if c.Name() != "oracle+feedback" {
		t.Errorf("name = %q", c.Name())
	}

	m := quickRF(t)
	var huge counters.Set
	for i := range huge {
		huge[i] = 1e308
	}
	wide := k.Counters()
	wide[counters.VALUInsts], wide[counters.GlobalWorkSize] = 1e200, 1e200
	for _, cs := range []counters.Set{huge, wide} {
		c := NewCalibrated(m)
		c.BeginRun(true)
		if raw := m.PredictKernel(cs, cfg); !math.IsInf(raw.TimeMS, 1) {
			t.Fatalf("%v: raw time %v, want +Inf", cs, raw.TimeMS)
		}
		c.Feedback(cs, cfg, 5, 30)
		if n := c.KnownKernels(); n != 0 {
			t.Fatalf("%v: feedback on a +Inf estimate installed %d ratios", cs, n)
		}
		if got := c.PredictKernel(cs, hw.DefaultSpace().At(0)); !math.IsInf(got.TimeMS, 1) {
			t.Fatalf("%v: time after feedback %v, want +Inf", cs, got.TimeMS)
		}
	}
	c = NewCalibrated(m)
	c.Feedback(k.Counters(), cfg, 5, 30)
	if c.KnownKernels() != 1 {
		t.Fatal("feedback on a finite forest estimate installed no ratio")
	}
}

// TestFeedbackReturnsPreUpdateEstimate pins Feedback's return value to
// the bits PredictKernel gives for the executed configuration just
// before the update, on the first feedback (no ratio yet), on later
// ones (ratio applied) and on a degenerate one (ratio untouched).
func TestFeedbackReturnsPreUpdateEstimate(t *testing.T) {
	k := kernel.NewBalanced("b", 1)
	o := NewOracle()
	o.Register(k)
	c := NewCalibrated(&scaledModel{inner: o, t: 1.4, p: 1.2})
	cs := k.Counters()
	for i, cfg := range []hw.Config{hw.FailSafe(), hw.DefaultSpace().At(7), hw.DefaultSpace().At(99), hw.FailSafe()} {
		truth := k.Evaluate(cfg)
		meas := truth.TimeMS
		if i == 3 {
			meas = 0
		}
		want := c.PredictKernel(cs, cfg)
		got := c.Feedback(cs, cfg, meas, truth.GPUW+truth.NBW)
		if got != want {
			t.Fatalf("feedback %d returned %+v, PredictKernel before it gave %+v", i, got, want)
		}
	}
}

// countingInner counts the queries that reach a Calibrated's inner
// model.
type countingInner struct {
	Model
	calls int
}

func (c *countingInner) PredictKernel(cs counters.Set, cfg hw.Config) Estimate {
	c.calls++
	return c.Model.PredictKernel(cs, cfg)
}

// sameBits reports whether two estimates are bit-identical.
func sameBits(a, b Estimate) bool {
	return math.Float64bits(a.TimeMS) == math.Float64bits(b.TimeMS) &&
		math.Float64bits(a.GPUPowerW) == math.Float64bits(b.GPUPowerW)
}

// memoSlot returns the memo entry index a query maps to.
func memoSlot(cs counters.Set, cfg hw.Config) uint64 {
	k := memoKey{cfg: cfg, used: true}
	for i, v := range cs {
		k.bits[i] = math.Float64bits(v)
	}
	return k.slot()
}

// adversarialSets returns counter sets built from values a memo keyed
// by float equality, or by a lossy hash, would get wrong: signed zeros,
// NaN, infinities, subnormals and the largest magnitudes, placed at
// random over a realistic kernel's counters. finite keeps only finite,
// non-negative values (for the oracle, whose nearest-kernel fallback
// needs them).
func adversarialSets(rng *rand.Rand, n int, finite bool) []counters.Set {
	special := []float64{0, math.Copysign(0, -1), 5e-324, 1e-310, 2.2250738585072014e-308, 1e308, math.MaxFloat64}
	if !finite {
		special = append(special, math.NaN(), math.Inf(1), math.Inf(-1), -1e308, -1)
	}
	base := kernel.NewMemoryBound("mb", 1).Counters()
	out := make([]counters.Set, 0, n)
	for len(out) < n {
		cs := base
		for i := range cs {
			switch rng.Intn(3) {
			case 0:
				cs[i] = special[rng.Intn(len(special))]
			case 1:
				cs[i] = math.Exp(rng.Float64() * 20)
			}
		}
		out = append(out, cs)
	}
	return out
}

// TestCalibratedMemoMatchesInner drives a memoized Calibrated and a
// memo-less twin through the same stream of queries and feedback, and
// requires every answer bit for bit equal: over the trained forest with
// adversarial counter sets (±0, NaN, ±Inf, subnormals, 1e308), and over
// an error model whose answer for −0 differs from its answer for +0.
// Queries repeat, so the memo serves hits; feedback between hits moves
// the ratios, which must show on the next hit.
func TestCalibratedMemoMatchesInner(t *testing.T) {
	o := NewOracle()
	for _, k := range []kernel.Kernel{kernel.NewMemoryBound("mb", 1), kernel.NewComputeBound("cb", 1), kernel.NewPeak("pk", 1)} {
		o.Register(k)
	}
	space := hw.DefaultSpace()
	for _, tc := range []struct {
		inner  Model
		finite bool
	}{
		{quickRF(t), false},
		{NewWithError(o, 0.15, 0.10, 7), true},
	} {
		rng := rand.New(rand.NewSource(1))
		inner := &countingInner{Model: tc.inner}
		memo := NewCalibrated(inner)
		ref := NewCalibrated(tc.inner)
		var sets []counters.Set
		const queries = 4000
		for q := 0; q < queries; q++ {
			if q%400 == 0 {
				// A new run: fresh counter sets and an empty memo; the
				// ratios carry over, as they do across a policy's runs.
				sets = adversarialSets(rng, 8, tc.finite)
				memo.BeginRun(true)
			}
			cs := sets[rng.Intn(len(sets))]
			cfg := space.At(rng.Intn(8))
			if rng.Intn(10) == 0 {
				mt, mp := math.Exp(rng.NormFloat64()), 10*math.Exp(rng.NormFloat64())
				if got, want := memo.Feedback(cs, cfg, mt, mp), ref.Feedback(cs, cfg, mt, mp); !sameBits(got, want) {
					t.Fatalf("%s: feedback %d on %v at %v: memo %+v, without memo %+v", tc.inner.Name(), q, cs, cfg, got, want)
				}
				continue
			}
			if got, want := memo.PredictKernel(cs, cfg), ref.PredictKernel(cs, cfg); !sameBits(got, want) {
				t.Fatalf("%s: query %d on %v at %v: memo %+v, without memo %+v", tc.inner.Name(), q, cs, cfg, got, want)
			}
		}
		if memo.KnownKernels() == 0 {
			t.Fatalf("%s: no feedback took, so no ratio was checked", tc.inner.Name())
		}
		// A run asks at most 8 sets × 8 configurations = 64 distinct
		// queries, so most of its 400 repeat one; a memo that never hits
		// calls the inner model once per query.
		if inner.calls > queries/2 {
			t.Fatalf("%s: %d of %d queries reached the inner model", tc.inner.Name(), inner.calls, queries)
		}
	}
}

// TestCalibratedMemoCollisionsAndSignedZero forces queries onto one
// memo entry. A Feedback fills its query's entry, and a Feedback on a
// query the memo holds reaches no inner model. Two distinct queries
// that share an entry evict each other and are both answered by the
// inner model, every time. A −0 and
// a +0 query that share an entry must stay apart, because the error
// model answers them differently: a memo that compared keys with ==
// would hand the +0 answer to the −0 query. A NaN query finds its own
// entry.
func TestCalibratedMemoCollisionsAndSignedZero(t *testing.T) {
	o := NewOracle()
	k := kernel.NewBalanced("b", 1)
	o.Register(k)
	we := NewWithError(o, 0.15, 0.10, 3)
	inner := &countingInner{Model: we}
	c := NewCalibrated(inner)
	c.BeginRun(true)
	space := hw.DefaultSpace()
	rng := rand.New(rand.NewSource(2))

	// A colliding pair of distinct queries, with a ratio installed so
	// hits are checked after the correction too.
	base := k.Counters()
	a, cfg := base, space.At(5)
	c.Feedback(a, cfg, 1.3*we.PredictKernel(a, cfg).TimeMS, 40)
	var b counters.Set
	for try := 0; ; try++ {
		if try == 1<<16 {
			t.Fatal("no counter set shares the first query's memo entry")
		}
		b = base
		b[counters.FetchSize] = math.Exp(rng.Float64() * 20)
		if b != a && memoSlot(b, cfg) == memoSlot(a, cfg) {
			break
		}
	}
	check := func(cs counters.Set, cfg hw.Config, wantCalls int) {
		t.Helper()
		want := we.PredictKernel(cs, cfg)
		if r, ok := c.ratios[counters.SignatureOf(cs)]; ok {
			want.TimeMS *= r.time
			want.GPUPowerW *= r.power
		}
		before := inner.calls
		if got := c.PredictKernel(cs, cfg); !sameBits(got, want) {
			t.Fatalf("%v at %v: got %+v, want %+v", cs, cfg, got, want)
		}
		if n := inner.calls - before; n != wantCalls {
			t.Fatalf("%v at %v reached the inner model %d times, want %d", cs, cfg, n, wantCalls)
		}
	}
	check(a, cfg, 0) // the feedback filled a's entry
	for i := 0; i < 3; i++ {
		check(b, cfg, 1) // evicts a
		check(a, cfg, 1) // evicts b
	}
	before := inner.calls
	c.Feedback(a, cfg, 2*we.PredictKernel(a, cfg).TimeMS, 45)
	if inner.calls != before {
		t.Fatal("a feedback on a query the memo holds reached the inner model")
	}
	check(a, cfg, 0) // a hit shows the ratio the feedback just moved

	// −0 and +0 in one counter, on one entry.
	var pos, neg counters.Set
	var zcfg hw.Config
	for try, found := 0, false; !found; try++ {
		if try == 64 {
			t.Fatal("−0 and +0 never share a memo entry: the slot hash does not spread a sign bit")
		}
		pos = base
		pos[counters.ScratchRegs] = 0
		pos[counters.VALUInsts] = math.Exp(rng.Float64() * 10)
		neg = pos
		neg[counters.ScratchRegs] = math.Copysign(0, -1)
		for i := 0; i < space.Size() && !found; i++ {
			zcfg = space.At(i)
			found = memoSlot(pos, zcfg) == memoSlot(neg, zcfg)
		}
	}
	if sameBits(we.PredictKernel(pos, zcfg), we.PredictKernel(neg, zcfg)) {
		t.Fatal("the error model answers −0 and +0 alike, so this case checks nothing")
	}
	check(pos, zcfg, 1)
	check(neg, zcfg, 1)
	check(pos, zcfg, 1)

	// NaN is not equal to itself, but its bits are.
	nan := base
	nan[counters.CacheHit] = math.NaN()
	rfc := &countingInner{Model: quickRF(t)}
	cr := NewCalibrated(rfc)
	cr.BeginRun(true)
	first := cr.PredictKernel(nan, cfg)
	if again := cr.PredictKernel(nan, cfg); !sameBits(again, first) || rfc.calls != 1 {
		t.Fatalf("NaN query repeated: %+v then %+v, %d inner calls, want the same bits from 1 call", first, again, rfc.calls)
	}
}

// TestCalibratedWithoutMemo covers a Calibrated that never got a memo,
// as PPK's and every profiling run's is: each query reaches the inner
// model. BeginRun(true) empties a memo that has one, and BeginRun(false)
// drops it.
func TestCalibratedWithoutMemo(t *testing.T) {
	o := NewOracle()
	k := kernel.NewComputeBound("cb", 1)
	o.Register(k)
	inner := &countingInner{Model: o}
	c := NewCalibrated(inner)
	cs, cfg := k.Counters(), hw.FailSafe()
	want := o.PredictKernel(cs, cfg)
	query := func(wantCalls int) {
		t.Helper()
		before := inner.calls
		if got := c.PredictKernel(cs, cfg); !sameBits(got, want) {
			t.Fatalf("got %+v, want %+v", got, want)
		}
		if n := inner.calls - before; n != wantCalls {
			t.Fatalf("query reached the inner model %d times, want %d", n, wantCalls)
		}
	}
	query(1)
	query(1)
	c.BeginRun(true)
	query(1)
	query(0)
	c.BeginRun(true)
	query(1)
	c.BeginRun(false)
	query(1)
	query(1)
}

// TestCalibratedPredictKernelZeroAlloc pins the hotpath-annotated
// PredictKernel at zero allocations on a warm memo with a ratio
// installed, and on its miss path over the forest; and the bounded
// PredictKernelWithin on a time-only miss, the later read that prices
// the power, and a hit.
func TestCalibratedPredictKernelZeroAlloc(t *testing.T) {
	m := quickRF(t)
	c := NewCalibrated(m)
	c.BeginRun(true)
	cs := kernel.NewComputeBound("cb", 1).Counters()
	space := hw.DefaultSpace()
	c.Feedback(cs, space.At(0), 2, 30)
	cfgs := []hw.Config{space.At(0), space.At(17), space.At(101)}
	for _, cfg := range cfgs {
		c.PredictKernel(cs, cfg)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		for _, cfg := range cfgs {
			_ = c.PredictKernel(cs, cfg)
		}
	}); allocs != 0 {
		t.Fatalf("warm memo: PredictKernel allocates %v times per 3 calls, want 0", allocs)
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		c.BeginRun(true)
		_ = c.PredictKernel(cs, space.At(i%space.Size()))
		i++
	}); allocs != 0 {
		t.Fatalf("memo miss: PredictKernel allocates %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		c.BeginRun(true)
		cfg := space.At(i % space.Size())
		_ = c.PredictKernelWithin(cs, cfg, math.Inf(-1))
		_ = c.PredictKernelWithin(cs, cfg, math.Inf(1))
		_ = c.PredictKernelWithin(cs, cfg, 0)
		i++
	}); allocs != 0 {
		t.Fatalf("PredictKernelWithin allocates %v times per time-only miss, power fill and hit, want 0", allocs)
	}
}
