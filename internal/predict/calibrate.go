package predict

import (
	"math"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/telemetry"
)

// calibWeight is the EWMA weight for feedback updates.
const calibWeight = 0.5

// Calibrated wraps a Model with the runtime feedback loop of Fig. 6: the
// measured time and power of each executed kernel continuously correct
// the model's bias for that kernel. The paper realizes this by feeding
// updated performance counters back into the predictor (§IV-A2); with an
// offline model and stable counters, the equivalent correction is a
// per-kernel-signature multiplicative ratio between measurement and
// prediction, smoothed across invocations.
//
// A Calibrated is per-policy state: each policy owns one, and one
// goroutine at a time uses it. Its ratios and its memo (BeginRun) are
// unsynchronized; the inner model may be shared.
type Calibrated struct {
	inner Model
	// split, bounded and traced are inner's time-first form, bounded
	// sweep and traced sweep, resolved once by NewCalibrated; each is
	// nil when inner has none.
	split   SplitEvaluator
	bounded BoundedSpaceEvaluator
	traced  TracedSpaceEvaluator
	ratios  map[counters.Signature]*calibRatio
	// memo holds the inner model's raw answers for the current run; nil
	// when the run keeps none (see BeginRun).
	memo *[1 << memoBits]memoEntry
}

type calibRatio struct {
	time, power float64
}

// memoBits sizes the memo: 1<<memoBits direct-mapped entries of 104
// bytes, 26 KiB per memo.
const memoBits = 8

// memoKey is one query to the inner model by the exact bits of its
// counters, so a hit answers exactly the query that filled the entry:
// −0 and +0 stay apart and NaN finds itself.
type memoKey struct {
	bits [counters.NumCounters]uint64
	cfg  hw.Config
	used bool // false only in an empty entry, so no query matches one
}

// memoEntry is one memoized inner-model answer, with the signature the
// counters bin to. Over a split inner model an entry holds the time
// first, and the power from the first call that reads it: until then
// priced is false and raw.GPUPowerW is NaN.
type memoEntry struct {
	key    memoKey
	raw    Estimate
	sig    counters.Signature
	priced bool
}

// slot maps a key to its memo entry's index. A multiply carries a bit
// only upward, so the chain leaves a sign or exponent bit in the top
// bits alone; the finalizer (MurmurHash3's fmix64) spreads every bit
// over the index.
func (k *memoKey) slot() uint64 {
	h := uint64(uint8(k.cfg.CPU)) | uint64(uint8(k.cfg.NB))<<8 |
		uint64(uint8(k.cfg.GPU))<<16 | uint64(uint8(k.cfg.CUs))<<24
	for _, b := range k.bits {
		h = (h ^ b) * 0x9e3779b97f4a7c15
	}
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return (h ^ h>>33) >> (64 - memoBits)
}

// NewCalibrated wraps inner with an empty feedback store and no memo.
func NewCalibrated(inner Model) *Calibrated {
	split, _ := inner.(SplitEvaluator)
	bounded, _ := inner.(BoundedSpaceEvaluator)
	traced, _ := inner.(TracedSpaceEvaluator)
	return &Calibrated{inner: inner, split: split, bounded: bounded, traced: traced,
		ratios: map[counters.Signature]*calibRatio{}}
}

// BeginRun starts a run. With memo true, PredictKernel and Feedback
// answer a repeated query from a memo of the inner model's raw
// estimates, which BeginRun empties here (allocating it on first use):
// a steady-state MPC re-prices the same expected kernels at the same
// configurations decision after decision, and the executed kernel's
// feedback asks a query its decision priced. With memo false the
// Calibrated keeps no memo. Correction ratios are never memoized, so
// every answer is bit-identical to one without a memo; that rests on
// the inner model being a pure function of its query (Model).
func (c *Calibrated) BeginRun(memo bool) {
	switch {
	case !memo:
		c.memo = nil
	case c.memo == nil:
		c.memo = new([1 << memoBits]memoEntry)
	default:
		clear(c.memo[:])
	}
}

// Name implements Model.
func (c *Calibrated) Name() string { return c.inner.Name() + "+feedback" }

// PredictKernel implements Model, applying the kernel's learned
// correction ratio when one exists. It is the bounded call at an
// infinite headroom, which owes every power.
//
//mpclint:hotpath warm memo pinned at 0 allocs/op by TestCalibratedPredictKernelZeroAlloc
func (c *Calibrated) PredictKernel(cs counters.Set, cfg hw.Config) Estimate {
	return c.PredictKernelWithin(cs, cfg, math.Inf(1))
}

// PredictKernelWithin returns the calibrated estimate for a search that
// reads a configuration's power only where its time meets a headroom:
// TimeMS is PredictKernel's bit for bit, and so is GPUPowerW where the
// calibrated time is not above headroomMS (NaN is within) or an earlier
// call of the run priced it; a power it did not price is NaN. Over an
// inner model without the split form every miss prices both, as
// PredictKernel always did.
//
//mpclint:hotpath warm memo pinned at 0 allocs/op by TestCalibratedPredictKernelZeroAlloc
func (c *Calibrated) PredictKernelWithin(cs counters.Set, cfg hw.Config, headroomMS float64) Estimate {
	e, _, r := c.raw(&cs, cfg, headroomMS)
	if r != nil {
		e.TimeMS *= r.time
		e.GPUPowerW *= r.power
	}
	return e
}

// raw returns the inner model's estimate for a query, the signature its
// counters bin to and the kernel's correction ratio (nil when it has
// none). The power is priced where the calibrated time — raw time
// times the ratio — is not above headroomMS, and NaN elsewhere unless
// an earlier call priced it. With a memo, a repeated query takes all
// of it from the memo, pricing only a power the memo still lacks, and
// a miss replaces the query's entry.
//
//mpclint:hotpath PredictKernelWithin's lookup, pinned with it at 0 allocs/op by TestCalibratedPredictKernelZeroAlloc
func (c *Calibrated) raw(cs *counters.Set, cfg hw.Config, headroomMS float64) (Estimate, counters.Signature, *calibRatio) {
	var ent *memoEntry
	if c.memo != nil {
		var key memoKey
		key.cfg, key.used = cfg, true
		for i, v := range cs {
			key.bits[i] = math.Float64bits(v)
		}
		ent = &c.memo[key.slot()]
		if ent.key != key {
			ent.key = key
			c.fill(ent, cs, cfg)
		}
	} else {
		var scratch memoEntry
		ent = &scratch
		c.fill(ent, cs, cfg)
	}
	r := c.ratios[ent.sig]
	if !ent.priced {
		t := ent.raw.TimeMS
		if r != nil {
			t *= r.time
		}
		if !(t > headroomMS) {
			//mpclint:ignore hotpath-alloc the first read of a query's power: the split inner model is predict.RandomForest, whose PredictPower carries its own hotpath proof
			ent.raw.GPUPowerW = c.split.PredictPower(*cs, cfg)
			ent.priced = true
		}
	}
	return ent.raw, ent.sig, r
}

// fill prices a query the memo does not hold into ent: its signature
// and its time, with the power left NaN and unpriced over a split inner
// model, and priced with the time over any other.
//
//mpclint:hotpath raw's miss path, pinned with it at 0 allocs/op by TestCalibratedPredictKernelZeroAlloc
func (c *Calibrated) fill(ent *memoEntry, cs *counters.Set, cfg hw.Config) {
	ent.sig = counters.SignatureOf(*cs)
	if c.split != nil {
		//mpclint:ignore hotpath-alloc a memo miss, or a run without a memo: the split inner model is predict.RandomForest, whose PredictTime carries its own hotpath proof
		ent.raw = Estimate{TimeMS: c.split.PredictTime(*cs, cfg), GPUPowerW: math.NaN()}
		ent.priced = false
		return
	}
	//mpclint:ignore hotpath-alloc a memo miss, or a run without a memo, over an inner model without the split form: ablation and reference predictors, test doubles and the benchmark's traced wrapper
	ent.raw = c.inner.PredictKernel(*cs, cfg)
	ent.priced = true
}

// PredictSpaceWithin fills dst (which must hold space.Size() estimates)
// with the calibrated estimate of every configuration of space, in
// hw.Space.At order, for a sweep that reads a row's power only where
// the row meets headroomMS. Every time is the calibrated PredictKernel's
// bit for bit, and so is every power the bounded contract owes
// (BoundedSpaceEvaluator), with row failSafe owed when no row meets the
// headroom; a power it does not owe may be NaN. It fills dst from the
// inner model's bounded sweep, with the kernel's time ratio in the
// bound so that the sweep holds calibrated times against the headroom;
// else from its traced sweep, which prices every row; else, when the
// inner model has neither or its sweeps decline the space, with one
// PredictKernel per configuration under one forest-eval span. Either
// sweep's power, and the traced sweep's time, then take the kernel's
// ratio: the same multiplications the scalar path performs. Over the
// compiled model it allocates nothing once the model's plan is built
// (TestPredictSpaceWithinZeroAllocThroughCalibrated).
func (c *Calibrated) PredictSpaceWithin(cs counters.Set, space hw.Space, dst []Estimate, headroomMS float64, failSafe int, tc *telemetry.Context) {
	r := c.ratios[counters.SignatureOf(cs)]
	b := SweepBound{HeadroomMS: headroomMS, FailSafe: failSafe}
	if r != nil {
		b.TimeRatio, b.HasRatio = r.time, true
	}
	switch {
	case c.bounded != nil && c.bounded.PredictSpaceWithin(cs, space, dst, b, tc):
		if r != nil {
			for i := range dst {
				dst[i].GPUPowerW *= r.power
			}
		}
	case c.traced != nil && c.traced.PredictSpaceTraced(cs, space, dst, tc):
		if r != nil {
			for i := range dst {
				dst[i].TimeMS *= r.time
				dst[i].GPUPowerW *= r.power
			}
		}
	default:
		sp := tc.Start(telemetry.SpanForestEval)
		for i := range dst {
			dst[i] = c.PredictKernel(cs, space.At(i))
		}
		sp.End()
	}
}

// Feedback records the measured outcome of one executed kernel, updates
// its correction ratio, and returns the calibrated estimate from before
// the update — raw times old ratio, exactly what PredictKernel
// returned. Against the measurement, that estimate is the model error
// the Fig. 6 loop absorbs; this is the one place it is computed.
//
// The ratio moves only when both measured/raw quotients are finite and
// positive. A non-positive measurement or prediction leaves it
// untouched, and so does a non-finite one: a kernel whose counters
// overflow its work volume (VALUInsts × GlobalWorkSize) is priced at
// +Inf, and a time ratio of measured/+Inf = 0 would turn every later
// time of the kernel into NaN, which meets any headroom.
func (c *Calibrated) Feedback(cs counters.Set, cfg hw.Config, measuredTimeMS, measuredGPUPowerW float64) Estimate {
	raw, sig, r := c.raw(&cs, cfg, math.Inf(1))
	est := raw
	if r != nil {
		est.TimeMS *= r.time
		est.GPUPowerW *= r.power
	}
	rt := measuredTimeMS / raw.TimeMS
	rp := measuredGPUPowerW / raw.GPUPowerW
	if !usableRatio(rt) || !usableRatio(rp) {
		return est
	}
	if r != nil {
		r.time = (1-calibWeight)*r.time + calibWeight*rt
		r.power = (1-calibWeight)*r.power + calibWeight*rp
	} else {
		c.ratios[sig] = &calibRatio{time: rt, power: rp}
	}
	return est
}

// usableRatio reports whether a measured/raw quotient may enter a
// correction ratio: finite and positive (NaN fails the comparison).
func usableRatio(q float64) bool { return q > 0 && q <= math.MaxFloat64 }

// KnownKernels returns the number of signatures with feedback state.
func (c *Calibrated) KnownKernels() int { return len(c.ratios) }

// Compile-time interface check for the time-first scalar path.
var _ SplitEvaluator = (*RandomForest)(nil)
