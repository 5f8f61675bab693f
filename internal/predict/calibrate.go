package predict

import (
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
type Calibrated struct {
	inner  Model
	ratios map[counters.Signature]*calibRatio
}

type calibRatio struct {
	time, power float64
}

// NewCalibrated wraps inner with an empty feedback store.
func NewCalibrated(inner Model) *Calibrated {
	return &Calibrated{inner: inner, ratios: map[counters.Signature]*calibRatio{}}
}

// Name implements Model.
func (c *Calibrated) Name() string { return c.inner.Name() + "+feedback" }

// PredictKernel implements Model, applying the kernel's learned
// correction ratio when one exists.
func (c *Calibrated) PredictKernel(cs counters.Set, cfg hw.Config) Estimate {
	e := c.inner.PredictKernel(cs, cfg)
	if r, ok := c.ratios[counters.SignatureOf(cs)]; ok {
		e.TimeMS *= r.time
		e.GPUPowerW *= r.power
	}
	return e
}

// PredictSpace implements SpaceEvaluator by forwarding to the wrapped
// model's batched path and applying the kernel's correction ratio to
// every estimate — the same two multiplications the scalar path
// performs, so batched and scalar calibrated predictions stay
// bit-identical. Returns false when the inner model has no usable
// batched path; the optimizer then fills its sweep per configuration.
func (c *Calibrated) PredictSpace(cs counters.Set, space hw.Space, dst []Estimate) bool {
	se, ok := c.inner.(SpaceEvaluator)
	if !ok || !se.PredictSpace(cs, space, dst) {
		return false
	}
	c.applyRatio(cs, dst)
	return true
}

// PredictSpaceTraced implements TracedSpaceEvaluator by forwarding the
// trace context to the wrapped model when it is trace-aware, falling
// back to the untraced batched path otherwise (same estimates, no
// featurize/forest-eval spans).
func (c *Calibrated) PredictSpaceTraced(cs counters.Set, space hw.Space, dst []Estimate, tc *telemetry.Context) bool {
	tse, ok := c.inner.(TracedSpaceEvaluator)
	if !ok {
		return c.PredictSpace(cs, space, dst)
	}
	if !tse.PredictSpaceTraced(cs, space, dst, tc) {
		return false
	}
	c.applyRatio(cs, dst)
	return true
}

// applyRatio applies the kernel's learned correction ratio to every
// estimate of a batched sweep — the same two multiplications the
// scalar path performs.
func (c *Calibrated) applyRatio(cs counters.Set, dst []Estimate) {
	if r, ok := c.ratios[counters.SignatureOf(cs)]; ok {
		for i := range dst {
			dst[i].TimeMS *= r.time
			dst[i].GPUPowerW *= r.power
		}
	}
}

// Feedback records the measured outcome of one executed kernel, updates
// its correction ratio (non-positive measurements or predictions leave
// it untouched), and returns the calibrated estimate from before the
// update — raw times old ratio, exactly what PredictKernel returned.
// Against the measurement, that estimate is the model error the Fig. 6
// loop absorbs; this is the one place it is computed.
func (c *Calibrated) Feedback(cs counters.Set, cfg hw.Config, measuredTimeMS, measuredGPUPowerW float64) Estimate {
	raw := c.inner.PredictKernel(cs, cfg)
	sig := counters.SignatureOf(cs)
	r, ok := c.ratios[sig]
	est := raw
	if ok {
		est.TimeMS *= r.time
		est.GPUPowerW *= r.power
	}
	if raw.TimeMS <= 0 || raw.GPUPowerW <= 0 || measuredTimeMS <= 0 || measuredGPUPowerW <= 0 {
		return est
	}
	rt := measuredTimeMS / raw.TimeMS
	rp := measuredGPUPowerW / raw.GPUPowerW
	if ok {
		r.time = (1-calibWeight)*r.time + calibWeight*rt
		r.power = (1-calibWeight)*r.power + calibWeight*rp
	} else {
		c.ratios[sig] = &calibRatio{time: rt, power: rp}
	}
	return est
}

// KnownKernels returns the number of signatures with feedback state.
func (c *Calibrated) KnownKernels() int { return len(c.ratios) }
