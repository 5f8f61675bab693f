package predict

import (
	"math"
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
