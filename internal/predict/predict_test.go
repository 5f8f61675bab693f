package predict

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/rf"
)

func benchmarkKernels() []kernel.Kernel {
	return []kernel.Kernel{
		kernel.NewComputeBound("cb", 1),
		kernel.NewMemoryBound("mb", 1),
		kernel.NewPeak("pk", 1),
		kernel.NewUnscalable("us", 1),
		kernel.NewBalanced("ba", 1),
		kernel.NewComputeBound("cb2", 2.5),
		kernel.NewMemoryBound("mb2", 0.5),
	}
}

func TestCPUPowerModelTracksGroundTruth(t *testing.T) {
	// The normalized V²f model is anchored at P5 and approximates the
	// ground truth elsewhere.
	if got, want := CPUPowerW(hw.P5), kernel.CPUPowerW(hw.P5); math.Abs(got-want) > 1e-9 {
		t.Fatalf("anchor state: got %v, want %v", got, want)
	}
	for p := hw.P1; p <= hw.P7; p++ {
		est, truth := CPUPowerW(p), kernel.CPUPowerW(p)
		if d := math.Abs(est-truth) / truth; d > 0.25 {
			t.Errorf("%s: V²f estimate %v vs truth %v (%.0f%% off)", p, est, truth, 100*d)
		}
	}
	// Monotone in P-state.
	for p := hw.P2; p <= hw.P7; p++ {
		if CPUPowerW(p) >= CPUPowerW(p-1) {
			t.Errorf("CPU power not decreasing at %s", p)
		}
	}
}

func TestOracleIsPerfect(t *testing.T) {
	o := NewOracle()
	ks := benchmarkKernels()
	for _, k := range ks {
		o.Register(k)
	}
	if o.Len() != len(ks) {
		t.Fatalf("oracle has %d kernels, want %d", o.Len(), len(ks))
	}
	tm, pm := MAPE(o, ks, hw.DefaultSpace())
	if tm != 0 || pm != 0 {
		t.Errorf("oracle MAPE = %v/%v, want 0/0", tm, pm)
	}
}

func TestOracleNearestFallback(t *testing.T) {
	o := NewOracle()
	k := kernel.NewComputeBound("cb", 1)
	o.Register(k)
	cs := k.Counters()
	cs[0] *= 1.001 // slightly perturbed counters still resolve
	e := o.PredictKernel(cs, hw.FailSafe())
	m := k.Evaluate(hw.FailSafe())
	if e.TimeMS != m.TimeMS {
		t.Errorf("nearest fallback time = %v, want %v", e.TimeMS, m.TimeMS)
	}
}

func TestEmptyOraclePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty oracle did not panic")
		}
	}()
	NewOracle().PredictKernel(kernel.NewBalanced("b", 1).Counters(), hw.FailSafe())
}

func TestEnergyMJIncludesCPU(t *testing.T) {
	o := NewOracle()
	k := kernel.NewBalanced("b", 1)
	o.Register(k)
	cs := k.Counters()
	cLow := hw.Config{CPU: hw.P7, NB: hw.NB0, GPU: hw.DPM4, CUs: 8}
	cHigh := hw.Config{CPU: hw.P1, NB: hw.NB0, GPU: hw.DPM4, CUs: 8}
	eLow := EnergyMJ(o.PredictKernel(cs, cLow), cLow)
	eHigh := EnergyMJ(o.PredictKernel(cs, cHigh), cHigh)
	if eLow >= eHigh {
		t.Errorf("P7 energy %v not below P1 energy %v (CPU term missing?)", eLow, eHigh)
	}
}

func TestWithErrorDeterministic(t *testing.T) {
	o := NewOracle()
	k := kernel.NewBalanced("b", 1)
	o.Register(k)
	w := NewWithError(o, 0.15, 0.10, 5)
	cs := k.Counters()
	c := hw.FailSafe()
	e1 := w.PredictKernel(cs, c)
	e2 := w.PredictKernel(cs, c)
	if e1 != e2 {
		t.Error("WithError not deterministic for a fixed (counters, config)")
	}
	// Different configs get different errors.
	e3 := w.PredictKernel(cs, hw.MaxPerf())
	truth1 := o.PredictKernel(cs, c)
	truth3 := o.PredictKernel(cs, hw.MaxPerf())
	r1 := e1.TimeMS / truth1.TimeMS
	r3 := e3.TimeMS / truth3.TimeMS
	if r1 == r3 {
		t.Error("identical error ratio across configs (suspicious)")
	}
}

func TestWithErrorMeanMagnitude(t *testing.T) {
	o := NewOracle()
	rng := rand.New(rand.NewSource(21))
	var ks []kernel.Kernel
	for i := 0; i < 40; i++ {
		k := kernel.Random("k", rng)
		o.Register(k)
		ks = append(ks, k)
	}
	w := NewWithError(o, 0.15, 0.10, 1)
	tm, pm := MAPE(w, ks, hw.DefaultSpace())
	if tm < 0.10 || tm > 0.20 {
		t.Errorf("time MAPE = %v, want ~0.15", tm)
	}
	if pm < 0.06 || pm > 0.14 {
		t.Errorf("power MAPE = %v, want ~0.10", pm)
	}
}

func TestWithErrorZeroIsExact(t *testing.T) {
	o := NewOracle()
	k := kernel.NewBalanced("b", 1)
	o.Register(k)
	w := NewWithError(o, 0, 0, 1)
	cs := k.Counters()
	if got, want := w.PredictKernel(cs, hw.FailSafe()), o.PredictKernel(cs, hw.FailSafe()); got != want {
		t.Errorf("Err_0%% model differs from oracle: %v vs %v", got, want)
	}
}

func TestWithErrorNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative error mean did not panic")
		}
	}()
	NewWithError(NewOracle(), -0.1, 0, 1)
}

var (
	rfOnce  sync.Once
	rfModel *RandomForest
	rfErr   error
)

func trainedRF(t *testing.T) *RandomForest {
	t.Helper()
	rfOnce.Do(func() {
		opt := DefaultTrainOptions(1234)
		opt.NumKernels = 50 // keep unit tests fast
		rfModel, rfErr = TrainRandomForest(opt)
	})
	if rfErr != nil {
		t.Fatal(rfErr)
	}
	return rfModel
}

func TestRFTrainValidation(t *testing.T) {
	if _, err := TrainRandomForest(TrainOptions{}); err == nil {
		t.Error("zero options accepted")
	}
	if _, err := TrainRandomForest(TrainOptions{NumKernels: 1}); err == nil {
		t.Error("empty space accepted")
	}
}

func TestRFAccuracyInPaperRange(t *testing.T) {
	if testing.Short() {
		t.Skip("RF training is slow")
	}
	m := trainedRF(t)
	tm, pm := MAPE(m, benchmarkKernels(), hw.DefaultSpace())
	t.Logf("RF MAPE: time %.1f%%, power %.1f%% (paper: 25%% / 12%%)", 100*tm, 100*pm)
	// The paper reports 25% / 12%. Accept a generous band: the predictor
	// must be imperfect but usable.
	if tm > 0.45 {
		t.Errorf("time MAPE %.1f%% too high to be usable", 100*tm)
	}
	if pm > 0.30 {
		t.Errorf("power MAPE %.1f%% too high to be usable", 100*pm)
	}
	if tm < 0.02 && pm < 0.02 {
		t.Errorf("RF suspiciously perfect (%.2f%%/%.2f%%); evaluation would be vacuous", 100*tm, 100*pm)
	}
}

func TestRFPreservesScalingTrends(t *testing.T) {
	if testing.Short() {
		t.Skip("RF training is slow")
	}
	m := trainedRF(t)
	// The RF must rank configurations usefully even if absolute values
	// are off: memory-bound kernels should look much slower at NB3 than
	// NB0, compute-bound much slower at DPM0/2CU than DPM4/8CU.
	mb := kernel.NewMemoryBound("mb", 1).Counters()
	slow := m.PredictKernel(mb, hw.Config{CPU: hw.P5, NB: hw.NB3, GPU: hw.DPM4, CUs: 8})
	fast := m.PredictKernel(mb, hw.Config{CPU: hw.P5, NB: hw.NB0, GPU: hw.DPM4, CUs: 8})
	if slow.TimeMS <= fast.TimeMS {
		t.Errorf("RF misses NB sensitivity of memory-bound kernel: NB3 %.3f <= NB0 %.3f", slow.TimeMS, fast.TimeMS)
	}
	cb := kernel.NewComputeBound("cb", 1).Counters()
	slow = m.PredictKernel(cb, hw.Config{CPU: hw.P5, NB: hw.NB0, GPU: hw.DPM0, CUs: 2})
	fast = m.PredictKernel(cb, hw.Config{CPU: hw.P5, NB: hw.NB0, GPU: hw.DPM4, CUs: 8})
	if slow.TimeMS <= fast.TimeMS {
		t.Errorf("RF misses GPU sensitivity of compute-bound kernel: %.3f <= %.3f", slow.TimeMS, fast.TimeMS)
	}
}

func TestRFRoundTripThroughForests(t *testing.T) {
	if testing.Short() {
		t.Skip("RF training is slow")
	}
	m := trainedRF(t)
	tf, pf := m.Forests()
	m2, err := NewFromForests(tf, pf)
	if err != nil {
		t.Fatal(err)
	}
	cs := kernel.NewBalanced("b", 1).Counters()
	if got, want := m2.PredictKernel(cs, hw.FailSafe()), m.PredictKernel(cs, hw.FailSafe()); got != want {
		t.Errorf("reassembled model differs: %v vs %v", got, want)
	}
	if _, err := NewFromForests(nil, pf); err == nil {
		t.Error("nil forest accepted")
	}
}

func TestModelNames(t *testing.T) {
	o := NewOracle()
	if o.Name() != "oracle" {
		t.Errorf("oracle name = %q", o.Name())
	}
	w := NewWithError(o, 0.15, 0.10, 1)
	if w.Name() != "err_15%_10%" {
		t.Errorf("error model name = %q", w.Name())
	}
	if (&RandomForest{}).Name() != "random-forest" {
		t.Errorf("rf name = %q", (&RandomForest{}).Name())
	}
}

func TestModelPersistRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("RF training is slow")
	}
	m := trainedRF(t)
	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	saved := bytes.Clone(buf.Bytes())
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cs := kernel.NewBalanced("b", 1).Counters()
	for _, cfg := range []hw.Config{hw.FailSafe(), hw.MaxPerf()} {
		if got, want := loaded.PredictKernel(cs, cfg), m.PredictKernel(cs, cfg); got != want {
			t.Errorf("loaded model differs at %v: %v vs %v", cfg, got, want)
		}
	}

	// The file's tree form, rebuilt into a trained-style model, saves
	// the same bytes: a save/load cycle loses nothing SaveModel writes.
	tf, pf, err := ReadForests(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NewFromForests(tf, pf)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := SaveModel(&again, rebuilt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved) {
		t.Fatalf("re-saved model differs: %d bytes vs %d", again.Len(), len(saved))
	}
}

// TestLoadedModelKeepsOnlyCompiledForm pins the model lifetime: a
// loaded model holds its compiled forests and no tree form, so
// Forests() is nil and the two operations that need trees return
// errors instead of panicking, while a trained model still saves the
// bytes the loaded one was read from.
func TestLoadedModelKeepsOnlyCompiledForm(t *testing.T) {
	m := quickRF(t)
	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	saved := bytes.Clone(buf.Bytes())
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tf, pf := loaded.Forests(); tf != nil || pf != nil {
		t.Fatal("loaded model kept its tree form")
	}
	if tc, pc := loaded.CompiledForests(); tc == nil || pc == nil {
		t.Fatal("loaded model has no compiled forests")
	}
	if err := SaveModel(io.Discard, loaded); err == nil {
		t.Error("SaveModel accepted a loaded model")
	}
	if _, _, err := loaded.FeatureImportance(DefaultTrainOptions(77)); err == nil {
		t.Error("FeatureImportance accepted a loaded model")
	}

	// The trained model is untouched by the save and saves again.
	var again bytes.Buffer
	if err := SaveModel(&again, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), saved) {
		t.Fatal("trained model saves different bytes the second time")
	}

	// The loaded model predicts what the trained one and the tree-walk
	// reference over the file's forests predict, bit for bit.
	tf, pf, err := ReadForests(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	walk, err := NewTreeWalk(tf, pf)
	if err != nil {
		t.Fatal(err)
	}
	cs := kernel.NewMemoryBound("mb", 1).Counters()
	hw.DefaultSpace().ForEach(func(c hw.Config) {
		got := loaded.PredictKernel(cs, c)
		for _, want := range []Estimate{m.PredictKernel(cs, c), walk.PredictKernel(cs, c)} {
			if math.Float64bits(got.TimeMS) != math.Float64bits(want.TimeMS) ||
				math.Float64bits(got.GPUPowerW) != math.Float64bits(want.GPUPowerW) {
				t.Fatalf("config %v: loaded %+v != %+v", c, got, want)
			}
		}
	})
}

// TestNewTreeWalkRejectsBadForests pins the reference constructor's
// validation: it takes only this package's forest pairs.
func TestNewTreeWalkRejectsBadForests(t *testing.T) {
	tf, pf := quickRF(t).Forests()
	if _, err := NewTreeWalk(nil, pf); err == nil {
		t.Error("NewTreeWalk accepted a nil forest")
	}
	X := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	narrow, err := rf.Train(X, []float64{1, 2, 3, 4}, rf.Config{NumTrees: 2, MaxDepth: 2, MinLeaf: 1, NumThresh: 4, SampleFrac: 1, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTreeWalk(tf, narrow); err == nil {
		t.Error("NewTreeWalk accepted a 2-feature forest")
	}
}

func TestSaveModelRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveModel(&buf, nil); err == nil {
		t.Error("nil model accepted")
	}
	if err := SaveModel(&buf, &RandomForest{}); err == nil {
		t.Error("empty model accepted")
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(strings.NewReader("garbage")); err == nil {
		t.Error("garbage accepted")
	}
}
