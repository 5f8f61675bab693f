package predict

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"

	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/rf"
)

// oracleSamples synthesizes a served-traffic sample set: random kernels
// measured by the oracle across the default configuration space, the
// same ground truth offline training uses.
func oracleSamples(t *testing.T, nKernels int, seed int64) []Sample {
	t.Helper()
	o := NewOracle()
	rng := rand.New(rand.NewSource(seed))
	space := hw.DefaultSpace()
	var out []Sample
	for i := 0; i < nKernels; i++ {
		k := kernel.Random(fmt.Sprintf("onl-%d", i), rng)
		o.Register(k)
		cs := k.Counters()
		for j := 0; j < 6; j++ {
			c := space.At(rng.Intn(space.Size()))
			e := o.PredictKernel(cs, c)
			out = append(out, Sample{Counters: cs, Config: c, TimeMS: e.TimeMS, GPUPowerW: e.GPUPowerW})
		}
	}
	return out
}

func TestSampleValid(t *testing.T) {
	k := kernel.NewBalanced("v", 1)
	good := Sample{Counters: k.Counters(), Config: hw.FailSafe(), TimeMS: 1.5, GPUPowerW: 20}
	if !good.Valid() {
		t.Fatal("well-formed sample rejected")
	}
	cases := []Sample{
		{Counters: k.Counters(), Config: hw.FailSafe(), TimeMS: 0, GPUPowerW: 20},
		{Counters: k.Counters(), Config: hw.FailSafe(), TimeMS: -1, GPUPowerW: 20},
		{Counters: k.Counters(), Config: hw.FailSafe(), TimeMS: 1, GPUPowerW: 0},
		{Counters: k.Counters(), Config: hw.FailSafe(), TimeMS: math.NaN(), GPUPowerW: 20},
		{Counters: k.Counters(), Config: hw.FailSafe(), TimeMS: math.Inf(1), GPUPowerW: 20},
		{Counters: k.Counters(), Config: hw.FailSafe(), TimeMS: 1, GPUPowerW: math.Inf(1)},
	}
	for i, s := range cases {
		if s.Valid() {
			t.Fatalf("case %d: invalid sample accepted: %+v", i, s)
		}
	}
	bad := good
	bad.Counters[0] = math.NaN()
	if bad.Valid() {
		t.Fatal("sample with NaN counter accepted")
	}
}

// TestTrainOnSamplesDeterministicAndAccurate: training twice on the
// same samples yields bit-identical predictions, and the model actually
// learns the oracle to well under 50% MAPE on its own training data.
func TestTrainOnSamplesDeterministicAndAccurate(t *testing.T) {
	samples := oracleSamples(t, 30, 11)
	fcfg := OnlineForestConfig(42)
	fcfg.NumTrees = 16
	m1, err := TrainOnSamples(samples, fcfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := TrainOnSamples(samples, fcfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples[:20] {
		a := m1.PredictKernel(s.Counters, s.Config)
		b := m2.PredictKernel(s.Counters, s.Config)
		if math.Float64bits(a.TimeMS) != math.Float64bits(b.TimeMS) ||
			math.Float64bits(a.GPUPowerW) != math.Float64bits(b.GPUPowerW) {
			t.Fatalf("retrain with different worker counts differs: %+v vs %+v", a, b)
		}
	}
	tm, pm, n := EvaluateOnSamples(m1, samples)
	if n != len(samples) {
		t.Fatalf("evaluated %d of %d samples", n, len(samples))
	}
	if tm > 0.5 || pm > 0.5 {
		t.Fatalf("online model failed to fit its own training data: time MAPE %.3f power MAPE %.3f", tm, pm)
	}
}

// TestTrainOnSamplesMatchesOfflineTransforms checks the online path
// produces the same matrix the offline trainer would: a model trained
// on oracle samples agrees with one trained via sampleMatrix + rf
// directly, pinning the featurization/target transforms together. The
// candidate keeps only its compiled forests, as a loaded model does.
func TestTrainOnSamplesMatchesOfflineTransforms(t *testing.T) {
	samples := oracleSamples(t, 10, 3)
	fcfg := rf.Config{NumTrees: 6, MaxDepth: 8, MinLeaf: 2, MaxFeatures: numRFFeatures / 2,
		NumThresh: 16, SampleFrac: 0.8, Seed: 9, Workers: 1}
	m, err := TrainOnSamples(samples, fcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tf, pf := m.Forests(); tf != nil || pf != nil {
		t.Fatal("TrainOnSamples kept the tree form")
	}
	if err := SaveModel(io.Discard, m); err == nil {
		t.Fatal("SaveModel accepted a model without its tree form")
	}
	X, yTime, yPower := sampleMatrix(samples)
	tf, err := rf.Train(X, yTime, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := fcfg
	pcfg.Seed++
	pf, err := rf.Train(X, yPower, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewFromForests(tf, pf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		a := m.PredictKernel(s.Counters, s.Config)
		b := want.PredictKernel(s.Counters, s.Config)
		if math.Float64bits(a.TimeMS) != math.Float64bits(b.TimeMS) ||
			math.Float64bits(a.GPUPowerW) != math.Float64bits(b.GPUPowerW) {
			t.Fatalf("TrainOnSamples differs from manual rf path: %+v vs %+v", a, b)
		}
	}
}

func TestTrainOnSamplesValidation(t *testing.T) {
	if _, err := TrainOnSamples(nil, OnlineForestConfig(1), 1); err == nil {
		t.Fatal("TrainOnSamples accepted an empty sample set")
	}
}

func TestEvaluateOnSamplesEdgeCases(t *testing.T) {
	o := NewOracle()
	k := kernel.NewBalanced("e", 1)
	o.Register(k)
	tm, pm, n := EvaluateOnSamples(o, nil)
	if tm != 0 || pm != 0 || n != 0 {
		t.Fatalf("empty evaluation returned %v %v %d", tm, pm, n)
	}
	// Oracle evaluated against its own measurements is exact.
	s := Sample{Counters: k.Counters(), Config: hw.FailSafe()}
	e := o.PredictKernel(s.Counters, s.Config)
	s.TimeMS, s.GPUPowerW = e.TimeMS, e.GPUPowerW
	tm, pm, n = EvaluateOnSamples(o, []Sample{s, {Counters: k.Counters(), Config: hw.FailSafe()}})
	if n != 1 {
		t.Fatalf("evaluated %d samples, want 1 (zero-measurement sample skipped)", n)
	}
	if tm != 0 || pm != 0 {
		t.Fatalf("oracle self-evaluation nonzero: time %v power %v", tm, pm)
	}
}
