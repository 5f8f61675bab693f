package predict

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/rf"
)

// numConfigFeatures is the count of configuration-derived features
// appended to the eight counters.
const numConfigFeatures = 6

// numRFFeatures is the full Random Forest feature dimensionality:
// the eight Table III counters followed by the configuration features.
const numRFFeatures = counters.NumCounters + numConfigFeatures

// counterPrefix writes the log-compressed Table III counters into the
// first counters.NumCounters slots of x. Within one configuration sweep
// only the config suffix changes, so the prefix is computed once per
// kernel and patched — never re-derived per configuration.
func counterPrefix(x []float64, cs counters.Set) {
	for i, v := range cs {
		x[i] = math.Log1p(math.Max(0, v))
	}
}

// patchConfig writes the physical configuration features the
// ground-truth behaviour actually depends on (GPU frequency, shared rail
// voltage, CU count, NB frequency, memory bandwidth, CPU power estimate
// for the thermal coupling) into the suffix slots of x, in place.
func patchConfig(x []float64, c hw.Config) {
	x[counters.NumCounters+0] = c.GPU.FreqGHz()
	x[counters.NumCounters+1] = c.RailVoltage()
	x[counters.NumCounters+2] = float64(c.CUs)
	x[counters.NumCounters+3] = c.NB.FreqGHz()
	x[counters.NumCounters+4] = c.NB.MemBWGBs()
	x[counters.NumCounters+5] = CPUPowerW(c.CPU)
}

// featurizeInto assembles the full feature vector into the caller-owned
// x (len numRFFeatures): counter prefix plus config suffix. The hot
// paths pass a stack buffer here so a prediction allocates nothing.
//
//mpclint:hotpath pinned at 0 allocs/op by TestFeaturizeZeroAlloc
func featurizeInto(x []float64, cs counters.Set, c hw.Config) {
	counterPrefix(x, cs)
	patchConfig(x, c)
}

// featurize is the allocating convenience used when rows are being
// accumulated anyway (training-data generation).
func featurize(cs counters.Set, c hw.Config) []float64 {
	x := make([]float64, numRFFeatures)
	featurizeInto(x, cs, c)
	return x
}

// RandomForest is the paper's deployed predictor: two forests trained
// offline on a synthetic kernel population (§IV-A3). The time forest
// regresses log inverse-throughput (time per instruction) rather than raw
// time: the kernel's work volume is already encoded in its counters
// (VALUInsts × GlobalWorkSize), so normalizing it out of the target
// leaves the forest the learnable part — configuration scaling and
// kernel shape — and removes two orders of magnitude of target spread.
//
// Every prediction runs on the compiled forests, built from the tree
// form at train or load time. Only a model from TrainRandomForest keeps
// the tree form as well, for SaveModel and FeatureImportance; a model
// from LoadModel or TrainOnSamples holds the compiled forests alone.
type RandomForest struct {
	// The tree form: log(ms per instruction) and GPU+NB watts. Nil on
	// a loaded model and on a TrainOnSamples candidate.
	timeForest  *rf.Forest
	powerForest *rf.Forest

	// The serving form, derived and never persisted (SaveModel writes
	// only the canonical tree form), bit-identical to walking the trees
	// (see NewTreeWalk for the reference).
	timeCompiled  *rf.CompiledForest
	powerCompiled *rf.CompiledForest

	// plan is the immutable grid plan behind PredictSpace, shared
	// by concurrent sweeps and rebuilt (by planFor) whenever the swept
	// space changes.
	plan atomic.Pointer[sweepPlan]
	// Cumulative plan lookups, plus the optional metrics mirror
	// installed by InstrumentArenaPool.
	arenaHits, arenaMisses atomic.Uint64
	arenaInstr             atomic.Pointer[arenaInstr]
}

// instsOf recovers the instruction count encoded in a counter set.
func instsOf(cs counters.Set) float64 {
	insts := cs[counters.VALUInsts] * cs[counters.GlobalWorkSize]
	if insts <= 0 {
		return 1
	}
	return insts
}

// Name implements Model.
func (m *RandomForest) Name() string { return "random-forest" }

// PredictKernel implements Model. The feature vector lives in a stack
// buffer and the compiled forests descend on it, so one prediction
// allocates nothing in steady state (pinned by
// TestPredictKernelZeroAlloc).
//
//mpclint:hotpath pinned at 0 allocs/op by TestPredictKernelZeroAlloc
func (m *RandomForest) PredictKernel(cs counters.Set, c hw.Config) Estimate {
	var buf [numRFFeatures]float64
	featurizeInto(buf[:], cs, c)
	return estimate(cs, m.timeCompiled.Predict(buf[:]), m.powerCompiled.Predict(buf[:]))
}

// PredictTime implements SplitEvaluator with the time forest alone:
// PredictKernel's TimeMS, bit for bit.
//
//mpclint:hotpath pinned at 0 allocs/op by TestPredictKernelZeroAlloc
func (m *RandomForest) PredictTime(cs counters.Set, c hw.Config) float64 {
	var buf [numRFFeatures]float64
	featurizeInto(buf[:], cs, c)
	return timeMS(cs, m.timeCompiled.Predict(buf[:]))
}

// PredictPower implements SplitEvaluator with the power forest alone:
// PredictKernel's GPUPowerW, bit for bit.
//
//mpclint:hotpath pinned at 0 allocs/op by TestPredictKernelZeroAlloc
func (m *RandomForest) PredictPower(cs counters.Set, c hw.Config) float64 {
	var buf [numRFFeatures]float64
	featurizeInto(buf[:], cs, c)
	return m.powerCompiled.Predict(buf[:])
}

// estimate assembles a prediction from the two forests' outputs for a
// kernel with counters cs.
func estimate(cs counters.Set, logTimePerInst, powerW float64) Estimate {
	return Estimate{TimeMS: timeMS(cs, logTimePerInst), GPUPowerW: powerW}
}

// timeMS scales the time forest's log time per instruction back to
// milliseconds for a kernel with counters cs.
func timeMS(cs counters.Set, logTimePerInst float64) float64 {
	return math.Exp(logTimePerInst) * instsOf(cs)
}

// CompiledForests exposes the compiled forests every prediction runs
// on; every model has them.
func (m *RandomForest) CompiledForests() (timeForest, powerForest *rf.CompiledForest) {
	return m.timeCompiled, m.powerCompiled
}

// treeWalk is the reference predictor: the same features and the same
// final operations as RandomForest.PredictKernel, with the tree-walking
// forests in place of the compiled ones.
type treeWalk struct {
	timeForest, powerForest *rf.Forest
}

// NewTreeWalk returns the reference predictor over a forest pair's tree
// form — a trained model's Forests(), or ReadForests of a model file.
// It walks the trees, scalar only (no SpaceEvaluator), and must predict
// bit-identically to the RandomForest compiled from the same pair: that
// is what the compiled engine's tests and tree-walk benchmarks compare
// against. It is not a serving path.
func NewTreeWalk(timeForest, powerForest *rf.Forest) (Model, error) {
	if err := checkForests(timeForest, powerForest); err != nil {
		return nil, err
	}
	return treeWalk{timeForest: timeForest, powerForest: powerForest}, nil
}

// Name implements Model.
func (m treeWalk) Name() string { return "random-forest-treewalk" }

// PredictKernel implements Model.
func (m treeWalk) PredictKernel(cs counters.Set, c hw.Config) Estimate {
	var buf [numRFFeatures]float64
	featurizeInto(buf[:], cs, c)
	return estimate(cs, m.timeForest.Predict(buf[:]), m.powerForest.Predict(buf[:]))
}

// TrainOptions controls offline Random Forest training.
type TrainOptions struct {
	// NumKernels is the size of the synthetic training population drawn
	// from kernel.Random. The population overlaps, but does not equal,
	// the evaluation benchmarks — the model must generalize, which is
	// where its ~25%/12% MAPE comes from.
	NumKernels int
	// Space is the configuration space to sample; every kernel is
	// measured at every configuration, as on the paper's testbed.
	Space hw.Space
	// NoiseFrac adds multiplicative Gaussian measurement noise to the
	// training targets (power-controller samples are noisy at 1 ms
	// granularity).
	NoiseFrac float64
	// Seed makes training deterministic.
	Seed int64
	// Workers is the number of goroutines growing forest trees
	// concurrently (<= 0 uses the process default, 1 is serial). The
	// trained model is bit-identical for every value; see package rf.
	Workers int
	// Forest overrides the forest hyperparameters; zero value uses
	// rf.DefaultConfig. A zero Forest.Workers inherits Workers above.
	Forest rf.Config
}

// DefaultTrainOptions returns the options used throughout the
// evaluation; they land the model at the paper's reported accuracy
// (≈25% time MAPE, ≈12% power MAPE on the benchmark suite).
func DefaultTrainOptions(seed int64) TrainOptions {
	return TrainOptions{
		NumKernels: 150,
		Space:      hw.DefaultSpace(),
		NoiseFrac:  0.08,
		Seed:       seed,
	}
}

// buildTrainingData deterministically regenerates the synthetic
// population and its measurements for the given options.
func buildTrainingData(opt TrainOptions) (X [][]float64, yTime, yPower []float64, err error) {
	if opt.NumKernels <= 0 {
		return nil, nil, nil, fmt.Errorf("predict: NumKernels = %d, must be positive", opt.NumKernels)
	}
	if opt.Space.Size() == 0 {
		return nil, nil, nil, fmt.Errorf("predict: empty configuration space")
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	n := opt.NumKernels * opt.Space.Size()
	X = make([][]float64, 0, n)
	yTime = make([]float64, 0, n)
	yPower = make([]float64, 0, n)
	for i := 0; i < opt.NumKernels; i++ {
		k := kernel.Random(fmt.Sprintf("train%03d", i), rng)
		cs := k.Counters()
		opt.Space.ForEach(func(c hw.Config) {
			m := k.Evaluate(c)
			noiseT := 1 + opt.NoiseFrac*rng.NormFloat64()
			noiseP := 1 + opt.NoiseFrac*rng.NormFloat64()
			X = append(X, featurize(cs, c))
			yTime = append(yTime, math.Log(m.TimeMS*math.Max(0.2, noiseT)/instsOf(cs)))
			yPower = append(yPower, (m.GPUW+m.NBW)*math.Max(0.2, noiseP))
		})
	}
	return X, yTime, yPower, nil
}

// TrainRandomForest generates the synthetic population, measures it on
// the ground-truth model at every configuration in the space, and trains
// the two forests.
func TrainRandomForest(opt TrainOptions) (*RandomForest, error) {
	X, yTime, yPower, err := buildTrainingData(opt)
	if err != nil {
		return nil, err
	}

	fcfg := opt.Forest
	if fcfg.NumTrees == 0 {
		fcfg = rf.DefaultConfig(opt.Seed + 1)
		fcfg.MaxDepth = 14
		// Time and power depend on interactions between counters and
		// config features; sqrt(d) feature sampling starves the trees of
		// the config features, so consider half the features per split.
		fcfg.MaxFeatures = (counters.NumCounters + numConfigFeatures) / 2
	}
	if fcfg.Workers == 0 {
		fcfg.Workers = opt.Workers
	}
	tf, err := rf.Train(X, yTime, fcfg)
	if err != nil {
		return nil, fmt.Errorf("predict: time forest: %w", err)
	}
	fcfg.Seed++
	pf, err := rf.Train(X, yPower, fcfg)
	if err != nil {
		return nil, fmt.Errorf("predict: power forest: %w", err)
	}
	return NewFromForests(tf, pf)
}

// Forests exposes the tree form of a model from TrainRandomForest (for
// serialization and inspection). A model from LoadModel or
// TrainOnSamples keeps only its compiled forests, and Forests returns
// nil, nil for it.
func (m *RandomForest) Forests() (timeForest, powerForest *rf.Forest) {
	return m.timeForest, m.powerForest
}

// errNoTrees is what the operations that need the tree form return on
// a model that holds only the compiled forests.
var errNoTrees = errors.New("predict: the model holds no tree form (a loaded or online-trained model keeps only its compiled forests)")

// FeatureNames returns the names of the model's input features in
// vector order: the eight Table III counters followed by the
// configuration features.
func FeatureNames() []string {
	names := make([]string, 0, counters.NumCounters+numConfigFeatures)
	names = append(names, counters.Names[:]...)
	return append(names, "gpuFreqGHz", "railVoltage", "numCUs", "nbFreqGHz", "memBWGBs", "cpuPowerW")
}

// FeatureImportance regenerates the training data for opt (which must be
// the options the model was trained with) and returns the normalized
// mean-decrease-in-impurity importance of each feature for the time and
// power forests. It needs the tree form, so it fails on a model from
// LoadModel or TrainOnSamples.
func (m *RandomForest) FeatureImportance(opt TrainOptions) (timeImp, powerImp []float64, err error) {
	if m.timeForest == nil {
		return nil, nil, errNoTrees
	}
	X, yTime, yPower, err := buildTrainingData(opt)
	if err != nil {
		return nil, nil, err
	}
	timeImp, err = m.timeForest.FeatureImportance(X, yTime)
	if err != nil {
		return nil, nil, err
	}
	powerImp, err = m.powerForest.FeatureImportance(X, yPower)
	if err != nil {
		return nil, nil, err
	}
	return timeImp, powerImp, nil
}

// NewFromForests builds a RandomForest from a forest pair and keeps the
// tree form next to the compiled one, as TrainRandomForest does.
// LoadModel and TrainOnSamples compile without keeping the trees.
func NewFromForests(timeForest, powerForest *rf.Forest) (*RandomForest, error) {
	m, err := compileForests(timeForest, powerForest)
	if err != nil {
		return nil, err
	}
	m.timeForest, m.powerForest = timeForest, powerForest
	return m, nil
}

// compileForests builds the serving form of a forest pair: both forests
// compiled into the flat-node pools, the tree form not retained.
func compileForests(timeForest, powerForest *rf.Forest) (*RandomForest, error) {
	if err := checkForests(timeForest, powerForest); err != nil {
		return nil, err
	}
	tc, err := timeForest.Compile()
	if err != nil {
		return nil, fmt.Errorf("predict: compile time forest: %w", err)
	}
	pc, err := powerForest.Compile()
	if err != nil {
		return nil, fmt.Errorf("predict: compile power forest: %w", err)
	}
	return &RandomForest{timeCompiled: tc, powerCompiled: pc}, nil
}

// checkForests rejects a forest pair that is not this package's
// predictor: a missing forest or the wrong feature dimensionality.
func checkForests(timeForest, powerForest *rf.Forest) error {
	if timeForest == nil || powerForest == nil {
		return fmt.Errorf("predict: nil forest")
	}
	if timeForest.NumFeatures() != numRFFeatures || powerForest.NumFeatures() != numRFFeatures {
		return fmt.Errorf("predict: forests expect %d/%d features, want %d",
			timeForest.NumFeatures(), powerForest.NumFeatures(), numRFFeatures)
	}
	return nil
}
