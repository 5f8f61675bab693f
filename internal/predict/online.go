package predict

import (
	"fmt"
	"math"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/rf"
)

// Sample is one served ground-truth tuple — the unit of online
// training: the counters a kernel reported, the configuration it ran
// at, and what was actually measured there. It is exactly the
// information /v1/observe carries, so the continuous trainer's
// reservoir is a bounded memory of live traffic, not a separate
// measurement campaign. The paper's "adaptive" in adaptive MPC is this
// loop: the deployed model keeps being refit to the workload it serves
// (DSO and Ilager et al. motivate the same static+runtime fusion in
// PAPERS.md).
type Sample struct {
	Counters  counters.Set `json:"counters"`
	Config    hw.Config    `json:"config"`
	TimeMS    float64      `json:"time_ms"`
	GPUPowerW float64      `json:"gpu_power_w"`
}

// Valid reports whether the sample can participate in training: both
// measurements positive and finite (the relative-error evaluation
// divides by the measurement), every counter finite, and a finite time
// target. The target is the log of time per instruction, so finite
// counters whose work volume (VALUInsts × GlobalWorkSize) overflows
// give it −Inf, and a forest fitted to it prices clean kernels at 0 ms.
func (s Sample) Valid() bool {
	if s.TimeMS <= 0 || s.GPUPowerW <= 0 ||
		math.IsInf(s.TimeMS, 0) || math.IsInf(s.GPUPowerW, 0) ||
		math.IsNaN(s.TimeMS) || math.IsNaN(s.GPUPowerW) {
		return false
	}
	for _, v := range s.Counters {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	t := timeTarget(s)
	return !math.IsInf(t, 0) && !math.IsNaN(t)
}

// timeTarget is the time forest's training target for s: the log of
// its time per instruction.
func timeTarget(s Sample) float64 { return math.Log(s.TimeMS / instsOf(s.Counters)) }

// sampleMatrix featurizes samples into the forests' training matrix and
// target vectors, applying the exact transforms offline training uses
// (log-compressed counters + config features; log time-per-instruction
// and raw power targets), so an online-trained model is the same kind
// of object as the shipped one.
func sampleMatrix(samples []Sample) (X [][]float64, yTime, yPower []float64) {
	X = make([][]float64, 0, len(samples))
	yTime = make([]float64, 0, len(samples))
	yPower = make([]float64, 0, len(samples))
	for _, s := range samples {
		X = append(X, featurize(s.Counters, s.Config))
		yTime = append(yTime, timeTarget(s))
		yPower = append(yPower, s.GPUPowerW)
	}
	return X, yTime, yPower
}

// OnlineForestConfig returns the forest hyperparameters continuous
// retraining uses by default: the offline shape (half the features per
// split, depth 14) at a reduced tree count, sized so a retrain round
// on a few thousand reservoir samples completes in well under a second.
func OnlineForestConfig(seed int64) rf.Config {
	cfg := rf.DefaultConfig(seed)
	cfg.NumTrees = 24
	cfg.MaxDepth = 14
	cfg.MaxFeatures = numRFFeatures / 2
	return cfg
}

// TrainOnSamples trains a RandomForest predictor on served ground-truth
// samples. fcfg seeds and shapes the time forest; the power forest uses
// fcfg.Seed+1, mirroring TrainRandomForest's offline scheme. A zero
// fcfg.Workers inherits workers. Invalid samples must already be
// filtered out (the reservoir never admits them); they would poison the
// log targets. The model keeps only the compiled forests, as a loaded
// one does: nothing reads a candidate's trees after the promotion gate.
func TrainOnSamples(samples []Sample, fcfg rf.Config, workers int) (*RandomForest, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("predict: no training samples")
	}
	if fcfg.NumTrees == 0 {
		fcfg = OnlineForestConfig(fcfg.Seed)
	}
	if fcfg.Workers == 0 {
		fcfg.Workers = workers
	}
	X, yTime, yPower := sampleMatrix(samples)
	tf, err := rf.Train(X, yTime, fcfg)
	if err != nil {
		return nil, fmt.Errorf("predict: time forest: %w", err)
	}
	fcfg.Seed++
	pf, err := rf.Train(X, yPower, fcfg)
	if err != nil {
		return nil, fmt.Errorf("predict: power forest: %w", err)
	}
	return compileForests(tf, pf)
}

// EvaluateOnSamples measures a model's mean absolute relative errors
// (fractions) for time and power over held-out samples — the number the
// promotion gate compares against its ceiling, and the baseline the
// drift scoreboard is seeded with after a promotion. Samples for which
// no meaningful relative error exists (non-positive measurements) are
// skipped; evaluating zero usable samples returns (0, 0, 0).
func EvaluateOnSamples(m Model, samples []Sample) (timeMAPE, powerMAPE float64, evaluated int) {
	var ts, ps float64
	for _, s := range samples {
		if s.TimeMS <= 0 || s.GPUPowerW <= 0 {
			continue
		}
		e := m.PredictKernel(s.Counters, s.Config)
		ts += math.Abs(e.TimeMS-s.TimeMS) / s.TimeMS
		ps += math.Abs(e.GPUPowerW-s.GPUPowerW) / s.GPUPowerW
		evaluated++
	}
	if evaluated == 0 {
		return 0, 0, 0
	}
	return ts / float64(evaluated), ps / float64(evaluated), evaluated
}
