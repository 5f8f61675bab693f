// Package predict is the performance and power prediction layer of the
// paper's runtime (§IV-A3): given the performance counters of a kernel
// and a candidate hardware configuration, it estimates the kernel's
// execution time and GPU (including NB) power at that configuration.
//
// Three implementations are provided, matching the paper's evaluation:
//
//   - Oracle: perfect knowledge of the ground-truth model, used by the
//     Theoretically Optimal scheme and the Fig. 4 limit study;
//   - RandomForest: an offline-trained Random Forest regressor over the
//     eight Table III counters plus configuration features, the model the
//     paper deploys (its inaccuracy is what MPC's feedback absorbs);
//   - WithError: an oracle distorted by half-normally distributed errors
//     of a chosen mean, reproducing the Err_15%_10%, Err_5% and Err_0%
//     ablations of Fig. 13.
//
// CPU power is estimated with the normalized V²f model the paper uses,
// since the CPU busy-waits during kernel execution.
package predict

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/stats"
)

// Estimate is a predicted observation of one kernel invocation at one
// configuration.
type Estimate struct {
	TimeMS    float64 // predicted kernel execution time
	GPUPowerW float64 // predicted GPU+NB power (they share a rail and a meter)
}

// Model predicts kernel behaviour from performance counters. Counter sets
// are the only kernel description a Model may rely on: ground-truth
// parameters never cross this interface except inside Oracle.
//
// PredictKernel must be a pure function of (cs, c) for the model's
// lifetime: the same query always returns the same bits, because
// Calibrated memoizes its inner model's answers and relies on it. It
// must also be safe for concurrent calls, because serving sessions
// share one model across goroutines. Calibrated itself is the
// exception to both: its answers follow the Feedback it is given, and
// it is per-policy state that one goroutine at a time uses.
type Model interface {
	// Name identifies the model in reports.
	Name() string
	// PredictKernel estimates time and GPU power for a kernel whose
	// Table III counters are cs, run at configuration c.
	PredictKernel(cs counters.Set, c hw.Config) Estimate
}

// SplitEvaluator is the optional time-first form of Model, for a model
// that computes its two estimates apart (RandomForest walks one forest
// for each). PredictTime and PredictPower return PredictKernel's TimeMS
// and GPUPowerW bit for bit, so a caller that reads a configuration's
// power only where its time meets a headroom pays for the power only
// there. Calibrated prices through it when its inner model has it.
type SplitEvaluator interface {
	PredictTime(cs counters.Set, c hw.Config) float64
	PredictPower(cs counters.Set, c hw.Config) float64
}

// cpuRefState anchors the normalized V²f CPU power model to the ground
// truth at one state; other states are scaled by V²f. The deliberate
// omission of the leakage term keeps this a (slightly imperfect) model,
// like the paper's.
var cpuRef = struct {
	state hw.CPUPState
	power float64
}{hw.P5, kernel.CPUPowerW(hw.P5)}

// CPUPowerW returns the normalized V²f estimate of CPU power at state p.
func CPUPowerW(p hw.CPUPState) float64 {
	ref := cpuRef.state
	scale := (p.Voltage() * p.Voltage() * p.FreqGHz()) /
		(ref.Voltage() * ref.Voltage() * ref.FreqGHz())
	return cpuRef.power * scale
}

// EnergyMJ converts an estimate into predicted chip energy at config c,
// adding the V²f CPU power: the quantity the optimizer minimizes.
func EnergyMJ(e Estimate, c hw.Config) float64 {
	return (e.GPUPowerW + CPUPowerW(c.CPU)) * e.TimeMS
}

// Oracle is a perfect predictor: it maps counter sets back to the
// registered ground-truth kernels. It stands in for the "perfect
// knowledge of the effect of every hardware configuration" assumed by the
// paper's limit study (§II-E) and Theoretically Optimal scheme.
type Oracle struct {
	byCounters map[counters.Set]kernel.Kernel
	// order keeps registration order so nearest-neighbour fallback ties
	// resolve deterministically instead of by map iteration order.
	order []counters.Set
}

// NewOracle returns an empty oracle.
func NewOracle() *Oracle { return &Oracle{byCounters: map[counters.Set]kernel.Kernel{}} }

// Register gives the oracle perfect knowledge of k (including its current
// input scale). Register every kernel before handing the oracle to a
// policy: a later registration can change the answer to a query already
// made (through the nearest-kernel fallback, or by replacing the kernel
// under the same counters), which breaks Model's purity contract.
func (o *Oracle) Register(k kernel.Kernel) {
	cs := k.Counters()
	if _, seen := o.byCounters[cs]; !seen {
		o.order = append(o.order, cs)
	}
	o.byCounters[cs] = k
}

// Len returns the number of registered kernels.
func (o *Oracle) Len() int { return len(o.byCounters) }

// Name implements Model.
func (o *Oracle) Name() string { return "oracle" }

// PredictKernel implements Model with ground truth. Unknown counter sets
// resolve to the nearest registered kernel in log-counter space, so small
// feedback perturbations stay well-defined; a completely empty oracle
// panics.
func (o *Oracle) PredictKernel(cs counters.Set, c hw.Config) Estimate {
	k, ok := o.byCounters[cs]
	if !ok {
		k = o.nearest(cs)
	}
	m := k.Evaluate(c)
	return Estimate{TimeMS: m.TimeMS, GPUPowerW: m.GPUW + m.NBW}
}

func (o *Oracle) nearest(cs counters.Set) kernel.Kernel {
	if len(o.byCounters) == 0 {
		panic("predict: oracle has no registered kernels")
	}
	var best kernel.Kernel
	bestD := math.Inf(1)
	for _, reg := range o.order {
		k := o.byCounters[reg]
		d := 0.0
		for i := range cs {
			dd := math.Log1p(math.Max(0, cs[i])) - math.Log1p(math.Max(0, reg[i]))
			d += dd * dd
		}
		// Strict < keeps the earliest-registered kernel on equal
		// distances, so the fallback replays identically run to run.
		if d < bestD {
			bestD, best = d, k
		}
	}
	return best
}

// WithError wraps a perfect model with half-normally distributed
// multiplicative errors whose absolute means are timeErr and powerErr
// (e.g. 0.15 and 0.10 for the Err_15%_10% model of Fig. 13). The error
// for a given (counters, config) pair is deterministic, as a fixed
// imperfect model's would be: re-querying the same point returns the same
// wrong answer.
type WithError struct {
	inner             Model
	timeErr, powerErr float64
	seed              int64
	name              string
}

// NewWithError wraps inner with the given mean absolute errors.
func NewWithError(inner Model, timeErr, powerErr float64, seed int64) *WithError {
	if timeErr < 0 || powerErr < 0 {
		panic("predict: negative error means")
	}
	return &WithError{
		inner: inner, timeErr: timeErr, powerErr: powerErr, seed: seed,
		name: fmt.Sprintf("err_%g%%_%g%%", timeErr*100, powerErr*100),
	}
}

// Name implements Model.
func (w *WithError) Name() string { return w.name }

// PredictKernel implements Model.
func (w *WithError) PredictKernel(cs counters.Set, c hw.Config) Estimate {
	e := w.inner.PredictKernel(cs, c)
	if w.timeErr == 0 && w.powerErr == 0 {
		return e
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	}
	for _, v := range cs {
		put(v)
	}
	put(float64(c.CPU))
	put(float64(c.NB))
	put(float64(c.GPU))
	put(float64(c.CUs))
	put(float64(w.seed))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	sample := func(mean float64) float64 {
		v := math.Abs(rng.NormFloat64()) * mean * math.Sqrt(math.Pi/2)
		if rng.Intn(2) == 0 {
			return -v
		}
		return v
	}
	e.TimeMS *= math.Max(0.05, 1+sample(w.timeErr))
	e.GPUPowerW *= math.Max(0.05, 1+sample(w.powerErr))
	return e
}

// MAPE evaluates a model's mean absolute percentage errors for time and
// power over the given kernels across the whole space — the §VI-D
// accuracy measurement.
func MAPE(m Model, ks []kernel.Kernel, space hw.Space) (timeMAPE, powerMAPE float64) {
	var pt, at, pp, ap []float64
	for _, k := range ks {
		cs := k.Counters()
		space.ForEach(func(c hw.Config) {
			e := m.PredictKernel(cs, c)
			g := k.Evaluate(c)
			pt = append(pt, e.TimeMS)
			at = append(at, g.TimeMS)
			pp = append(pp, e.GPUPowerW)
			ap = append(ap, g.GPUW+g.NBW)
		})
	}
	tm, err := stats.MAPE(pt, at)
	if err != nil {
		return 0, 0
	}
	pm, _ := stats.MAPE(pp, ap)
	return tm, pm
}
