package core

import "math"

// Tracker is the performance tracker of Fig. 6: it accumulates the
// instructions and execution time of completed kernels and converts the
// application-wide throughput target into the execution-time headroom
// available to the next decision (Eqs. 4–5).
type Tracker struct {
	targetTP  float64 // Itotal/Ttotal of the baseline, instructions per ms
	sumInsts  float64
	sumTimeMS float64
}

// NewTracker returns a tracker enforcing the given target throughput
// (instructions per millisecond). A non-positive target disables the
// constraint: headroom becomes infinite and the optimizer minimizes
// energy unconditionally.
func NewTracker(targetTP float64) *Tracker { return &Tracker{targetTP: targetTP} }

// Reset empties the tracker in place and sets a new target, so a policy
// can keep one tracker across runs instead of allocating one per run.
func (t *Tracker) Reset(targetTP float64) { *t = Tracker{targetTP: targetTP} }

// Add records a completed (or virtually scheduled) kernel.
func (t *Tracker) Add(insts, timeMS float64) {
	t.sumInsts += insts
	t.sumTimeMS += timeMS
}

// Totals returns the accumulated instructions and time.
func (t *Tracker) Totals() (insts, timeMS float64) { return t.sumInsts, t.sumTimeMS }

// TargetThroughput returns the enforced target.
func (t *Tracker) TargetThroughput() float64 { return t.targetTP }

// HeadroomMS returns the maximum expected execution time the next kernel
// may take while keeping cumulative throughput at or above target —
// Eq. 5:
//
//	E[Tᵢ] ≤ (Σ Iⱼ + E[Iᵢ]) / (Itotal/Ttotal) − Σ Tⱼ
//
// The result can be negative when past kernels have already fallen behind
// the target; the optimizer then cannot meet the constraint and falls
// back to the fail-safe configuration.
func (t *Tracker) HeadroomMS(expInsts float64) float64 {
	if t.targetTP <= 0 {
		return math.Inf(1)
	}
	return (t.sumInsts+expInsts)/t.targetTP - t.sumTimeMS
}
