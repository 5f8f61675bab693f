package predict

import (
	"math"
	"time"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/rf"
	"mpcdvfs/internal/telemetry"
)

// SweepRequest is one session's batched-sweep submission to a cross-
// session coordinator: evaluate Model over every configuration of Space
// for the kernel described by CS, writing space.Size() raw (uncalibrated)
// estimates into Dst. The submitting goroutine parks on Done after a
// successful submit; the coordinator stamps EvalStart/EvalNS/OK and
// sends exactly one value on Done when Dst is fully written (OK=true)
// or the request could not be served (OK=false — the submitter falls
// back to its direct path).
//
// A request struct is owned by its submitter and reused across
// decisions; all fields must be (re)set before each submit, and the
// coordinator never touches the struct after the Done send.
type SweepRequest struct {
	Model *RandomForest // raw forest to evaluate (calibration is the submitter's job)
	Space hw.Space
	CS    counters.Set
	Dst   []Estimate // space.Size() slots, filled in hw.Space.At order

	Submitted time.Time // stamped by the submit path, before handoff
	EvalStart time.Time // stamped by the coordinator: fused evaluation begin
	EvalNS    int64     // fused evaluation duration, shared by the epoch
	OK        bool      // true when Dst holds the sweep result

	Done chan struct{} // buffered(1); one send per accepted submit
}

// SweepSubmit hands a request to a coordinator. It returns false when
// the request was not accepted (coordinator off, stopped, or
// saturated) — the caller must then run its direct path; it returns
// true when exactly one Done send will follow.
type SweepSubmit func(*SweepRequest) bool

// RemoteSweep is the session-side Model that routes exhaustive sweeps
// through a batch coordinator. It wraps the session's Calibrated:
// Name and PredictKernel forward to it unchanged, and PredictSpace
// submits a SweepRequest, parks until the epoch that fused it
// completes, then applies the session's calibration ratios — the same
// multiplications Calibrated.PredictSpace performs after the in-process
// batched sweep, so returned estimates are bit-identical to the direct
// path. On any rejection (submit refused, request declined) it runs the
// direct batched sweep instead; with compiled inference disabled both
// report false without touching dst, and the optimizer fills the sweep
// per configuration.
//
// A RemoteSweep belongs to one session goroutine (it reuses one request
// struct); the coordinator behind submit is the shared part.
type RemoteSweep struct {
	calib  *Calibrated
	model  *RandomForest
	submit SweepSubmit
	req    SweepRequest
}

// NewRemoteSweep builds the session-side model over calib, which must
// wrap model. No argument may be nil.
func NewRemoteSweep(calib *Calibrated, model *RandomForest, submit SweepSubmit) *RemoteSweep {
	rs := &RemoteSweep{calib: calib, model: model, submit: submit}
	rs.req.Model = model
	rs.req.Done = make(chan struct{}, 1)
	return rs
}

// Name implements Model.
func (rs *RemoteSweep) Name() string { return rs.calib.Name() }

// PredictKernel implements Model through the wrapped Calibrated.
func (rs *RemoteSweep) PredictKernel(cs counters.Set, c hw.Config) Estimate {
	return rs.calib.PredictKernel(cs, c)
}

// PredictSpace implements SpaceEvaluator via the batch coordinator,
// falling back to the direct batched sweep.
func (rs *RemoteSweep) PredictSpace(cs counters.Set, space hw.Space, dst []Estimate) bool {
	return rs.remote(cs, space, dst, nil) || rs.calib.PredictSpace(cs, space, dst)
}

// PredictSpaceTraced implements TracedSpaceEvaluator: the same sweep,
// with the coordinator-stamped wait and fused-eval intervals recorded
// as child spans of the caller's active trace, or the direct sweep's
// featurize and forest-eval spans after a fallback.
func (rs *RemoteSweep) PredictSpaceTraced(cs counters.Set, space hw.Space, dst []Estimate, tc *telemetry.Context) bool {
	return rs.remote(cs, space, dst, tc) || rs.calib.PredictSpaceTraced(cs, space, dst, tc)
}

// remote runs one sweep through the coordinator, reporting false —
// with dst untouched — when the coordinator cannot serve it.
func (rs *RemoteSweep) remote(cs counters.Set, space hw.Space, dst []Estimate, tc *telemetry.Context) bool {
	m := rs.model
	if m.treeWalk || m.timeCompiled == nil {
		return false
	}
	t0 := tc.StartPhase()
	req := &rs.req
	req.Space = space
	req.CS = cs
	req.Dst = dst
	req.Submitted = time.Time{}
	req.EvalStart = time.Time{}
	req.EvalNS = 0
	req.OK = false
	if !rs.submit(req) {
		return false
	}
	<-req.Done
	if !req.OK {
		return false
	}
	if !t0.IsZero() && !req.EvalStart.IsZero() {
		tc.Record(telemetry.SpanBatchWait, t0, req.EvalStart.Sub(t0))
		tc.Record(telemetry.SpanBatchEval, req.EvalStart, time.Duration(req.EvalNS))
	}
	rs.calib.ApplyRatio(cs, dst)
	return true
}

// FusedPlan is the coordinator-side workspace for fusing sweeps that
// share one (model, space) pair: a rf.FusedKeys matrix whose every slot
// has the space's config-suffix columns pre-keyed (the spaceArena
// layout, replicated per slot), plus the fused forest output vectors.
// Stage patches one request's counter prefix into a slot; Execute runs
// both forests over the staged prefix as one contiguous mega-batch and
// scatters per-request estimates. Per-slot results are bit-identical to
// RandomForest.PredictSpace for the same inputs: identical key rows,
// and rf.PredictFusedInto never reorders any row's within-row
// reduction.
type FusedPlan struct {
	model *RandomForest
	space hw.Space
	rows  int
	fk    *rf.FusedKeys
	tOut  []float64
	pOut  []float64
	insts []float64 // per-slot instsOf(cs), staged alongside the keys
}

// NewFusedPlan lays out a plan for up to maxRequests fused sweeps of
// model over space. Returns nil when the model has no usable batched
// path (compiled inference disabled) or the space is empty — the
// coordinator then declines those requests and submitters fall back.
func NewFusedPlan(model *RandomForest, space hw.Space, maxRequests int) *FusedPlan {
	if model == nil || model.treeWalk || model.timeCompiled == nil {
		return nil
	}
	n := space.Size()
	if n == 0 || maxRequests <= 0 {
		return nil
	}
	p := &FusedPlan{
		model: model,
		space: space,
		rows:  n,
		fk:    rf.NewFusedKeys(numRFFeatures, n, maxRequests),
		tOut:  make([]float64, maxRequests*n),
		pOut:  make([]float64, maxRequests*n),
		insts: make([]float64, maxRequests),
	}
	var row [numRFFeatures]float64
	for s := 0; s < maxRequests; s++ {
		keys := p.fk.Slot(s)
		i := 0
		space.ForEach(func(c hw.Config) {
			patchConfig(row[:], c)
			rf.KeysInto(keys[i*numRFFeatures+counters.NumCounters:(i+1)*numRFFeatures],
				row[counters.NumCounters:])
			i++
		})
	}
	return p
}

// Serves reports whether the plan was built for exactly this (model,
// space) pair — the coordinator's grouping key.
func (p *FusedPlan) Serves(model *RandomForest, space hw.Space) bool {
	return p.model == model && p.space.Equal(space)
}

// MaxRequests is the slot capacity of one fused evaluation.
func (p *FusedPlan) MaxRequests() int { return p.fk.MaxRequests() }

// Stage keys one request's counter prefix into slot — the same
// counterPrefix + rf.KeysInto + per-row copy sequence predictSpace
// runs, so the slot's key rows equal the arena rows of a direct sweep.
//
//mpclint:hotpath pinned at 0 allocs/op by TestFusedPlanZeroAlloc
func (p *FusedPlan) Stage(slot int, cs counters.Set) {
	var prefix [counters.NumCounters]float64
	counterPrefix(prefix[:], cs)
	var kprefix [counters.NumCounters]uint64
	rf.KeysInto(kprefix[:], prefix[:])
	keys := p.fk.Slot(slot)
	for r := 0; r < p.rows; r++ {
		copy(keys[r*numRFFeatures:r*numRFFeatures+counters.NumCounters], kprefix[:])
	}
	p.insts[slot] = instsOf(cs)
}

// Execute evaluates the first nreq staged slots as one fused mega-batch
// through both compiled forests and scatters slot i's estimates into
// dsts[i] (each len p.rows), assembling every estimate with exactly the
// direct sweep's final operations.
//
//mpclint:hotpath pinned at 0 allocs/op by TestFusedPlanZeroAlloc
func (p *FusedPlan) Execute(nreq int, dsts [][]Estimate) {
	rows := p.rows
	tOut := p.tOut[:nreq*rows]
	pOut := p.pOut[:nreq*rows]
	p.model.timeCompiled.PredictFusedInto(tOut, p.fk, nreq)
	p.model.powerCompiled.PredictFusedInto(pOut, p.fk, nreq)
	for i := 0; i < nreq; i++ {
		dst := dsts[i]
		insts := p.insts[i]
		base := i * rows
		for r := 0; r < rows; r++ {
			dst[r] = Estimate{TimeMS: math.Exp(tOut[base+r]) * insts, GPUPowerW: pOut[base+r]}
		}
	}
}

// Compile-time interface checks for the remote-sweep path.
var (
	_ Model                = (*RemoteSweep)(nil)
	_ TracedSpaceEvaluator = (*RemoteSweep)(nil)
)
