package serve

import (
	"errors"
	"fmt"
	"sync"

	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/telemetry"
)

// Session error sentinels, mapped to HTTP statuses by Server.refuse
// (429 and 410 respectively).
var (
	errSessionBusy   = errors.New("serve: session busy")
	errSessionClosed = errors.New("serve: session closed")
)

// session is one client application's decision stream. All policy state
// — the MPC tracker, pattern extractor, calibration feedback — is
// guarded by mu and touched only inside do, one operation at a time, on
// the goroutine of the request that carries it. Operations therefore
// execute in the exact order the client issues them, which for a
// closed-loop client is the order a single-threaded replay would use,
// so the decision stream is byte-identical to one; across sessions
// nothing is shared except immutable model snapshots and internally
// synchronized caches/pools.
type session struct {
	name       string    // policy name, fixed at creation
	app        string    // bounded app label the session's events carry
	numKernels int       // decide and observe indices lie in [0, numKernels)
	snap       *Snapshot // model snapshot pinned at creation

	// mu is held for the length of one operation; it guards the policy,
	// closed and the telemetry state below.
	mu     sync.Mutex
	closed bool
	policy sim.Policy

	// Telemetry state, nil/zero when the server has no hub. tc is the
	// session's trace context; obsv is the observer the session and its
	// policy report through. lastIdx/lastD latch the most recent
	// decision until its observation reports it, and prevCfg is the
	// previous observed configuration (zero before the first).
	tc      *telemetry.Context
	obsv    obs.Observer
	lastIdx int
	lastD   sim.Decision
	prevCfg hw.Config
}

func newSession(pol sim.Policy, snap *Snapshot) *session {
	return &session{
		name:    pol.Name(),
		policy:  pol,
		snap:    snap,
		obsv:    obs.Nop{},
		lastIdx: -1,
	}
}

// do runs op under the session's lock without waiting for it: a
// session running another operation is busy (errSessionBusy), a closed
// one refuses (errSessionClosed). A panic in op closes the session, so
// half-updated policy state never serves again, and returns as an
// error; sibling sessions never see it. The lock is released before do
// returns, so the reply is written after it and a closed-loop client's
// next request finds the session idle.
func (s *session) do(op func()) (err error) {
	if !s.mu.TryLock() {
		return errSessionBusy
	}
	defer s.mu.Unlock()
	if s.closed {
		return errSessionClosed
	}
	defer func() {
		if p := recover(); p != nil {
			s.closed = true
			err = fmt.Errorf("serve: policy panicked, session closed: %v", p)
		}
	}()
	op()
	return nil
}

// close waits for a running operation to finish and refuses every
// later one. Idempotent.
func (s *session) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// report runs inside do before the policy's Observe. When the
// observation answers the latched decision, it reports the kernel
// through sim.Report, as the engine does, from what the client
// measured. Knob changes count against the previous observed
// configuration, as the engine counts them against the previous
// record; what the client does not measure (kernel name, CPU phase,
// overhead and CPU-phase energy, throttle) stays zero.
func (s *session) report(ob sim.Observation) {
	if ob.Index != s.lastIdx || !obs.Enabled(s.obsv) {
		return
	}
	knobs := 0
	if s.prevCfg.Valid() {
		knobs = sim.KnobDiff(s.prevCfg, ob.Config)
	}
	s.prevCfg, s.lastIdx = ob.Config, -1
	sim.Report(s.obsv, s.name, s.app, s.lastD, sim.KernelRecord{
		Index: ob.Index, Config: ob.Config, TimeMS: ob.TimeMS, OverheadMS: ob.OverheadMS,
		Insts: ob.Insts, GPUEnergyMJ: ob.GPUPowerW * ob.TimeMS, CPUEnergyMJ: ob.CPUPowerW * ob.TimeMS,
		Evals: s.lastD.Evals, KnobChanges: knobs, TempC: ob.TempC,
	})
}
