package serve

import (
	"errors"
	"sync"

	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/telemetry"
)

// Queue/session error sentinels, mapped to HTTP statuses by the
// handlers (429 and 410 respectively).
var (
	errSessionFull   = errors.New("serve: session queue full")
	errSessionClosed = errors.New("serve: session closed")
)

// session is one client application's decision stream. All policy state
// — the MPC tracker, pattern extractor, calibration feedback — is owned
// by exactly one goroutine (run), which consumes operations from a
// bounded FIFO queue. Handlers never touch the policy directly; they
// enqueue closures and wait for replies. That single-owner discipline
// is what extends the determinism contract across sessions: within a
// session, operations execute in the exact order a single-threaded
// replay would issue them, so the decision stream is byte-identical to
// one; across sessions nothing is shared except immutable model
// snapshots and internally synchronized caches/pools.
type session struct {
	id         string
	name       string // policy name, fixed at creation
	app        string // bounded app label the session's events carry
	numKernels int    // decide and observe indices lie in [0, numKernels)
	policy     sim.Policy
	snap       *Snapshot // model snapshot pinned at creation
	ch         chan func()
	done       chan struct{} // closed when the owner goroutine exits

	mu     sync.Mutex // guards closed and the closed/send race
	closed bool

	queued *metrics.Gauge // operations queued across all sessions

	// Telemetry state, nil/zero when the server has no hub. tc is the
	// session's trace context; obsv is the observer the session and its
	// policy report through; acct books the queue waits no event
	// carries. lastIdx/lastD latch the most recent decision until its
	// observation reports it, and prevCfg is the previous observed
	// configuration (zero before the first) — all touched only by the
	// owner goroutine, like all policy state.
	tc      *telemetry.Context
	acct    *telemetry.Accounting
	obsv    obs.Observer
	lastIdx int
	lastD   sim.Decision
	prevCfg hw.Config
}

func newSession(id string, pol sim.Policy, snap *Snapshot, queueDepth int, queued *metrics.Gauge) *session {
	return &session{
		id:      id,
		name:    pol.Name(),
		policy:  pol,
		snap:    snap,
		ch:      make(chan func(), queueDepth),
		done:    make(chan struct{}),
		queued:  queued,
		obsv:    obs.Nop{},
		lastIdx: -1,
	}
}

// report runs on the owner goroutine before the policy's Observe. When
// the observation answers the latched decision, it reports the kernel
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

// run is the session's owner goroutine: it executes queued operations
// strictly in FIFO order until the queue is closed, then drains what
// remains and signals done. Every in-flight operation completes —
// graceful drain — so no handler is left waiting on a reply.
func (s *session) run() {
	defer close(s.done)
	for op := range s.ch {
		s.queued.Add(-1)
		op()
	}
}

// enqueue submits op to the owner goroutine without blocking: a full
// queue is backpressure (errSessionFull → HTTP 429), not a wait. The
// mutex closes the race between a send and close(): close flips the
// flag under the same lock, so no send can hit a closed channel.
func (s *session) enqueue(op func()) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errSessionClosed
	}
	// Counted before the send, so the owner's decrement never runs first
	// and the gauge never reads below zero.
	s.queued.Add(1)
	select {
	case s.ch <- op:
		return nil
	default:
		s.queued.Add(-1)
		return errSessionFull
	}
}

// close stops accepting operations and lets the owner goroutine drain
// the queue. Idempotent. Callers wanting the drain to be complete wait
// on s.done afterwards.
func (s *session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.ch)
}
