package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/policy"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/telemetry"
)

const (
	// serveClients is the closed-loop client count: two per CPU of the
	// 2-CPU host the benchmark was sized on, so both CPUs always have a
	// sweep to run. With one client per CPU the two loops lock into
	// phase (sweeps overlap and slow each other) or out of phase, and a
	// run stays in either state: throughput moved between 1100 and
	// 1760 decisions/s from run to run. A single client leaves a CPU
	// idle at every hand-off, and its throughput spread about twice as
	// wide from run to run as four clients'.
	serveClients = 4
	// serveNominalDPS sizes the fixed work: the run makes about
	// seconds × serveNominalDPS decisions, rounded to whole suite passes
	// per client. It is a constant, so the work never depends on speed;
	// it is the typical rate on the 2-CPU host, so the timed work lasts
	// about --seconds there.
	serveNominalDPS = 1000
)

// refDecision is one decision of an in-process profiling run.
type refDecision struct {
	cfg   hw.Config
	evals int
}

// serveEnv is one set-up of serve-sweep: the fixture, the suite with
// its baselines, the reference decisions and the serving stack.
type serveEnv struct {
	model  *predict.RandomForest
	eng    *sim.Engine // client side; Run only reads it, so clients share it
	suite  []suiteApp
	ref    [][]refDecision
	refDig []digest
	stack  *serveStack
}

// serveStack is mpcserve's default decision stack on a loopback
// listener: telemetry hub on with sampling 0, the metrics registry,
// arena pool and hub instrumented, no batching, no prediction cache.
type serveStack struct {
	decider *serve.Server
	ts      *httptest.Server
	stats   *decisionStats // server-side decisions, traced stacks only
}

func newServeStack(model *predict.RandomForest, space hw.Space, tr *tracer) (*serveStack, error) {
	reg := metrics.New()
	hub := telemetry.NewHub(telemetry.Options{Sample: 0})
	hub.Instrument(reg)
	st := &serveStack{}
	newPolicy := func(m predict.Model) sim.Policy { return policy.NewMPC(m, space) }
	if tr != nil {
		st.stats = &decisionStats{}
		newPolicy = func(m predict.Model) sim.Policy {
			ln := tr.newLane()
			return wrapPolicy(&policyWrap{inner: policy.NewMPC(wrapModel(m, ln), space),
				ln: ln, names: serverPolicyNames, stats: st.stats})
		}
	}
	decider, err := serve.New(serve.Config{
		Model:     model,
		Tag:       "perfbench fixture",
		NewPolicy: newPolicy,
		Telemetry: hub,
	})
	if err != nil {
		return nil, err
	}
	decider.Instrument(reg)
	model.InstrumentArenaPool(reg)
	var h http.Handler = decider.Handler()
	if tr != nil {
		h = wrapHandler(h, tr)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/", h)
	st.decider = decider
	st.ts = httptest.NewServer(mux)
	return st, nil
}

func (s *serveStack) close() {
	s.ts.Close()
	s.decider.Shutdown()
}

// setupServe loads the fixture, runs the baselines and the in-process
// reference profiling run of every app on a fresh MPC, builds the
// stack and warms it: every client makes one checked run of the first
// app, which opens its connection and fills the sweep arena pool.
func setupServe(o options) (*serveEnv, error) {
	model, err := loadFixture(o.fixture, o.spec)
	if err != nil {
		return nil, err
	}
	return buildServeEnv(o, model)
}

func buildServeEnv(o options, model *predict.RandomForest) (*serveEnv, error) {
	env := &serveEnv{model: model, eng: sim.NewEngine(hw.DefaultSpace())}
	var err error
	if env.suite, err = loadSuite(env.eng); err != nil {
		return nil, err
	}
	env.ref = make([][]refDecision, len(env.suite))
	env.refDig = make([]digest, len(env.suite))
	for a := range env.suite {
		sa := &env.suite[a]
		res, err := env.eng.Run(&sa.app, policy.NewMPC(model, env.eng.Space), sa.target, true)
		if err != nil {
			return nil, fmt.Errorf("reference run %s: %w", sa.app.Name, err)
		}
		for _, r := range res.Records {
			env.ref[a] = append(env.ref[a], refDecision{r.Config, r.Evals})
		}
		env.refDig[a] = newDigest().run(res)
	}
	if env.stack, err = newServeStack(model, env.eng.Space, nil); err != nil {
		return nil, err
	}
	lanes := env.newLanes([][]int{{0}}, nil)
	env.drive(lanes)
	for _, l := range lanes {
		if l.failed > 0 {
			env.stack.close()
			return nil, fmt.Errorf("warm-up: %d of %d operations failed: %s", l.failed, l.attempted, l.firstErr)
		}
	}
	return env, nil
}

// clientLane is one closed-loop client: it runs its app runs one after
// another, each a fresh session whose decide and observe round trips
// follow the simulated kernels.
type clientLane struct {
	env    *serveEnv
	orders [][]int // [pass] app order
	lat    *latencies
	ln     *lane // traced runs only
	q      *quality

	passNS    []int64
	laneNS    int64
	attempted int64
	failed    int64
	firstErr  string
}

// newLanes makes the closed-loop clients. All of them replay the suite
// in the same seeded order, so they make the same app runs at about the
// same time in every run.
func (e *serveEnv) newLanes(orders [][]int, tr *tracer) []*clientLane {
	per := kernelsPerPass(e.suite)
	lanes := make([]*clientLane, serveClients)
	for c := range lanes {
		l := &clientLane{env: e, orders: orders, q: newQuality(len(e.suite)),
			lat: newLatencies(len(orders) * per), passNS: make([]int64, len(orders))}
		if tr != nil {
			l.ln = tr.newLane()
		}
		lanes[c] = l
	}
	return lanes
}

// drive runs every lane concurrently and waits for all of them.
func (e *serveEnv) drive(lanes []*clientLane) {
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			for p, order := range l.orders {
				t0 := time.Now()
				for _, a := range order {
					l.runApp(a)
				}
				l.passNS[p] = since(t0)
			}
			l.laneNS = since(start)
		}()
	}
	wg.Wait()
}

// runApp makes one app run over the wire and checks it decision for
// decision against the in-process reference.
func (l *clientLane) runApp(a int) {
	sa := &l.env.suite[a]
	cl := serve.NewClient(l.env.stack.ts.URL)
	cl.OnDecideLatency = l.lat.add
	var pol sim.Policy = cl
	if l.ln != nil {
		pol = wrapPolicy(&policyWrap{inner: cl, ln: l.ln, names: clientPolicyNames, client: cl})
		l.ln.begin(spanSimRun, -1)
	}
	res, runErr := l.env.eng.Run(&sa.app, pol, sa.target, true)
	if l.ln != nil {
		l.ln.end()
		l.ln.begin(spanClientSession, -1)
	}
	closeErr := cl.Close()
	if l.ln != nil {
		l.ln.end()
	}

	ops := int64(2*sa.app.Len() + 2) // open, decide+observe per kernel, close
	l.attempted += ops
	failed := int64(cl.Retries429)
	switch {
	case runErr != nil:
		failed = ops
		l.noteErr(fmt.Sprintf("%s: %v", sa.app.Name, runErr))
	default:
		if bad := mismatches(res, l.env.ref[a]); bad > 0 {
			failed += int64(bad)
			l.noteErr(fmt.Sprintf("%s: %d decisions differ from the in-process profiling run", sa.app.Name, bad))
		}
		l.q.add(a, res, sa.base)
	}
	if closeErr != nil {
		failed++
		l.noteErr(fmt.Sprintf("%s: %v", sa.app.Name, closeErr))
	}
	if cl.Retries429 > 0 {
		l.noteErr(fmt.Sprintf("%s: %d requests refused with 429", sa.app.Name, cl.Retries429))
	}
	l.failed += min(failed, ops)
}

func (l *clientLane) noteErr(s string) {
	if l.firstErr == "" {
		l.firstErr = s
	}
}

// mismatches counts decisions (configuration or evaluation count) that
// differ from the reference run.
func mismatches(res *sim.Result, ref []refDecision) int {
	bad := max(len(ref)-len(res.Records), 0)
	for i, r := range res.Records {
		if i >= len(ref) || r.Config != ref[i].cfg || r.Evals != ref[i].evals {
			bad++
		}
	}
	return bad
}

func servePasses(seconds, perPass int) int {
	per := serveClients * perPass
	return max(1, (seconds*serveNominalDPS+per/2)/per)
}

// timeServe runs the fixed work on env's stack and gathers what it
// measured. tr, when set, is the tracer the stack was built with.
func timeServe(o options, env *serveEnv, tr *tracer) *runStats {
	per := kernelsPerPass(env.suite)
	passes := servePasses(o.seconds, per)
	lanes := env.newLanes(appOrders(o.seed, passes, len(env.suite)), tr)
	hits0, miss0 := env.model.ArenaPoolStats()
	if tr != nil {
		tr.reset()
	}
	before := readMem()
	start := time.Now()
	env.drive(lanes)
	wall := time.Since(start)
	s := &runStats{lanes: serveClients, perPass: per, decisions: serveClients * passes * per, mem: before.to(readMem())}
	hits1, miss1 := env.model.ArenaPoolStats()
	s.arenaHits, s.arenaMisses = hits1-hits0, miss1-miss0
	q := newQuality(len(env.suite))
	for _, l := range lanes {
		s.passNS = append(s.passNS, l.passNS...)
		s.laneNS += l.laneNS
		if l.ln != nil {
			s.rootNS += l.ln.rootNS
		}
		s.lat = append(s.lat, l.lat.ms...)
		s.attempted += l.attempted
		s.failed += l.failed
		if l.firstErr != "" {
			logf("serve-sweep: client failure: %s", l.firstErr)
		}
		q.merge(l.q)
	}
	s.savings, s.speedup = q.means()
	s.heapLiveB = liveHeap()
	runtime.KeepAlive(env)
	s.digests = env.refDig
	s.logRun("serve-sweep", wall)
	return s
}
