package main

import (
	"fmt"
	"runtime"
	"time"

	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/policy"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/sim"
)

// replayNominalDPS sizes replay-steady's fixed work: about seconds ×
// replayNominalDPS decisions, rounded to whole suite passes. Like
// serveNominalDPS it is the typical rate on the 2-CPU host.
const replayNominalDPS = 15000

// replayEnv is one set-up of replay-steady: mpcserve's replay loop
// stack, one MPC per app behind the metrics observer, every app past
// its profiling run.
type replayEnv struct {
	model *predict.RandomForest
	eng   *sim.Engine
	suite []suiteApp
	wraps []*policyWrap // per app
	pols  []sim.Policy  // per app, the engine-facing wrapper
	ln    *lane         // traced runs only
	stats *decisionStats
}

// setupReplay loads the fixture (or reuses model), runs the baselines,
// builds the per-app MPCs and makes every app's profiling run. With tr
// the observer, policies and models are wrapped on one lane.
func setupReplay(o options, model *predict.RandomForest, tr *tracer) (*replayEnv, error) {
	if model == nil {
		var err error
		if model, err = loadFixture(o.fixture, o.spec); err != nil {
			return nil, err
		}
	}
	env := &replayEnv{model: model, eng: sim.NewEngine(hw.DefaultSpace()), stats: &decisionStats{}}
	var ob obs.Observer = obs.NewMetrics(metrics.New())
	if tr != nil {
		env.ln = tr.newLane()
		ob = wrapObserver(ob, env.ln)
	}
	env.eng.Obs = ob
	var err error
	if env.suite, err = loadSuite(env.eng); err != nil {
		return nil, err
	}
	for a := range env.suite {
		var m predict.Model = model
		if tr != nil {
			m = wrapModel(model, env.ln)
		}
		w := &policyWrap{inner: policy.NewMPC(m, env.eng.Space), ln: env.ln, names: serverPolicyNames}
		env.wraps = append(env.wraps, w)
		env.pols = append(env.pols, wrapPolicy(w))
		sa := &env.suite[a]
		if _, err := env.eng.Run(&sa.app, env.pols[a], sa.target, true); err != nil {
			return nil, fmt.Errorf("profiling run %s: %w", sa.app.Name, err)
		}
	}
	return env, nil
}

func replayPasses(seconds, perPass int) int {
	return max(1, (seconds*replayNominalDPS+perPass/2)/perPass)
}

// timeReplay runs the fixed steady-state work and gathers what it
// measured: per-app decision digests chained over every pass, latency
// of every policy.Decide, and the suite's quality versus Turbo Core.
func timeReplay(o options, env *replayEnv, tr *tracer) *runStats {
	per := kernelsPerPass(env.suite)
	passes := replayPasses(o.seconds, per)
	orders := appOrders(o.seed, passes, len(env.suite))
	lat := newLatencies(passes * per)
	for _, w := range env.wraps {
		w.lat, w.stats = lat, env.stats
	}
	s := &runStats{lanes: 1, perPass: per, decisions: passes * per, passNS: make([]int64, passes)}
	s.digests = make([]digest, len(env.suite))
	for a := range s.digests {
		s.digests[a] = newDigest()
	}
	q := newQuality(len(env.suite))
	var firstErr error
	if tr != nil {
		tr.reset()
	}
	before := readMem()
	start := time.Now()
	for p, order := range orders {
		t0 := time.Now()
		for _, a := range order {
			sa := &env.suite[a]
			if env.ln != nil {
				env.ln.begin(spanSimRun, -1)
			}
			res, err := env.eng.Run(&sa.app, env.pols[a], sa.target, false)
			if env.ln != nil {
				env.ln.end()
			}
			if err != nil {
				s.failed += int64(sa.app.Len())
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			s.digests[a] = s.digests[a].run(res)
			q.add(a, res, sa.base)
		}
		s.passNS[p] = since(t0)
	}
	s.laneNS = since(start)
	if env.ln != nil {
		s.rootNS = env.ln.rootNS
	}
	s.mem = before.to(readMem())
	s.attempted = int64(s.decisions)
	s.lat = lat.ms
	s.savings, s.speedup = q.means()
	s.heapLiveB = liveHeap()
	runtime.KeepAlive(env)
	if firstErr != nil {
		logf("replay-steady: run failure: %v", firstErr)
	}
	s.logRun("replay-steady", time.Duration(s.laneNS))
	return s
}
