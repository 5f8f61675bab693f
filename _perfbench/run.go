package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// setupRepeats is how many full set-ups an untraced run makes; setup_s
// is their median and the last one is measured.
const setupRepeats = 5

// setUp times setupRepeats full set-ups and keeps the last: setup_s
// is their median. Each earlier set-up is torn down and collected
// before the next starts, outside the clock.
func setUp[E any](o options, setup func() (E, error), teardown func(E)) (E, float64, error) {
	var env E
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(env)
			var zero E
			env = zero
			runtime.GC()
		}
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		env = e
	}
	logf("%s: set-ups took %.3f s", o.workload, secs)
	return env, median(secs), nil
}

func runServeSweep(o options) (result, error) {
	if o.trace {
		return traceServeSweep(o)
	}
	env, setupS, err := setUp(o, func() (*serveEnv, error) { return setupServe(o) },
		func(e *serveEnv) { e.stack.close() })
	if err != nil {
		return result{}, err
	}
	defer env.stack.close()
	s := timeServe(o, env, nil)
	ok, err := checkServeDigests(o, env, s)
	if err != nil {
		return result{}, err
	}
	return result{Correct: ok && s.failed == 0, Attempted: s.attempted, Failed: s.failed,
		Metrics: s.endToEnd(setupS)}, nil
}

// checkServeDigests compares the reference profiling runs' digests with
// expected.json. Every served run of a mismatching app counts as failed:
// the runs matched a reference that is itself wrong.
func checkServeDigests(o options, env *serveEnv, s *runStats) (bool, error) {
	logDigests(o.workload, 0, env.suite, env.refDig)
	bad, checked, err := checkDigests(o.workload, 0, env.suite, env.refDig)
	if err != nil || !checked {
		return checked, err
	}
	runs := int64(s.decisions / s.perPass) // app runs of each app, all clients
	for _, a := range bad {
		logf("serve-sweep: %s decides differently from expected.json", env.suite[a].app.Name)
		s.failed += runs * int64(2*env.suite[a].app.Len()+2)
	}
	s.failed = min(s.failed, s.attempted)
	return len(bad) == 0, nil
}

// halfWork returns o sized for one half of a traced run: the untraced
// and the traced half together do one untraced run's work.
func halfWork(o options) options {
	o.seconds = (o.seconds + 1) / 2
	return o
}

func traceServeSweep(o options) (result, error) {
	o = halfWork(o)
	env, err := setupServe(o)
	if err != nil {
		return result{}, err
	}
	u := timeServe(o, env, nil)
	env.stack.close()
	// The traced run serves the same fixture from a fresh stack whose
	// handler, policies and models are wrapped.
	tr := newTracer()
	if env.stack, err = newServeStack(env.model, env.eng.Space, tr); err != nil {
		return result{}, err
	}
	t := timeServe(o, env, tr)
	env.stack.close()
	ok, err := checkServeDigests(o, env, u)
	if err != nil {
		return result{}, err
	}
	m, reconciled := perLayer(o, u, t, tr, env.stack.stats)
	dumpSpans(o, tr)
	return result{Correct: ok && reconciled && u.failed == 0 && t.failed == 0,
		Attempted: u.attempted + t.attempted, Failed: u.failed + t.failed, Metrics: m}, nil
}

func runReplaySteady(o options) (result, error) {
	if o.trace {
		return traceReplaySteady(o)
	}
	env, setupS, err := setUp(o, func() (*replayEnv, error) { return setupReplay(o, nil, nil) },
		func(*replayEnv) {})
	if err != nil {
		return result{}, err
	}
	s := timeReplay(o, env, nil)
	ok, err := checkReplayDigests(o, env, s)
	if err != nil {
		return result{}, err
	}
	return result{Correct: ok && s.failed == 0, Attempted: s.attempted, Failed: s.failed,
		Metrics: s.endToEnd(setupS)}, nil
}

// checkReplayDigests compares the run's per-app digests with
// expected.json; every decision of a mismatching app counts as failed.
func checkReplayDigests(o options, env *replayEnv, s *runStats) (bool, error) {
	passes := len(s.passNS)
	logDigests(o.workload, passes, env.suite, s.digests)
	bad, checked, err := checkDigests(o.workload, passes, env.suite, s.digests)
	if err != nil {
		return false, err
	}
	if !checked {
		logf("replay-steady: expected.json records no digests for %d passes; digests printed, not checked", passes)
		return true, nil
	}
	for _, a := range bad {
		logf("replay-steady: %s decides differently from expected.json", env.suite[a].app.Name)
		s.failed += int64(passes * env.suite[a].app.Len())
	}
	s.failed = min(s.failed, s.attempted)
	return len(bad) == 0, nil
}

func traceReplaySteady(o options) (result, error) {
	o = halfWork(o)
	envU, err := setupReplay(o, nil, nil)
	if err != nil {
		return result{}, err
	}
	u := timeReplay(o, envU, nil)
	ok, err := checkReplayDigests(o, envU, u)
	if err != nil {
		return result{}, err
	}
	// A fresh stack on the same fixture: the traced run must replay the
	// very decisions the untraced one made.
	tr := newTracer()
	envT, err := setupReplay(o, envU.model, tr)
	if err != nil {
		return result{}, err
	}
	t := timeReplay(o, envT, tr)
	for a := range u.digests {
		if u.digests[a] != t.digests[a] {
			logf("replay-steady: %s decides differently when traced", envT.suite[a].app.Name)
			t.failed += int64(len(t.passNS) * envT.suite[a].app.Len())
			ok = false
		}
	}
	t.failed = min(t.failed, t.attempted)
	m, reconciled := perLayer(o, u, t, tr, envT.stats)
	dumpSpans(o, tr)
	return result{Correct: ok && reconciled && u.failed == 0 && t.failed == 0,
		Attempted: u.attempted + t.attempted, Failed: u.failed + t.failed, Metrics: m}, nil
}

func dumpSpans(o options, tr *tracer) {
	path := filepath.Join(o.build, fmt.Sprintf("spans-%s.jsonl", o.workload))
	if err := tr.writeSpans(path); err != nil {
		logf("span dump: %v", err)
		return
	}
	logf("%s: first %d spans written to %s", o.workload, min(tr.next.Load(), spanCap), path)
}
