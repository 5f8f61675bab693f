package main

import (
	"reflect"
	"testing"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/rf"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/telemetry"
)

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct {
		p       float64
		value   float64
		beyond  int
		clamped bool
	}{
		{50, 50, 50, false},
		{90, 90, 10, false},  // exactly ten samples beyond: measured
		{90.5, 90, 10, true}, // rank 91 leaves nine beyond: clamped to rank 90
		{99, 90, 10, true},
		{100, 90, 10, true},
		{0.1, 1, 99, false}, // nearest rank never drops below the first sample
	} {
		got := nearestRank(xs, c.p)
		if got.Value != c.value || got.Beyond != c.beyond || got.Clamped != c.clamped || got.N != 100 || !got.Supported {
			t.Errorf("p%g: got value %g beyond %d clamped %v N %d supported %v, want %g %d %v 100 true",
				c.p, got.Value, got.Beyond, got.Clamped, got.N, got.Supported, c.value, c.beyond, c.clamped)
		}
		if got.Clamped && got.At != 90 {
			t.Errorf("p%g: clamped percentile reported as p%g, want p90", c.p, got.At)
		}
	}

	// Ten samples or fewer: no rank has ten beyond it, so the plain
	// nearest rank is reported and flagged unsupported.
	small := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got := nearestRank(small, 90)
	if got.Value != 9 || got.Supported || got.Clamped || got.N != 10 || got.Beyond != 1 {
		t.Errorf("p90 of 10 samples: got %+v, want value 9, unsupported, unclamped, N 10, 1 beyond", got)
	}
	if got := nearestRank(nil, 50); got.N != 0 || got.Value != 0 {
		t.Errorf("empty sample: got %+v, want zero", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of 1..4 = %g, want the nearest-rank 2", got)
	}
}

func TestAppOrdersSeeded(t *testing.T) {
	a := appOrders(7, 3, 15)
	if !reflect.DeepEqual(a, appOrders(7, 3, 15)) {
		t.Fatal("same seed gave different app orders")
	}
	if reflect.DeepEqual(a, appOrders(8, 3, 15)) {
		t.Fatal("different seeds gave the same app orders")
	}
	for _, order := range a {
		seen := make([]bool, 15)
		for _, i := range order {
			seen[i] = true
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("order %v misses app %d: not a permutation", order, i)
			}
		}
	}
}

// smallModel trains a forest small enough for tests; the harness
// treats it exactly like the fixture.
func smallModel(t *testing.T) *predict.RandomForest {
	t.Helper()
	opt := predict.DefaultTrainOptions(3)
	opt.NumKernels = 12
	opt.Forest = rf.Config{NumTrees: 4, MaxDepth: 8, MinLeaf: 2, MaxFeatures: 7, NumThresh: 8, SampleFrac: 1, Seed: 4}
	m, err := predict.TrainRandomForest(opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWrappersForwardExactlyTheOptionalInterfaces(t *testing.T) {
	m := smallModel(t)
	w := wrapModel(m, newTracer().newLane())
	if _, ok := w.(predict.TracedSpaceEvaluator); !ok {
		t.Error("wrapped RandomForest lost predict.TracedSpaceEvaluator")
	}
	bare := wrapModel(pointOnly{m}, nil)
	if _, ok := bare.(predict.SpaceEvaluator); ok {
		t.Error("wrapped scalar-only model gained predict.SpaceEvaluator")
	}

	p := wrapPolicy(&policyWrap{inner: sim.NewTurboCore()})
	_, tr := p.(telemetry.Traceable)
	_, in := p.(obs.Instrumentable)
	_, innerTr := sim.Policy(sim.NewTurboCore()).(telemetry.Traceable)
	_, innerIn := sim.Policy(sim.NewTurboCore()).(obs.Instrumentable)
	if tr != innerTr || in != innerIn {
		t.Errorf("wrapped Turbo Core: Traceable %v Instrumentable %v, bare %v %v", tr, in, innerTr, innerIn)
	}
}

// pointOnly hides every optional interface of a model.
type pointOnly struct{ m predict.Model }

func (p pointOnly) Name() string { return p.m.Name() }
func (p pointOnly) PredictKernel(cs counters.Set, c hw.Config) predict.Estimate {
	return p.m.PredictKernel(cs, c)
}

func testOptions(t *testing.T, workload string) options {
	return options{workload: workload, seed: 5, seconds: 1, build: t.TempDir()}
}

func TestWrappedServeStackDecidesLikeBareAndSweeps(t *testing.T) {
	o := testOptions(t, "serve-sweep")
	env, err := buildServeEnv(o, smallModel(t))
	if err != nil {
		t.Fatal(err)
	}
	bare := timeServe(o, env, nil)
	env.stack.close()
	tr := newTracer()
	if env.stack, err = newServeStack(env.model, env.eng.Space, tr); err != nil {
		t.Fatal(err)
	}
	traced := timeServe(o, env, tr)
	env.stack.close()

	// Every served run of both stacks was checked decision for decision
	// against the same in-process reference run.
	if bare.failed != 0 || traced.failed != 0 || bare.attempted != traced.attempted {
		t.Fatalf("bare %d/%d failed, traced %d/%d failed", bare.failed, bare.attempted, traced.failed, traced.attempted)
	}
	agg := tr.totals()
	sweeps, decisions := agg[spanPredictSweep].Count, int64(traced.decisions)
	coldStarts := int64(len(env.suite) * len(traced.passNS)) // first kernel of every run has no history
	if sweeps != decisions-coldStarts {
		t.Errorf("traced stack made %d batched sweeps for %d decisions (%d cold starts): the batched path was lost", sweeps, decisions, coldStarts)
	}
	if agg[spanHTTPDecide].Count != decisions || agg[spanClientDecide].Count != decisions {
		t.Errorf("decide spans: handler %d, client %d, want %d each", agg[spanHTTPDecide].Count, agg[spanClientDecide].Count, decisions)
	}
}

func TestWrappedReplayDecidesLikeBare(t *testing.T) {
	o := testOptions(t, "replay-steady")
	model := smallModel(t)
	envBare, err := setupReplay(o, model, nil)
	if err != nil {
		t.Fatal(err)
	}
	bare := timeReplay(o, envBare, nil)
	tr := newTracer()
	envTraced, err := setupReplay(o, model, tr)
	if err != nil {
		t.Fatal(err)
	}
	traced := timeReplay(o, envTraced, tr)
	if !reflect.DeepEqual(bare.digests, traced.digests) {
		t.Fatal("wrapped replay stack changed the decision digests")
	}
	if bare.failed != 0 || traced.failed != 0 {
		t.Fatalf("failed decisions: bare %d, traced %d", bare.failed, traced.failed)
	}
	agg := tr.totals()
	if agg[spanPredictSweep].Count != 0 || agg[spanPredictPoint].Count == 0 || agg[spanObsEvent].Count == 0 {
		t.Errorf("steady state should make point predictions and observer events but no sweeps: %d sweeps, %d points, %d events",
			agg[spanPredictSweep].Count, agg[spanPredictPoint].Count, agg[spanObsEvent].Count)
	}
	if got := agg[spanPolicyDecide].Count; got != int64(traced.decisions) {
		t.Errorf("%d policy.decide spans for %d decisions", got, traced.decisions)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	ln := tr.newLane()
	ln.begin(spanPolicyDecide, 0)
	ln.begin(spanPredictPoint, -1)
	ln.end()
	ln.begin(spanPredictPoint, -1)
	ln.end()
	ln.end()
	agg := tr.totals()
	d, p := agg[spanPolicyDecide], agg[spanPredictPoint]
	if d.Count != 1 || p.Count != 2 {
		t.Fatalf("counts: decide %d, point %d", d.Count, p.Count)
	}
	if d.SelfNS != d.BusyNS-p.BusyNS || ln.rootNS != d.BusyNS {
		t.Errorf("decide self %d != busy %d - children %d, or root %d != busy", d.SelfNS, d.BusyNS, p.BusyNS, ln.rootNS)
	}
	if tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Errorf("parents: %d %d, want -1 then 0", tr.spans[0].Parent, tr.spans[1].Parent)
	}
}
