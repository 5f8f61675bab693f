package main

import (
	"fmt"
	"math"
	"strings"
)

const (
	// reconcileTolerancePct bounds the share of the driving lanes' time
	// (client or replay goroutines) that no span covers.
	reconcileTolerancePct = 5.0
	// traceOverheadPct is the stated cost of tracing: the traced run's
	// throughput should stay within this of the untraced run's.
	traceOverheadPct = 25.0
)

// perLayer derives the per-layer metrics of a traced run t, with the
// program's own allocator figures from the untraced run u of the same
// work. Times are means per decision. It reports whether the layers
// reconcile with the traced per-decision time.
func perLayer(o options, u, t *runStats, tr *tracer, stats *decisionStats) (map[string]metric, bool) {
	agg := tr.totals()
	n := float64(t.decisions)
	us := func(ns int64) float64 { return float64(ns) / 1e3 / n }
	busy := func(s spanName) int64 { return agg[s].BusyNS }
	self := func(s spanName) int64 { return agg[s].SelfNS }
	per := func(s spanName) float64 { return float64(agg[s].Count) / n }
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	serving := o.workload == "serve-sweep"
	var clientNS, dispatchNS int64
	p99, samples := 0.0, 0.0
	if serving {
		clientNS = busy(spanClientDecide) - busy(spanHTTPDecide)
		dispatchNS = busy(spanHTTPDecide) - busy(spanPolicyDecide)
		p := nearestRank(sortedCopy(u.lat), 99)
		p99, samples = p.Value, float64(p.N)
	}
	put("serve.decide_rtt_us", us(busy(spanClientDecide)), "us")
	put("serve.client_us", us(clientNS), "us")
	put("serve.dispatch_us", us(dispatchNS), "us")
	put("serve.observe_rtt_us", us(busy(spanClientObserve)), "us")
	put("serve.session_rtt_us", us(busy(spanClientSession)), "us")
	put("serve.decide_p99_ms", p99, "ms")
	put("serve.decide_samples", samples, "count")

	put("policy.decide_us", us(busy(spanPolicyDecide)), "us")
	put("policy.observe_us", us(busy(spanPolicyObserve)), "us")
	put("policy.self_us", us(self(spanPolicyDecide)), "us")
	d := max(float64(stats.decisions.Load()), 1)
	put("policy.evals_per_decision", float64(stats.evals.Load())/d, "count")
	put("policy.horizon_mean", float64(stats.horizonSum.Load())/d, "kernels")
	put("policy.fallback_pct", 100*float64(stats.fallbacks.Load())/d, "%")

	put("predict.sweep_us", us(busy(spanPredictSweep)), "us")
	put("predict.sweeps_per_decision", per(spanPredictSweep), "count")
	put("predict.point_us", us(busy(spanPredictPoint)), "us")
	put("predict.points_per_decision", per(spanPredictPoint), "count")
	hitPct := 0.0
	if sweeps := u.arenaHits + u.arenaMisses; sweeps > 0 {
		hitPct = 100 * float64(u.arenaHits) / float64(sweeps)
	}
	put("predict.arena_hit_pct", hitPct, "%")

	put("sim.engine_us", us(self(spanSimRun)), "us")
	put("obs.event_us", us(busy(spanObsEvent)), "us")

	ud := float64(u.decisions)
	put("runtime.alloc_bytes_per_decision", float64(u.mem.allocBytes)/ud, "B")
	put("runtime.gc_cycles_per_kdecision", 1000*float64(u.mem.gcCycles)/ud, "count")
	gcPct := 0.0
	if u.mem.cpu > 0 {
		gcPct = 100 * u.mem.gcCPU / u.mem.cpu
	}
	put("runtime.gc_cpu_pct", gcPct, "%")

	put("host.alu_ref_ms", o.host.ALURefMS, "ms")
	put("host.mem_ref_ms", o.host.MemRefMS, "ms")

	overhead := 100 * (u.decisionsPerSecond()/t.decisionsPerSecond() - 1)
	unaccounted := 100 * float64(t.laneNS-t.rootNS) / float64(t.laneNS)
	put("trace.overhead_pct", overhead, "%")
	put("trace.unaccounted_pct", unaccounted, "%")

	// The reconciliation: the driving lanes' time per decision splits
	// into the layers' self times plus what no span covers.
	perDecision := float64(t.laneNS) / 1e3 / n
	var names []string
	var parts []float64
	add := func(name string, ns int64) {
		names = append(names, name)
		parts = append(parts, us(ns))
	}
	add("sim.engine", self(spanSimRun))
	if serving {
		add("serve.session (open+close)", busy(spanClientSession))
		add("serve.client (decide rtt - handler)", clientNS)
		add("serve.dispatch (handler - policy)", dispatchNS)
		add("policy.decide self", self(spanPolicyDecide))
		add("policy.decide children (predict)", busy(spanPolicyDecide)-self(spanPolicyDecide))
		add("serve.observe (round trip)", busy(spanClientObserve))
	} else {
		add("policy.begin self", self(spanPolicyBegin))
		add("policy.decide self", self(spanPolicyDecide))
		add("policy.observe self", self(spanPolicyObserve))
		add("predict.sweep", busy(spanPredictSweep))
		add("predict.point", busy(spanPredictPoint))
		add("obs.event", busy(spanObsEvent))
	}
	var sum float64
	var b strings.Builder
	for i, p := range parts {
		sum += p
		fmt.Fprintf(&b, "\n  %-40s %10.3f us", names[i], p)
	}
	fmt.Fprintf(&b, "\n  %-40s %10.3f us\n  %-40s %10.3f us (%.2f%%)", "sum of layers", sum,
		"traced per-decision time", perDecision, 100*(perDecision-sum)/perDecision)
	logf("%s: layer reconciliation per decision:%s", o.workload, b.String())

	ok := math.Abs(unaccounted) <= reconcileTolerancePct && clientNS >= 0 && dispatchNS >= 0
	if !ok {
		logf("%s: layers do not reconcile: %.2f%% of the traced time is unaccounted (tolerance %.0f%%), client %.1fus, dispatch %.1fus",
			o.workload, unaccounted, reconcileTolerancePct, us(clientNS), us(dispatchNS))
	}
	if overhead > traceOverheadPct {
		logf("%s: tracing cost %.1f%% throughput, above the stated %.0f%% (a slow host phase between the two runs also shows here)",
			o.workload, overhead, traceOverheadPct)
	}
	return m, ok
}
