package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"time"
)

// runStats is what one timed run measured. A run is lanes × passes
// suite passes; every pass of every lane makes perPass decisions.
type runStats struct {
	lanes, perPass int
	decisions      int
	passNS         []int64   // wall time of every pass of every lane
	laneNS         int64     // summed wall time of the lanes' timed loops
	rootNS         int64     // traced runs: summed time of the lanes' outermost spans
	lat            []float64 // decision latencies, ms
	savings        float64   // suite mean energy savings vs Turbo Core, %
	speedup        float64   // suite mean Turbo Core time / run time
	attempted      int64
	failed         int64
	digests        []digest // per app, suite order
	mem            memDelta
	heapLiveB      uint64 // live heap after a forced GC at the end
	arenaHits      uint64 // batched sweeps served by a pooled arena
	arenaMisses    uint64 // batched sweeps that built an arena
}

// memSnap is a point-in-time reading of the allocator and GC.
type memSnap struct {
	mallocs, totalAlloc uint64
	numGC               uint32
	gcCPU, cpu          float64 // cumulative CPU seconds
}

var cpuSamples = []rtmetrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rtmetrics.Read(cpuSamples)
	s := memSnap{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc, numGC: ms.NumGC}
	if cpuSamples[0].Value.Kind() == rtmetrics.KindFloat64 && cpuSamples[1].Value.Kind() == rtmetrics.KindFloat64 {
		s.gcCPU, s.cpu = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	}
	return s
}

// memDelta is the allocator and GC activity over a timed run.
type memDelta struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcCPU, cpu          float64
}

func (a memSnap) to(b memSnap) memDelta {
	return memDelta{
		mallocs:    b.mallocs - a.mallocs,
		allocBytes: b.totalAlloc - a.totalAlloc,
		gcCycles:   b.numGC - a.numGC,
		gcCPU:      b.gcCPU - a.gcCPU,
		cpu:        b.cpu - a.cpu,
	}
}

// liveHeap forces a collection and returns the bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// decisionsPerSecond derives throughput from the median pass time: all
// lanes run concurrently, each pass makes perPass decisions. The median
// keeps one slow pass (a GC burst, a host hiccup) from moving the
// figure while a slowdown of the typical pass still shows in full.
func (s *runStats) decisionsPerSecond() float64 {
	ps := make([]float64, len(s.passNS))
	for i, ns := range s.passNS {
		ps[i] = float64(ns)
	}
	m := median(ps)
	if m <= 0 {
		return 0
	}
	return float64(s.lanes*s.perPass) / (m / 1e9)
}

// endToEnd renders the end-to-end metrics of an untraced run.
func (s *runStats) endToEnd(setupS float64) map[string]metric {
	sorted := sortedCopy(s.lat)
	p50 := nearestRank(sorted, 50)
	p90 := nearestRank(sorted, 90)
	okPct := 0.0
	if s.attempted > 0 {
		okPct = 100 * float64(s.attempted-s.failed) / float64(s.attempted)
	}
	return map[string]metric{
		"setup_s":             {setupS, "s"},
		"decisions_per_s":     {s.decisionsPerSecond(), "1/s"},
		"decide_p50_ms":       {p50.Value, "ms"},
		"decide_p90_ms":       {p90.Value, "ms"},
		"allocs_per_decision": {float64(s.mem.mallocs) / float64(s.decisions), "count"},
		"heap_live_mb":        {float64(s.heapLiveB) / 1e6, "MB"},
		"energy_savings_pct":  {s.savings, "%"},
		"speedup":             {s.speedup, "x"},
		"ok_pct":              {okPct, "%"},
	}
}

// logRun prints a run's diagnostics to stderr: the whole-run rate next
// to the median-pass rate it reports, and the latency sample.
func (s *runStats) logRun(label string, wall time.Duration) {
	sorted := sortedCopy(s.lat)
	p90 := nearestRank(sorted, 90)
	p99 := nearestRank(sorted, 99)
	ps := make([]float64, len(s.passNS))
	for i, ns := range s.passNS {
		ps[i] = float64(ns) / 1e6
	}
	ps = sortedCopy(ps)
	logf("%s: %d decisions in %.2fs (whole-run %.1f/s, median-pass %.1f/s), %d latency samples, p90 %.4fms (%d beyond), p99 %.4fms (%d beyond, clamped=%v), %d allocs, %d GCs; pass ms p10/p25/p50/p75/p90 %.2f/%.2f/%.2f/%.2f/%.2f",
		label, s.decisions, wall.Seconds(), float64(s.decisions)/wall.Seconds(), s.decisionsPerSecond(),
		p90.N, p90.Value, p90.Beyond, p99.Value, p99.Beyond, p99.Clamped, s.mem.mallocs, s.mem.gcCycles,
		nearestRank(ps, 10).Value, nearestRank(ps, 25).Value, nearestRank(ps, 50).Value, nearestRank(ps, 75).Value, nearestRank(ps, 90).Value)
}
