// Paired benchmarks for cross-session decision batching: one fused
// mega-batch evaluation over N queued sweep requests versus the N
// independent sweeps it replaces, and the end-to-end coordinator
// round-trip under concurrent submitters.
//
// Regenerate with:
//
//	go test . -run '^$' -bench '^BenchmarkBatch' -benchmem -cpu 1,2
//
// Each op processes the same N sweeps in both variants, so ns/op is
// directly comparable at a given N. On one CPU the fused path wins on
// shared per-epoch work (one key matrix walk per tree block instead of
// N pool round-trips); with spare cores it additionally frees the
// submitting sessions to overlap their non-search work with the one
// evaluating goroutine.
package mpcdvfs_test

import (
	"strconv"
	"testing"
	"time"

	"mpcdvfs/internal/batch"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/predict"
)

// batchCounterSets returns n counter sets cycling over distinct kernel
// archetypes, the coordinator's steady-state diversity.
func batchCounterSets(n int) []struct {
	cs []float64
	k  kernel.Kernel
} {
	ks := []kernel.Kernel{
		kernel.NewComputeBound("cb", 1), kernel.NewMemoryBound("mb", 1),
		kernel.NewPeak("pk", 1), kernel.NewBalanced("ba", 1),
	}
	out := make([]struct {
		cs []float64
		k  kernel.Kernel
	}, n)
	for i := range out {
		out[i].k = ks[i%len(ks)]
	}
	return out
}

var batchNs = []int{1, 4, 16, 64}

// BenchmarkBatchFusedSweeps evaluates N queued requests as one fused
// mega-batch through a FusedPlan — the coordinator's epoch body.
func BenchmarkBatchFusedSweeps(b *testing.B) {
	m := benchServeRF(b)
	space := hw.DefaultSpace()
	for _, n := range batchNs {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			reqs := batchCounterSets(n)
			plan := predict.NewFusedPlan(m, space, n)
			if plan == nil {
				b.Fatal("NewFusedPlan returned nil for a compiled model")
			}
			dsts := make([][]predict.Estimate, n)
			for i := range dsts {
				dsts[i] = make([]predict.Estimate, space.Size())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := range reqs {
					plan.Stage(s, reqs[s].k.Counters())
				}
				plan.Execute(n, dsts)
			}
		})
	}
}

// BenchmarkBatchSerialSweeps is the baseline the fused epoch replaces:
// the same N requests as N independent batched sweeps.
func BenchmarkBatchSerialSweeps(b *testing.B) {
	m := benchServeRF(b)
	space := hw.DefaultSpace()
	for _, n := range batchNs {
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			reqs := batchCounterSets(n)
			dsts := make([][]predict.Estimate, n)
			for i := range dsts {
				dsts[i] = make([]predict.Estimate, space.Size())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := range reqs {
					if !m.PredictSpace(reqs[s].k.Counters(), space, dsts[s]) {
						b.Fatal("PredictSpace returned false on a compiled model")
					}
				}
			}
		})
	}
}

// BenchmarkBatchCoordinatorRoundTrip measures the full session-side
// path — submit, park, epoch, scatter, unpark — under concurrent
// submitters, against which the in-process sweep above is the floor.
func BenchmarkBatchCoordinatorRoundTrip(b *testing.B) {
	m := benchServeRF(b)
	space := hw.DefaultSpace()
	c := batch.New(batch.Config{Window: 50 * time.Microsecond})
	defer c.Stop()
	cs := kernel.NewBalanced("ba", 1).Counters()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rs := predict.NewRemoteSweep(predict.NewCalibrated(m), m, c.Submit)
		dst := make([]predict.Estimate, space.Size())
		for pb.Next() {
			if !rs.PredictSpace(cs, space, dst) {
				b.Fatal("PredictSpace declined on a compiled model")
			}
		}
	})
}
