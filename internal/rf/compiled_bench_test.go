package rf

// Paired kernel benchmarks for the two forest engines: the reference
// tree walk and the branchless clustered level-order layout. Scalar
// pairs run both with one fixed input row (the predictor-friendly best
// case for branchy descent: every data-dependent branch repeats, so the
// tree walk speculates perfectly) and cycling over 64 distinct rows
// (the serving regime — every decision carries fresh counters, so
// branchy descent pays misprediction flushes while the predicated
// kernels are input-oblivious). The set sweep times the set descent
// over one decision-sweep-shaped row set.
//
// The "kernels" section of BENCH_rf.json is recorded from:
//
//	go test ./internal/rf -run '^$' -bench '^BenchmarkCompiled' -benchmem

import (
	"math"
	"math/rand"
	"testing"
)

// benchForest mirrors the shared fixture's shape: 40 trees, depth 14,
// 14 features.
func benchForest(tb testing.TB) *Forest {
	tb.Helper()
	X, y := makeDataset(3000, 14, 0.05, 42, func(x []float64) float64 {
		return x[0]*x[1] - 3*x[13] + math.Sin(4*x[7])*x[2]
	})
	f, err := Train(X, y, Config{NumTrees: 40, MaxDepth: 14, MinLeaf: 2,
		MaxFeatures: 7, NumThresh: 24, SampleFrac: 1.0, Seed: 42, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

func benchInputs(n int) [][]float64 {
	rng := rand.New(rand.NewSource(77))
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, 14)
		for j := range x {
			x[j] = (rng.Float64() - 0.5) * 4
		}
		xs[i] = x
	}
	return xs
}

func BenchmarkCompiledScalarTreeWalk(b *testing.B) {
	f := benchForest(b)
	x := benchInputs(1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Predict(x)
	}
}

func BenchmarkCompiledScalarBranchless(b *testing.B) {
	c := compileOrFatal(b, benchForest(b))
	x := benchInputs(1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Predict(x)
	}
}

func BenchmarkCompiledScalarTreeWalkVaried(b *testing.B) {
	f := benchForest(b)
	xs := benchInputs(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Predict(xs[i&63])
	}
}

func BenchmarkCompiledScalarBranchlessVaried(b *testing.B) {
	c := compileOrFatal(b, benchForest(b))
	xs := benchInputs(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Predict(xs[i&63])
	}
}

// BenchmarkCompiledSetSweep measures one 336-row set descent shaped
// like a decision sweep: the eight leading features are one input row
// shared by every row, and the six trailing features take a few
// distinct values each, laid out as the 7×4×3×4 product of a
// configuration space.
func BenchmarkCompiledSetSweep(b *testing.B) {
	c := compileOrFatal(b, benchForest(b))
	x := benchInputs(1)[0]
	levels := [6]int{3, 5, 4, 4, 2, 7} // distinct values per trailing feature
	cols := make([][]float64, len(levels))
	for f := range cols {
		cols[f] = make([]float64, 336)
	}
	for r := 0; r < 336; r++ {
		cpu, nb, gpu, cu := r/48, r/12%4, r/4%3, r%4
		level := [6]int{gpu, (gpu + nb) % 5, cu, nb, nb / 3, cpu}
		for f, l := range level {
			cols[f][r] = -2 + 4*float64(l)/float64(levels[f]-1)
		}
	}
	splits := make([]RowSplits, 14)
	for f, col := range cols {
		splits[8+f] = NewRowSplits(col)
	}
	dst := make([]float64, 336)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PredictSetInto(dst, x, splits)
	}
}
