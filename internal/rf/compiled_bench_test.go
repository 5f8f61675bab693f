package rf

// Paired kernel benchmarks for the two forest engines: the reference
// tree walk and the branchless clustered level-order layout. Scalar
// pairs run both with one fixed input row (the predictor-friendly best
// case for branchy descent: every data-dependent branch repeats, so the
// tree walk speculates perfectly) and cycling over 64 distinct rows
// (the serving regime — every decision carries fresh counters, so
// branchy descent pays misprediction flushes while the predicated
// kernels are input-oblivious).
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

// benchMatrix builds a 336-row flat matrix, the default decision-space
// sweep size.
func benchMatrix() []float64 {
	rng := rand.New(rand.NewSource(3))
	flat := make([]float64, 336*14)
	for i := range flat {
		flat[i] = (rng.Float64() - 0.5) * 4
	}
	return flat
}

func BenchmarkCompiledBatchInterleaved(b *testing.B) {
	c := compileOrFatal(b, benchForest(b))
	flat := benchMatrix()
	dst := make([]float64, len(flat)/14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PredictBatchInto(dst, flat)
	}
}

func BenchmarkCompiledBatchInterleavedKeys(b *testing.B) {
	c := compileOrFatal(b, benchForest(b))
	flat := benchMatrix()
	keys := make([]uint64, len(flat))
	KeysInto(keys, flat)
	dst := make([]float64, len(flat)/14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PredictBatchKeysInto(dst, keys)
	}
}
