package rf

// Paired kernel benchmarks for the two forest engines: the reference
// tree walk and the branchless clustered level-order layout. Scalar
// pairs run both with one fixed input row (the predictor-friendly best
// case for branchy descent: every data-dependent branch repeats, so the
// tree walk speculates perfectly) and cycling over 64 distinct rows
// (the serving regime — every decision carries fresh counters, so
// branchy descent pays misprediction flushes while the predicated
// kernels are input-oblivious). The set sweep times the grid descent
// over one decision-sweep-shaped grid.
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

// BenchmarkCompiledSetSweep measures one 336-row grid descent shaped
// like a decision sweep: the eight leading features are one input row
// shared by every row, and the six trailing features take a few
// distinct values each over a 7×12×4 grid, the CPU × (NB, GPU) × CU
// product of a configuration space. Each depends on one factor, as its
// configuration feature does.
func BenchmarkCompiledSetSweep(b *testing.B) {
	c := compileOrFatal(b, benchForest(b))
	x := benchInputs(1)[0]
	levels := [6]int{3, 5, 4, 4, 2, 7} // distinct values per trailing feature
	level := func(f, l int) float64 { return -2 + 4*float64(l)/float64(levels[f]-1) }
	const nCPU, nNB, nGPU, nCU = 7, 4, 3, 4
	feats := make([]GridFeature, len(levels))
	for f, k := range [6]int{1, 1, 2, 1, 1, 0} {
		feats[f] = GridFeature{Feature: 8 + f, Factor: k}
	}
	for p := 0; p < nNB*nGPU; p++ {
		nb, gpu := p/nGPU, p%nGPU
		feats[0].Vals = append(feats[0].Vals, level(0, gpu))
		feats[1].Vals = append(feats[1].Vals, level(1, (gpu+nb)%5))
		feats[3].Vals = append(feats[3].Vals, level(3, nb))
		feats[4].Vals = append(feats[4].Vals, level(4, nb/3))
	}
	for cu := 0; cu < nCU; cu++ {
		feats[2].Vals = append(feats[2].Vals, level(2, cu))
	}
	for cpu := 0; cpu < nCPU; cpu++ {
		feats[5].Vals = append(feats[5].Vals, level(5, cpu))
	}
	g, err := NewGrid(14, [GridFactors]int{nCPU, nNB * nGPU, nCU}, feats)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, g.Rows())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.PredictGridInto(dst, x, g)
	}
}
