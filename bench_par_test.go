// Benchmarks for the parallel hot path — tree-parallel Random Forest
// training, serial and parallel variants paired so the speedup is a
// one-line benchstat comparison — plus the exhaustive configuration
// sweep and a full MPC replay, which run serially on the batched
// compiled path:
//
//	go test -run '^$' -bench '^BenchmarkPar' -benchmem -cpu 1,2
//
// Every parallel path is deterministic — these pairs measure cost only;
// the results are byte-identical by construction (see the property
// tests in internal/rf).
package mpcdvfs_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mpcdvfs"
	"mpcdvfs/internal/core"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/rf"
)

// parBenchData is the shared training set for the rf benchmarks: large
// enough that tree growth dominates goroutine coordination.
var parBenchData = sync.OnceValues(func() ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(17))
	n, d := 1500, 8
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := make([]float64, d)
		for j := range x {
			x[j] = rng.Float64()
		}
		X[i] = x
		y[i] = math.Sin(3*x[0])*x[1] + x[2] - 0.5*x[3] + 0.05*rng.NormFloat64()
	}
	return X, y
})

func benchParTrain(b *testing.B, workers int) {
	X, y := parBenchData()
	cfg := rf.DefaultConfig(17)
	cfg.NumTrees = 16
	cfg.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rf.Train(X, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParTrainSerial(b *testing.B)   { benchParTrain(b, 1) }
func BenchmarkParTrainWorkers4(b *testing.B) { benchParTrain(b, 4) }

// parBenchModel is a small Random Forest predictor shared by the sweep
// and replay benchmarks.
var parBenchModel = sync.OnceValues(func() (*predict.RandomForest, error) {
	opt := mpcdvfs.DefaultTrainOptions(17)
	opt.NumKernels = 12
	opt.Forest = rf.Config{
		NumTrees: 8, MaxDepth: 8, MinLeaf: 2, NumThresh: 12,
		SampleFrac: 1.0, Seed: 17,
	}
	return predict.TrainRandomForest(opt)
})

func BenchmarkParExhaustiveSerial(b *testing.B) {
	m, err := parBenchModel()
	if err != nil {
		b.Fatal(err)
	}
	opt := core.NewOptimizer(predict.NewCalibrated(m), hw.DefaultSpace())
	cs := kernel.NewBalanced("bench", 1).Counters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = opt.ExhaustiveSearch(cs, math.Inf(1))
	}
}

// BenchmarkParMPCReplay measures a full MPC replay of Spmv (profiling
// run plus one steady run).
func BenchmarkParMPCReplay(b *testing.B) {
	m, err := parBenchModel()
	if err != nil {
		b.Fatal(err)
	}
	sys := mpcdvfs.NewSystem()
	app, err := mpcdvfs.BenchmarkByName("Spmv")
	if err != nil {
		b.Fatal(err)
	}
	_, target, err := sys.Baseline(&app)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunRepeated(&app, sys.NewMPC(m), target, 2); err != nil {
			b.Fatal(err)
		}
	}
}
