package rf

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// randomConfig draws a small but non-degenerate training configuration.
func randomConfig(rng *rand.Rand) Config {
	return Config{
		NumTrees:    1 + rng.Intn(12),
		MaxDepth:    1 + rng.Intn(8),
		MinLeaf:     1 + rng.Intn(3),
		MaxFeatures: 0,
		NumThresh:   1 + rng.Intn(16),
		SampleFrac:  0.5 + rng.Float64()*0.5,
		Seed:        rng.Int63(),
	}
}

// Property: training with any worker count produces a forest that is
// byte-identical to the serial one — same trees in the same order, same
// OOB estimate. This is the determinism contract of the seeding scheme
// documented in the package comment.
func TestParallelTrainMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		n := 40 + rng.Intn(160)
		d := 1 + rng.Intn(6)
		X, y := makeDataset(n, d, 0.05, rng.Int63(), func(x []float64) float64 {
			s := 0.0
			for _, v := range x {
				s += v
			}
			return s
		})
		cfg := randomConfig(rng)

		serial := cfg
		serial.Workers = 1
		fs, err := Train(X, y, serial)
		if err != nil {
			t.Fatalf("trial %d: serial train: %v", trial, err)
		}
		bs, err := fs.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}

		for _, workers := range []int{2, 4, 7} {
			parCfg := cfg
			parCfg.Workers = workers
			fp, err := Train(X, y, parCfg)
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, workers, err)
			}
			if !reflect.DeepEqual(fs.trees, fp.trees) {
				t.Fatalf("trial %d workers=%d: trees differ from serial", trial, workers)
			}
			bp, err := fp.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bs, bp) {
				t.Fatalf("trial %d workers=%d: serialized forest differs from serial", trial, workers)
			}
			sm, sok := fs.OOBMAE()
			pm, pok := fp.OOBMAE()
			if sok != pok || sm != pm {
				t.Fatalf("trial %d workers=%d: OOB (%v,%v) != serial (%v,%v)",
					trial, workers, pm, pok, sm, sok)
			}
		}
	}
}
