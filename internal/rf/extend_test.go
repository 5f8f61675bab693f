package rf

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// extendGridInputs builds the adversarial probe set of the PR 4 shape
// grid: wide uniform draws interleaved with the values a threshold
// comparison could mis-handle (±Inf, NaN, signed zeros, denormals).
func extendGridInputs(d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	special := []float64{0, -0.0, 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308, 5e-324}
	probes := make([][]float64, 0, 120)
	for trial := 0; trial < 120; trial++ {
		x := make([]float64, d)
		for j := range x {
			if trial%4 == 3 {
				x[j] = special[rng.Intn(len(special))]
			} else {
				x[j] = (rng.Float64() - 0.5) * 4
			}
		}
		probes = append(probes, x)
	}
	return probes
}

// TestExtendEqualsTrainProperty is the incremental-training equality
// contract across the shape grid: for every (trees, depth,
// dimensionality) shape, Train(n) extended by k trees must be
// deep-equal to Train(n+k) — node for node, OOB included — and the
// first n trees must be untouched.
func TestExtendEqualsTrainProperty(t *testing.T) {
	seed := int64(100)
	for _, nTrees := range []int{1, 4, 9} {
		for _, extra := range []int{1, 5} {
			for _, depth := range []int{1, 4, 10} {
				for _, d := range []int{1, 3, 14} {
					seed++
					X, y := makeDataset(120, d, 0.05, seed, func(x []float64) float64 { return 3*x[0] - 2*x[len(x)-1] })
					cfg := Config{NumTrees: nTrees, MaxDepth: depth, MinLeaf: 1,
						NumThresh: 8, SampleFrac: 1.0, Seed: seed, Workers: 1}
					base, err := Train(X, y, cfg)
					if err != nil {
						t.Fatal(err)
					}
					ext, err := Extend(base, X, y, cfg, extra)
					if err != nil {
						t.Fatal(err)
					}
					bigCfg := cfg
					bigCfg.NumTrees = nTrees + extra
					want, err := Train(X, y, bigCfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ext.trees, want.trees) {
						t.Fatalf("trees=%d+%d depth=%d d=%d: extended forest differs from Train(%d)",
							nTrees, extra, depth, d, nTrees+extra)
					}
					if !bitsEqual(ext.oobMAE, want.oobMAE) || ext.oobOK != want.oobOK {
						t.Fatalf("trees=%d+%d depth=%d d=%d: OOB %v/%v, want %v/%v",
							nTrees, extra, depth, d, ext.oobMAE, ext.oobOK, want.oobMAE, want.oobOK)
					}
					// The base forest is untouched and its trees are the
					// extended forest's prefix, structurally identical.
					if len(base.trees) != nTrees {
						t.Fatalf("Extend mutated the base forest: %d trees", len(base.trees))
					}
					if !reflect.DeepEqual(base.trees, ext.trees[:nTrees]) {
						t.Fatal("extended forest's first trees differ from the base forest")
					}
				}
			}
		}
	}
}

// TestExtendPrefixTreePredictionsBitIdentical pins the per-tree
// prediction contract directly: after extension, each of the first n
// trees — tree-walked and compiled — returns bit-identical values on
// the adversarial probe grid, and the compiled node pool of the
// extension is a strict superset (the prefix arrays are equal).
func TestExtendPrefixTreePredictionsBitIdentical(t *testing.T) {
	X, y := makeDataset(150, 6, 0.05, 5, func(x []float64) float64 { return x[0]*x[3] - x[5] })
	cfg := Config{NumTrees: 7, MaxDepth: 8, MinLeaf: 1, NumThresh: 8, SampleFrac: 1.0, Seed: 5, Workers: 1}
	base, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := Extend(base, X, y, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	probes := extendGridInputs(6, 55)
	for ti := range base.trees {
		for pi, x := range probes {
			a := base.trees[ti].predict(x)
			b := ext.trees[ti].predict(x)
			if !bitsEqual(a, b) {
				t.Fatalf("tree %d probe %d: base %v != extended %v", ti, pi, a, b)
			}
		}
	}

	// Compiled forms: the extended pool's prefix is the base pool, leaf
	// payloads included (they live in the nodes).
	cb := compileOrFatal(t, base)
	ce := compileOrFatal(t, ext)
	if ce.NumTrees() != cb.NumTrees()+4 {
		t.Fatalf("compiled extension has %d trees, want %d", ce.NumTrees(), cb.NumTrees()+4)
	}
	n := cb.NumNodes()
	if ce.NumNodes() < n {
		t.Fatalf("compiled extension pool shrank: %d < %d", ce.NumNodes(), n)
	}
	if !reflect.DeepEqual(cb.nodes, ce.nodes[:n]) ||
		!reflect.DeepEqual(cb.roots, ce.roots[:cb.NumTrees()]) ||
		!reflect.DeepEqual(cb.depths, ce.depths[:cb.NumTrees()]) {
		t.Fatal("compiled extension's node-pool prefix differs from the base compilation")
	}
	// And the compiled whole agrees with tree walking on the probes —
	// the PR 4 contract carried over to extended forests.
	for pi, x := range probes {
		want := ext.Predict(x)
		got := ce.Predict(x)
		if !bitsEqual(got, want) {
			t.Fatalf("probe %d: compiled extended %v != tree-walk %v", pi, got, want)
		}
	}
}

// TestExtendChainsAndWorkers checks extend(n)+extend(j)+extend(k) ==
// train(n+j+k) and that the result is worker-count independent, like
// Train's.
func TestExtendChainsAndWorkers(t *testing.T) {
	X, y := makeDataset(100, 4, 0.05, 9, func(x []float64) float64 { return x[1] - 2*x[2] })
	cfg := Config{NumTrees: 2, MaxDepth: 6, MinLeaf: 1, NumThresh: 8, SampleFrac: 1.0, Seed: 9, Workers: 1}
	f2, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f5, err := Extend(f2, X, y, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg5 := cfg
	cfg5.NumTrees = 5
	cfg5.Workers = 4
	f9, err := Extend(f5, X, y, cfg5, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg9 := cfg
	cfg9.NumTrees = 9
	want, err := Train(X, y, cfg9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f9.trees, want.trees) || !bitsEqual(f9.oobMAE, want.oobMAE) {
		t.Fatal("chained extension with mixed worker counts differs from Train(9)")
	}
}

// TestExtendValidation pins the error paths.
func TestExtendValidation(t *testing.T) {
	X, y := makeDataset(50, 3, 0.05, 3, func(x []float64) float64 { return x[0] })
	cfg := Config{NumTrees: 3, MaxDepth: 4, MinLeaf: 1, NumThresh: 6, SampleFrac: 1.0, Seed: 3, Workers: 1}
	f, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Extend(nil, X, y, cfg, 1); err == nil {
		t.Fatal("Extend accepted a nil forest")
	}
	if _, err := Extend(f, X, y, cfg, 0); err == nil {
		t.Fatal("Extend accepted extra = 0")
	}
	bad := cfg
	bad.NumTrees = 4
	if _, err := Extend(f, X, y, bad, 1); err == nil {
		t.Fatal("Extend accepted a config whose NumTrees mismatches the forest")
	}
	if _, err := Extend(f, X[:10], y, cfg, 1); err == nil {
		t.Fatal("Extend accepted mismatched row/target counts")
	}
	X4, y4 := makeDataset(50, 4, 0.05, 3, func(x []float64) float64 { return x[0] })
	if _, err := Extend(f, X4, y4, cfg, 1); err == nil {
		t.Fatal("Extend accepted data with the wrong dimensionality")
	}
	ragged := [][]float64{{1, 2, 3}, {1, 2}}
	if _, err := Extend(f, ragged, []float64{1, 2}, Config{NumTrees: 3, MaxDepth: 4, MinLeaf: 1, NumThresh: 6, SampleFrac: 1.0, Seed: 3}, 1); err == nil {
		t.Fatal("Extend accepted ragged rows")
	}
}
