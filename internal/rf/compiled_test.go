package rf

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// compileOrFatal compiles f, failing the test on error.
func compileOrFatal(tb testing.TB, f *Forest) *CompiledForest {
	tb.Helper()
	c, err := f.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// bitsEqual reports bit-for-bit float equality (the compiled contract —
// an approximate comparison would hide exactly the drift this layer
// must never introduce).
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestCompiledEquivalenceProperty trains forests across a grid of
// shapes (tree counts, depths, dimensionalities, leaf sizes), compiles
// each, and checks bit-identical predictions on random inputs — wide
// uniform draws plus the adversarial values a threshold comparison
// could mis-handle (±Inf, NaN, exact zeros).
func TestCompiledEquivalenceProperty(t *testing.T) {
	targets := []func([]float64) float64{
		func(x []float64) float64 { return x[0] },
		func(x []float64) float64 { return 3*x[0] - 2*x[len(x)-1] },
		func(x []float64) float64 { return math.Sin(5*x[0]) * x[len(x)/2] },
	}
	seed := int64(1)
	for _, nTrees := range []int{1, 4, 8, 9} {
		for _, depth := range []int{1, 4, 10} {
			for _, d := range []int{1, 3, 14} {
				seed++
				fn := targets[int(seed)%len(targets)]
				X, y := makeDataset(120, d, 0.05, seed, fn)
				cfg := Config{NumTrees: nTrees, MaxDepth: depth, MinLeaf: 1,
					NumThresh: 8, SampleFrac: 1.0, Seed: seed, Workers: 1}
				f, err := Train(X, y, cfg)
				if err != nil {
					t.Fatal(err)
				}
				c := compileOrFatal(t, f)
				if c.NumTrees() != f.NumTrees() || c.NumFeatures() != f.NumFeatures() {
					t.Fatalf("compiled shape %d trees/%d features, want %d/%d",
						c.NumTrees(), c.NumFeatures(), f.NumTrees(), f.NumFeatures())
				}
				rng := rand.New(rand.NewSource(seed * 31))
				special := []float64{0, -0.0, 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308, 5e-324}
				for trial := 0; trial < 200; trial++ {
					x := make([]float64, d)
					for j := range x {
						if trial%4 == 3 {
							x[j] = special[rng.Intn(len(special))]
						} else {
							x[j] = (rng.Float64() - 0.5) * 4
						}
					}
					want := f.Predict(x)
					got := c.Predict(x)
					if !bitsEqual(got, want) {
						t.Fatalf("trees=%d depth=%d d=%d trial=%d: compiled %v != tree-walk %v",
							nTrees, depth, d, trial, got, want)
					}
				}
			}
		}
	}
}

// TestCompiledBatchMatchesScalar checks that the tree-outer batched
// evaluation returns, for every row, exactly the scalar compiled (and
// therefore tree-walking) prediction.
func TestCompiledBatchMatchesScalar(t *testing.T) {
	X, y := makeDataset(200, 5, 0.05, 7, func(x []float64) float64 { return x[0]*x[1] - x[4] })
	f, err := Train(X, y, Config{NumTrees: 6, MaxDepth: 6, MinLeaf: 1, NumThresh: 8, SampleFrac: 1.0, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := compileOrFatal(t, f)

	const rows = 64
	rng := rand.New(rand.NewSource(8))
	flat := make([]float64, rows*5)
	for i := range flat {
		flat[i] = (rng.Float64() - 0.5) * 3
	}
	got := c.PredictBatch(flat)
	if len(got) != rows {
		t.Fatalf("batch returned %d rows, want %d", len(got), rows)
	}
	for r := 0; r < rows; r++ {
		row := flat[r*5 : (r+1)*5]
		if want := c.Predict(row); !bitsEqual(got[r], want) {
			t.Fatalf("row %d: batch %v != scalar %v", r, got[r], want)
		}
		if want := f.Predict(row); !bitsEqual(got[r], want) {
			t.Fatalf("row %d: batch %v != tree-walk %v", r, got[r], want)
		}
	}

	// Into variant reuses the caller's buffer and returns it.
	dst := make([]float64, rows)
	if out := c.PredictBatchInto(dst, flat); &out[0] != &dst[0] {
		t.Fatal("PredictBatchInto did not reuse the caller's buffer")
	}
	for r := range dst {
		if !bitsEqual(dst[r], got[r]) {
			t.Fatalf("row %d: Into %v != Batch %v", r, dst[r], got[r])
		}
	}
}

// TestPredictBatchEmpty pins the n==0 fast paths: no allocation, no
// worker-pool dispatch, nil result — on both engines.
func TestPredictBatchEmpty(t *testing.T) {
	f := fuzzForest(t)
	c := compileOrFatal(t, f)
	if out := f.PredictBatch(nil, 0); out != nil {
		t.Fatalf("Forest.PredictBatch(nil) = %v, want nil", out)
	}
	if out := f.PredictBatch([][]float64{}, 4); out != nil {
		t.Fatalf("Forest.PredictBatch(empty) = %v, want nil", out)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = f.PredictBatch(nil, 0) }); allocs != 0 {
		t.Fatalf("Forest.PredictBatch(nil) allocates %v times per call, want 0", allocs)
	}
	if out := c.PredictBatch(nil); out != nil {
		t.Fatalf("CompiledForest.PredictBatch(nil) = %v, want nil", out)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = c.PredictBatch(nil) }); allocs != 0 {
		t.Fatalf("CompiledForest.PredictBatch(nil) allocates %v times per call, want 0", allocs)
	}
	if out := c.PredictBatchInto([]float64{}, nil); len(out) != 0 {
		t.Fatalf("PredictBatchInto(empty) = %v, want empty", out)
	}
}

// TestCompiledBatchPanics pins the up-front shape checks.
func TestCompiledBatchPanics(t *testing.T) {
	c := compileOrFatal(t, fuzzForest(t)) // 3 features
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("Predict wrong dim", func() { c.Predict(make([]float64, 2)) })
	expectPanic("PredictBatch ragged", func() { c.PredictBatch(make([]float64, 7)) })
	expectPanic("PredictBatchInto short dst", func() {
		c.PredictBatchInto(make([]float64, 1), make([]float64, 6))
	})
}

// TestCompiledZeroAlloc pins the steady-state compiled inference paths
// at zero allocations per operation — the contract the MPC inner loop's
// per-decision budget is built on.
func TestCompiledZeroAlloc(t *testing.T) {
	f := fuzzForest(t)
	c := compileOrFatal(t, f)
	x := []float64{0.3, 0.7, 0.1}
	if allocs := testing.AllocsPerRun(200, func() { _ = c.Predict(x) }); allocs != 0 {
		t.Fatalf("CompiledForest.Predict allocates %v times per call, want 0", allocs)
	}
	rows := 21 // a full rowBlock plus a ragged tail
	flat := make([]float64, rows*3)
	for i := range flat {
		flat[i] = float64(i%7) * 0.2
	}
	dst := make([]float64, rows)
	if allocs := testing.AllocsPerRun(200, func() { c.PredictBatchInto(dst, flat) }); allocs != 0 {
		t.Fatalf("CompiledForest.PredictBatchInto allocates %v times per call, want 0", allocs)
	}
	keys := make([]uint64, len(flat))
	if allocs := testing.AllocsPerRun(200, func() { KeysInto(keys, flat) }); allocs != 0 {
		t.Fatalf("KeysInto allocates %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { c.PredictBatchKeysInto(dst, keys) }); allocs != 0 {
		t.Fatalf("CompiledForest.PredictBatchKeysInto allocates %v times per call, want 0", allocs)
	}
}

// TestSelfCheck exercises the train-time guard: a faithful compilation
// passes its cross-validation against the tree walk, and corruption of
// the branchless layout — a leaf payload or a threshold key — is
// caught.
func TestSelfCheck(t *testing.T) {
	f := fuzzForest(t)
	if err := compileOrFatal(t, f).SelfCheck(f, 2048, 99); err != nil {
		t.Fatalf("faithful compilation failed self-check: %v", err)
	}

	// Corrupt one branchless leaf payload: the check must notice.
	c := compileOrFatal(t, f)
	for i := range c.nodes {
		if c.nodes[i].left == int32(i) {
			c.leafVal[i] += 1e-9
			break
		}
	}
	if err := c.SelfCheck(f, 2048, 99); err == nil {
		t.Fatal("self-check accepted a corrupted branchless leaf payload")
	}

	// Corrupt one internal node's threshold key: descent takes the
	// wrong side for inputs straddling the split.
	c = compileOrFatal(t, f)
	for i := range c.nodes {
		if c.nodes[i].left != int32(i) {
			c.nodes[i].tkey ^= 1 << 62
			break
		}
	}
	if err := c.SelfCheck(f, 2048, 99); err == nil {
		t.Fatal("self-check accepted a corrupted threshold key")
	}
}

// TestCompileRejectsUnrepresentable covers the two compile errors.
func TestCompileRejectsUnrepresentable(t *testing.T) {
	if _, err := (&Forest{}).Compile(); err == nil {
		t.Fatal("compiled a forest with no trees")
	}
	f := &Forest{trees: make([]tree, 1), nFeatures: maxCompiledFeatures + 1}
	f.trees[0] = tree{Nodes: []node{{Feature: -1, Thresh: 1}}}
	if _, err := f.Compile(); err == nil {
		t.Fatal("compiled a forest beyond the fixed-width key-buffer layout")
	}
}

// TestKeyOrderEquivalence proves, exhaustively over an adversarial
// value grid, the transform the branchless descent rests on: for every
// input x and threshold t — NaNs of both signs, ±0, ±Inf, denormals and
// extreme magnitudes included — keyOf(x) <= threshKey(t) holds exactly
// when x <= t under IEEE semantics. It also pins the two structural
// facts the layout exploits: keyOf never yields 0 (so a NaN threshold's
// key 0 accepts no input) and never yields ^0 except for NaN (so a
// leaf's always-true ^0 sentinel is unreachable as a split... every key
// comparison against ^0 is true, which is exactly the self-loop).
func TestKeyOrderEquivalence(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1),
		math.NaN(), -math.NaN(), 1e308, -1e308, 5e-324, -5e-324,
		2.2250738585072014e-308, -2.2250738585072014e-308, 0.5, -0.5,
		math.MaxFloat64, -math.MaxFloat64, 3.25, -3.25,
		math.Float64frombits(0x7ff0000000000001), // signalling-style NaN
		math.Float64frombits(0xfff8000000000123), // negative quiet NaN
		math.Float64frombits(0x0000000000000001), // smallest denormal
		math.Float64frombits(0x8000000000000001), // smallest negative denormal
	}
	for _, x := range vals {
		if keyOf(x) == 0 {
			t.Fatalf("keyOf(%v) = 0: collides with the NaN-threshold sentinel", x)
		}
		if keyOf(x) == ^uint64(0) && !math.IsNaN(x) {
			t.Fatalf("keyOf(%v) = ^0 for a non-NaN input", x)
		}
		for _, th := range vals {
			want := x <= th
			got := keyOf(x) <= threshKey(th)
			if got != want {
				t.Errorf("x=%v (bits %#x) thresh=%v (bits %#x): key compare %v, IEEE %v",
					x, math.Float64bits(x), th, math.Float64bits(th), got, want)
			}
		}
	}
}

// chainTree builds a maximally skewed tree of the given depth on
// feature 0: each internal node hangs one leaf and one deeper chain
// node, alternating sides, so the layout's cluster recursion sees the
// worst case — every cluster holds a single spine.
func chainTree(depth int, leafBase float64) tree {
	var nodes []node
	var build func(d int) int32
	build = func(d int) int32 {
		self := int32(len(nodes))
		nodes = append(nodes, node{})
		if d == depth {
			nodes[self] = node{Feature: -1, Thresh: leafBase + float64(d)}
			return self
		}
		var leafSide, chainSide int32
		if d%2 == 0 {
			leafSide = int32(len(nodes))
			nodes = append(nodes, node{Feature: -1, Thresh: leafBase + float64(d) + 0.5})
			chainSide = build(d + 1)
			nodes[self] = node{Feature: 0, Thresh: float64(d) - 2.5, Left: leafSide, Right: chainSide}
		} else {
			chainSide = build(d + 1)
			leafSide = int32(len(nodes))
			nodes = append(nodes, node{Feature: -1, Thresh: leafBase + float64(d) + 0.5})
			nodes[self] = node{Feature: 0, Thresh: float64(d) - 2.5, Left: chainSide, Right: leafSide}
		}
		return self
	}
	build(0)
	return tree{Nodes: nodes}
}

// TestCompiledLayoutEdgeCases drives the clustered level-order layout
// through its structural corner cases — single-node trees, maximally
// skewed spines, depths exactly at (and one off) the cluster-stratum
// boundary, and ensembles straddling the scalar tree-block width — and
// requires bit-exact agreement with the tree walk on every path,
// scalar and batched.
func TestCompiledLayoutEdgeCases(t *testing.T) {
	const d = 3
	depths := []int{0, 1, clusterStratum - 1, clusterStratum, clusterStratum + 1,
		2*clusterStratum - 1, 2 * clusterStratum, 3*clusterStratum + 2}
	// Ensemble sizes straddling the treeBlock interleave width: all
	// tail, exact blocks, and blocks plus a ragged tail.
	for _, nTrees := range []int{1, treeBlock - 1, treeBlock, treeBlock + 1, 2*treeBlock + 3} {
		f := &Forest{nFeatures: d}
		for i := 0; i < nTrees; i++ {
			dep := depths[i%len(depths)]
			if dep == 0 {
				f.trees = append(f.trees, tree{Nodes: []node{{Feature: -1, Thresh: 1.5 * float64(i+1)}}})
				continue
			}
			f.trees = append(f.trees, chainTree(dep, float64(i)))
		}
		c := compileOrFatal(t, f)
		for i := range f.trees {
			wantDepth := depths[i%len(depths)]
			if got := int(c.depths[i]); got != wantDepth {
				t.Fatalf("nTrees=%d tree %d: compiled depth %d, want %d", nTrees, i, got, wantDepth)
			}
		}
		rng := rand.New(rand.NewSource(int64(nTrees)))
		special := []float64{0, -0.0, math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308, 5e-324}
		var flat []float64
		for trial := 0; trial < 300; trial++ {
			x := make([]float64, d)
			for j := range x {
				if trial%3 == 2 {
					x[j] = special[rng.Intn(len(special))]
				} else {
					// Straddle the chain thresholds, which run ~[-2.5, depth-3.5].
					x[j] = (rng.Float64() - 0.5) * 50
				}
			}
			want := f.Predict(x)
			if got := c.Predict(x); !bitsEqual(got, want) {
				t.Fatalf("nTrees=%d trial=%d x=%v: compiled %v != tree-walk %v", nTrees, trial, x, got, want)
			}
			flat = append(flat, x...)
		}
		rows := len(flat) / d
		dst := make([]float64, rows)
		c.PredictBatchInto(dst, flat)
		keys := make([]uint64, len(flat))
		KeysInto(keys, flat)
		kdst := make([]float64, rows)
		c.PredictBatchKeysInto(kdst, keys)
		for r := 0; r < rows; r++ {
			want := f.Predict(flat[r*d : (r+1)*d])
			if !bitsEqual(dst[r], want) {
				t.Fatalf("nTrees=%d batch row %d: %v != tree-walk %v", nTrees, r, dst[r], want)
			}
			if !bitsEqual(kdst[r], want) {
				t.Fatalf("nTrees=%d keyed batch row %d: %v != tree-walk %v", nTrees, r, kdst[r], want)
			}
		}
		if err := c.SelfCheck(f, 256, int64(nTrees)*7+1); err != nil {
			t.Fatalf("nTrees=%d: self-check failed: %v", nTrees, err)
		}
	}
}

// TestCompiledLayoutInvariants pins the structural properties the
// borrow-select descent assumes: children occupy adjacent slots (left
// first), leaves self-loop with the always-true key and feature 0, and
// every tree's nodes were all emitted exactly once.
func TestCompiledLayoutInvariants(t *testing.T) {
	X, y := makeDataset(400, 6, 0.05, 17, func(x []float64) float64 { return x[0]*x[3] - x[5] })
	f, err := Train(X, y, Config{NumTrees: 9, MaxDepth: 10, MinLeaf: 1,
		NumThresh: 16, SampleFrac: 1.0, Seed: 17, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := compileOrFatal(t, f)
	total := 0
	for i := range f.trees {
		total += len(f.trees[i].Nodes)
	}
	if c.NumNodes() != total {
		t.Fatalf("pool holds %d nodes, forest has %d", c.NumNodes(), total)
	}
	leaves := 0
	for i := range c.nodes {
		n := c.nodes[i]
		if n.left == int32(i) { // leaf
			leaves++
			if n.tkey != ^uint64(0) {
				t.Fatalf("leaf %d key %#x, want ^0", i, n.tkey)
			}
			if n.feat != 0 {
				t.Fatalf("leaf %d feature %d, want 0", i, n.feat)
			}
			continue
		}
		if n.left < 0 || int(n.left)+1 >= len(c.nodes) {
			t.Fatalf("internal node %d child pair (%d,%d) out of pool", i, n.left, n.left+1)
		}
		if int(n.feat) >= c.NumFeatures() {
			t.Fatalf("internal node %d splits on feature %d of %d", i, n.feat, c.NumFeatures())
		}
	}
	if leaves == 0 {
		t.Fatal("no leaves found in the pool")
	}
}

// FuzzCompiledEquivalence drives the bit-exactness contract with
// fuzzer-chosen forest shapes and raw input bits: any trainable forest,
// compiled, must predict bit-identically to the tree-walking original
// on any input — including NaNs, infinities and denormals assembled
// from the raw bytes.
func FuzzCompiledEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4), []byte("0123456789abcdef0123456789abcdef"))
	f.Add(int64(42), uint8(1), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f})                   // +Inf input
	f.Add(int64(7), uint8(5), uint8(8), []byte{1, 0, 0, 0, 0, 0, 0xf0, 0xff, 9, 9, 9, 9})        // NaN-adjacent
	f.Add(int64(-3), uint8(2), uint8(6), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f}) // MaxFloat64
	// Level-order layout refresh: ensembles straddling the scalar
	// tree-block width (8) and depths straddling the cluster stratum
	// (6), with sign-boundary and denormal inputs that stress the
	// order-preserving key transform.
	f.Add(int64(11), uint8(7), uint8(6), []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0})    // 8 trees, -0 and denormal
	f.Add(int64(23), uint8(8), uint8(7), []byte{0, 0, 0, 0, 0, 0, 0xf8, 0xff, 0x55})                   // 9 trees, -NaN
	f.Add(int64(-9), uint8(11), uint8(5), []byte("level-order-cluster-boundary-bits"))                 // 12 trees, depth 6
	f.Add(int64(31), uint8(9), uint8(8), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x42}) // ^0 bits (NaN) inputs
	f.Fuzz(func(t *testing.T, seed int64, nTrees, depth uint8, raw []byte) {
		nt := int(nTrees)%12 + 1
		dp := int(depth)%8 + 1
		const d = 3
		X, y := makeDataset(40, d, 0.05, seed, func(x []float64) float64 { return x[0] - x[2] })
		forest, err := Train(X, y, Config{NumTrees: nt, MaxDepth: dp, MinLeaf: 1,
			NumThresh: 4, SampleFrac: 1.0, Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		c, err := forest.Compile()
		if err != nil {
			t.Fatal(err)
		}
		// Assemble input rows from the raw bytes, 8 per feature value;
		// missing bytes repeat deterministically.
		if len(raw) == 0 {
			raw = []byte{0}
		}
		var rows []float64
		for r := 0; r < 8; r++ {
			for j := 0; j < d; j++ {
				var b [8]byte
				for k := range b {
					b[k] = raw[(r*d*8+j*8+k)%len(raw)]
				}
				rows = append(rows, math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
			}
		}
		for r := 0; r < 8; r++ {
			x := rows[r*d : (r+1)*d]
			want := forest.Predict(x)
			got := c.Predict(x)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("x=%v: compiled %v (bits %#x) != tree-walk %v (bits %#x)",
					x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		batch := c.PredictBatch(rows)
		for r := range batch {
			if want := forest.Predict(rows[r*d : (r+1)*d]); math.Float64bits(batch[r]) != math.Float64bits(want) {
				t.Fatalf("batch row %d: %v != %v", r, batch[r], want)
			}
		}
	})
}
