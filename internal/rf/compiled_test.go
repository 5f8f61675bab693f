package rf

import (
	"encoding/binary"
	"fmt"
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
				special := []float64{0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308, 5e-324}
				rows := make([][]float64, 200)
				for trial := range rows {
					x := make([]float64, d)
					for j := range x {
						if trial%4 == 3 {
							x[j] = special[rng.Intn(len(special))]
						} else {
							x[j] = (rng.Float64() - 0.5) * 4
						}
					}
					rows[trial] = x
					want := f.Predict(x)
					got := c.Predict(x)
					if !bitsEqual(got, want) {
						t.Fatalf("trees=%d depth=%d d=%d trial=%d: compiled %v != tree-walk %v",
							nTrees, depth, d, trial, got, want)
					}
				}
				// The same rows as set descents: every feature varying,
				// and alternate features shared.
				name := fmt.Sprintf("trees=%d depth=%d d=%d", nTrees, depth, d)
				checkSetDescent(t, name, f, c, rows, make([]bool, d))
				shared := make([]bool, d)
				for j := range shared {
					shared[j] = (j+int(seed))%2 == 0
				}
				checkSetDescent(t, name, f, c, rows, shared)
			}
		}
	}
}

// TestPredictSetIntoEmpty pins the empty set descent: no rows, an
// empty result at once.
func TestPredictSetIntoEmpty(t *testing.T) {
	c := compileOrFatal(t, fuzzForest(t))
	x := []float64{0.3, 0.7, 0.1}
	splits := make([]RowSplits, 3)
	if out := c.PredictSetInto(nil, x, splits); len(out) != 0 {
		t.Fatalf("PredictSetInto(empty) = %v, want empty", out)
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
	x := []float64{0.3, 0.7, 0.1}
	splits := make([]RowSplits, 3)
	expectPanic("Predict wrong dim", func() { c.Predict(make([]float64, 2)) })
	expectPanic("PredictSetInto wrong dim", func() { c.PredictSetInto(make([]float64, 2), x[:2], splits) })
	expectPanic("PredictSetInto short splits", func() { c.PredictSetInto(make([]float64, 2), x, splits[:2]) })
	expectPanic("PredictSetInto too many rows", func() { c.PredictSetInto(make([]float64, MaxSetRows+1), x, splits) })
	splits[1] = NewRowSplits([]float64{1, 2, 3})
	expectPanic("PredictSetInto row-count mismatch", func() { c.PredictSetInto(make([]float64, 2), x, splits) })
	expectPanic("NewRowSplits too many rows", func() { NewRowSplits(make([]float64, MaxSetRows+1)) })
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
	const rows = 70 // more than one bitset word
	col := make([]float64, rows)
	for r := range col {
		col[r] = float64(r%7) * 0.2
	}
	splits := []RowSplits{{}, NewRowSplits(col), {}}
	dst := make([]float64, rows)
	if allocs := testing.AllocsPerRun(200, func() { c.PredictSetInto(dst, x, splits) }); allocs != 0 {
		t.Fatalf("CompiledForest.PredictSetInto allocates %v times per call, want 0", allocs)
	}
}

// checkSetDescent runs rows through one set descent — features marked
// shared take rows[0]'s value on every row, the others vary per row —
// and requires each row's result to match the tree walk on that row
// bit for bit. The destination sits inside a larger buffer whose other
// slots must stay untouched.
func checkSetDescent(tb testing.TB, name string, f *Forest, c *CompiledForest, rows [][]float64, shared []bool) {
	tb.Helper()
	d := f.NumFeatures()
	n := len(rows)
	splits := make([]RowSplits, d)
	col := make([]float64, n)
	for j := 0; j < d; j++ {
		if shared[j] {
			continue
		}
		for r, x := range rows {
			col[r] = x[j]
		}
		splits[j] = NewRowSplits(col)
	}
	const pad = 3
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	buf := make([]float64, n+2*pad)
	for i := range buf {
		buf[i] = sentinel
	}
	dst := c.PredictSetInto(buf[pad:pad+n], rows[0], splits)
	row := make([]float64, d)
	for r, x := range rows {
		for j := range row {
			if shared[j] {
				row[j] = rows[0][j]
			} else {
				row[j] = x[j]
			}
		}
		if want := f.Predict(row); !bitsEqual(dst[r], want) {
			tb.Fatalf("%s shared=%v row %d of %d (%v): set %v (bits %#x) != tree-walk %v (bits %#x)",
				name, shared, r, n, row, dst[r], math.Float64bits(dst[r]), want, math.Float64bits(want))
		}
	}
	for i := range buf {
		if (i < pad || i >= pad+n) && math.Float64bits(buf[i]) != math.Float64bits(sentinel) {
			tb.Fatalf("%s: set descent over %d rows wrote slot %d outside dst", name, n, i-pad)
		}
	}
}

// TestPredictSetRowCounts runs set descents over row counts at and
// around the bitset word boundaries, the 336-configuration default
// space, the 560-configuration full space and the maximum, each with a
// few distinct values per varying feature (as a configuration space
// has) and, separately, with every row distinct.
func TestPredictSetRowCounts(t *testing.T) {
	f := benchForest(t)
	c := compileOrFatal(t, f)
	d := f.NumFeatures()
	shared := make([]bool, d)
	for j := 0; j < d/2; j++ {
		shared[j] = true
	}
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 63, 64, 65, 336, 560, MaxSetRows} {
		for _, levels := range []int{5, n} {
			table := make([][]float64, d)
			for j := range table {
				table[j] = make([]float64, levels)
				for k := range table[j] {
					table[j][k] = (rng.Float64() - 0.5) * 4
				}
			}
			rows := make([][]float64, n)
			for r := range rows {
				rows[r] = make([]float64, d)
				for j := range rows[r] {
					rows[r][j] = table[j][rng.Intn(levels)]
				}
			}
			checkSetDescent(t, fmt.Sprintf("rows=%d levels=%d", n, levels), f, c, rows, shared)
		}
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

	// Corrupt one leaf payload by flipping the lowest bit of the key
	// field that carries it: the check must notice a one-ulp change.
	c := compileOrFatal(t, f)
	for i := range c.nodes {
		if c.nodes[i].left == int32(i) {
			c.nodes[i].tkey ^= 1
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

// TestCompileRejectsUnrepresentable covers the two compile errors. A
// forest as wide as the key buffers is refused too: its leaves would
// point at key slot maxCompiledFeatures, past the buffer.
func TestCompileRejectsUnrepresentable(t *testing.T) {
	if _, err := (&Forest{}).Compile(); err == nil {
		t.Fatal("compiled a forest with no trees")
	}
	for _, nf := range []int{maxCompiledFeatures, maxCompiledFeatures + 1} {
		f := &Forest{trees: make([]tree, 1), nFeatures: nf}
		f.trees[0] = tree{Nodes: []node{{Feature: -1, Thresh: 1}}}
		if _, err := f.Compile(); err == nil {
			t.Fatalf("compiled a %d-feature forest beyond the fixed-width key-buffer layout", nf)
		}
	}
	f := &Forest{trees: make([]tree, 1), nFeatures: maxCompiledFeatures - 1}
	f.trees[0] = tree{Nodes: []node{{Feature: -1, Thresh: 1}}}
	c := compileOrFatal(t, f)
	if got := c.Predict(make([]float64, maxCompiledFeatures-1)); got != 1 {
		t.Fatalf("widest compilable forest predicts %v, want its leaf 1", got)
	}
}

// TestKeyOrderEquivalence proves, exhaustively over an adversarial
// value grid, the transform the branchless descent rests on: for every
// input x and threshold t — NaNs of both signs, ±0, ±Inf, denormals and
// extreme magnitudes included — keyOf(x) <= threshKey(t) holds exactly
// when x <= t under IEEE semantics. It also pins two structural facts
// of the key space: keyOf never yields 0, so a NaN threshold's key 0
// accepts no input, and it yields ^0 only for NaN, so NaN inputs sit
// above every threshold key. Leaves take no part in this: they compare
// their payload bits against the always-zero key slot, which never
// borrows whatever the bits are.
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
// scalar and set descent.
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
		special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308, 5e-324}
		rows := make([][]float64, 300)
		for trial := range rows {
			x := make([]float64, d)
			for j := range x {
				if trial%3 == 2 {
					x[j] = special[rng.Intn(len(special))]
				} else {
					// Straddle the chain thresholds, which run ~[-2.5, depth-3.5].
					x[j] = (rng.Float64() - 0.5) * 50
				}
			}
			rows[trial] = x
			want := f.Predict(x)
			if got := c.Predict(x); !bitsEqual(got, want) {
				t.Fatalf("nTrees=%d trial=%d x=%v: compiled %v != tree-walk %v", nTrees, trial, x, got, want)
			}
		}
		// The chains split on feature 0 only: varying it drives the
		// mask partition down every spine, sharing it the whole-set
		// compare.
		name := fmt.Sprintf("nTrees=%d", nTrees)
		checkSetDescent(t, name, f, c, rows, []bool{false, false, false})
		checkSetDescent(t, name, f, c, rows, []bool{true, false, true})
		if err := c.SelfCheck(f, 256, int64(nTrees)*7+1); err != nil {
			t.Fatalf("nTrees=%d: self-check failed: %v", nTrees, err)
		}
	}
}

// TestCompiledLayoutInvariants pins the structural properties the
// borrow-select descent assumes: children occupy adjacent slots (left
// first), leaves self-loop on the always-zero key slot NumFeatures()
// with their payload's bits as the key, and every tree's nodes were all
// emitted exactly once.
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
	payloads := make(map[uint64]int)
	for ti := range f.trees {
		for _, nd := range f.trees[ti].Nodes {
			if nd.Feature < 0 {
				payloads[math.Float64bits(nd.Thresh)]++
			}
		}
	}
	leaves := 0
	for i := range c.nodes {
		n := c.nodes[i]
		if n.left == int32(i) { // leaf
			leaves++
			if int(n.feat) != c.NumFeatures() {
				t.Fatalf("leaf %d feature %d, want the zero key slot %d", i, n.feat, c.NumFeatures())
			}
			if payloads[n.tkey] == 0 {
				t.Fatalf("leaf %d key %#x is no unclaimed leaf payload of the forest", i, n.tkey)
			}
			payloads[n.tkey]--
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
	for pb, left := range payloads {
		if left != 0 {
			t.Fatalf("leaf payload %#x: %d forest leaves have no pool leaf", pb, left)
		}
	}
}

// FuzzCompiledEquivalence drives the bit-exactness contract with
// fuzzer-chosen forest shapes and raw input bits: any trainable forest,
// compiled, must predict bit-identically to the tree-walking original
// on any input — including NaNs, infinities and denormals assembled
// from the raw bytes — both scalar and as one set descent.
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
		// Set descent over the same rows: the seed's low bits pick the
		// shared features, whose keys come from the first row's raw
		// bytes.
		set := make([][]float64, 8)
		shared := make([]bool, d)
		for r := range set {
			set[r] = rows[r*d : (r+1)*d]
		}
		for j := range shared {
			shared[j] = seed>>j&1 == 1
		}
		checkSetDescent(t, "fuzz", forest, c, set, shared)
	})
}
