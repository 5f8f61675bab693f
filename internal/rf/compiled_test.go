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
				// The same rows' values as grid descents: every feature
				// on a factor, and alternate features shared.
				name := fmt.Sprintf("trees=%d depth=%d d=%d", nTrees, depth, d)
				factorOf := make([]int, d)
				for j := range factorOf {
					factorOf[j] = j % GridFactors
				}
				checkGridChunks(t, name, f, c, rows, [GridFactors]int{5, 8, 5}, factorOf, rng.Uint64())
				for j := range factorOf {
					if (j+int(seed))%2 == 0 {
						factorOf[j] = -1
					}
				}
				checkGridChunks(t, name, f, c, rows, [GridFactors]int{5, 8, 5}, factorOf, rng.Uint64())
			}
		}
	}
}

// TestNewGridRejectsUnrepresentable covers NewGrid's errors: an empty
// factor, factors wider than one word together, and feature entries out
// of range, named twice or with a value count other than their factor's
// size. Factors exactly one word wide build.
func TestNewGridRejectsUnrepresentable(t *testing.T) {
	vals := func(n int) []float64 { return make([]float64, n) }
	for _, tc := range []struct {
		name  string
		dims  [GridFactors]int
		feats []GridFeature
	}{
		{"empty factor", [GridFactors]int{2, 0, 3}, nil},
		{"65 bits", [GridFactors]int{21, 22, 22}, nil},
		{"negative feature", [GridFactors]int{2, 2, 2}, []GridFeature{{Feature: -1, Factor: 0, Vals: vals(2)}}},
		{"feature past the row", [GridFactors]int{2, 2, 2}, []GridFeature{{Feature: 3, Factor: 0, Vals: vals(2)}}},
		{"feature named twice", [GridFactors]int{2, 3, 2}, []GridFeature{
			{Feature: 1, Factor: 0, Vals: vals(2)}, {Feature: 1, Factor: 1, Vals: vals(3)}}},
		{"factor past the grid", [GridFactors]int{2, 2, 2}, []GridFeature{{Feature: 0, Factor: GridFactors, Vals: vals(2)}}},
		{"short values", [GridFactors]int{2, 3, 2}, []GridFeature{{Feature: 0, Factor: 1, Vals: vals(2)}}},
	} {
		if _, err := NewGrid(3, tc.dims, tc.feats); err == nil {
			t.Errorf("%s: NewGrid(%v) built a grid", tc.name, tc.dims)
		}
	}
	g, err := NewGrid(3, [GridFactors]int{21, 21, 22}, []GridFeature{{Feature: 2, Factor: 2, Vals: vals(22)}})
	if err != nil {
		t.Fatalf("64-bit grid refused: %v", err)
	}
	if g.Rows() != 21*21*22 {
		t.Fatalf("64-bit grid holds %d rows, want %d", g.Rows(), 21*21*22)
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
	g, err := NewGrid(3, [GridFactors]int{2, 3, 1}, []GridFeature{{Feature: 1, Factor: 1, Vals: []float64{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewGrid(4, [GridFactors]int{2, 3, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	expectPanic("Predict wrong dim", func() { c.Predict(make([]float64, 2)) })
	expectPanic("PredictGridInto wrong dim", func() { c.PredictGridInto(make([]float64, 6), x[:2], g) })
	expectPanic("PredictGridInto grid of another width", func() { c.PredictGridInto(make([]float64, 6), x, wide) })
	expectPanic("PredictGridInto short dst", func() { c.PredictGridInto(make([]float64, 5), x, g) })
	expectPanic("PredictGridInto long dst", func() { c.PredictGridInto(make([]float64, 7), x, g) })
	expectPanic("PredictProductInto word outside the grid", func() { c.PredictProductInto(make([]float64, 6), x, g, 1<<6) })
	expectPanic("Cover short vals", func() { g.Cover(make([]float64, 5), 0) })
	expectPanic("Row past the grid", func() { g.Row(6) })
	expectPanic("Row negative", func() { g.Row(-1) })
}

// TestGridCover checks Cover and Row against their definitions on
// grids with infinite and NaN values: Row(r) holds exactly row r's
// element of each factor, and Cover is the union of Row over the rows
// whose value is not above the limit (NaN values and a NaN limit
// included), or 0 when there is none.
func TestGridCover(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, 1}
	for _, dims := range [][GridFactors]int{{1, 1, 1}, {7, 12, 4}, {2, 3, 5}, {21, 21, 22}} {
		g, err := NewGrid(1, dims, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := g.Rows()
		for r := 0; r < n; r++ {
			w := g.Row(r)
			at := [GridFactors]int{r / (dims[1] * dims[2]), r / dims[2] % dims[1], r % dims[2]}
			var want uint64
			for k, e := range at {
				want |= 1 << (g.shift[k] + uint(e))
			}
			if w != want {
				t.Fatalf("grid %v: Row(%d) = %#x, want %#x", dims, r, w, want)
			}
		}
		vals := make([]float64, n)
		for trial := 0; trial < 20; trial++ {
			for r := range vals {
				vals[r] = rng.NormFloat64()
				if rng.Intn(8) == 0 {
					vals[r] = special[rng.Intn(len(special))]
				}
			}
			for _, limit := range []float64{rng.NormFloat64() - 1.5, rng.NormFloat64(), 0, math.Inf(1), math.Inf(-1), math.NaN()} {
				var want uint64
				for r, v := range vals {
					if !(v > limit) {
						want |= g.Row(r)
					}
				}
				if got := g.Cover(vals, limit); got != want {
					t.Fatalf("grid %v limit %v: Cover = %#x, want %#x", dims, limit, got, want)
				}
			}
		}
	}
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
	col := make([]float64, 7)
	for e := range col {
		col[e] = float64(e) * 0.2
	}
	g, err := NewGrid(3, [GridFactors]int{5, 7, 2}, []GridFeature{
		{Feature: 1, Factor: 1, Vals: col},
		{Feature: 2, Factor: 0, Vals: col[:5]},
	})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, g.Rows())
	if allocs := testing.AllocsPerRun(200, func() { c.PredictGridInto(dst, x, g) }); allocs != 0 {
		t.Fatalf("CompiledForest.PredictGridInto allocates %v times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		c.PredictProductInto(dst, x, g, g.Cover(dst, dst[0]))
	}); allocs != 0 {
		t.Fatalf("Grid.Cover and CompiledForest.PredictProductInto allocate %v times per call, want 0", allocs)
	}
}

// checkGridDescent runs one grid descent over the product of factors of
// dims elements, x's features shared except those feats names, and
// requires each row's result to match the tree walk on that row bit for
// bit; then a descent from the sub-product sub (masked to the grid's
// bits), which must match the tree walk on each row of that product and
// write no other row (a sub equal to the whole grid checks the full
// descent twice). Each destination sits inside a larger buffer
// whose other slots must stay untouched.
func checkGridDescent(tb testing.TB, name string, f *Forest, c *CompiledForest, x []float64, dims [GridFactors]int, feats []GridFeature, sub uint64) {
	tb.Helper()
	g, err := NewGrid(f.NumFeatures(), dims, feats)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	n := g.Rows()
	if n != dims[0]*dims[1]*dims[2] {
		tb.Fatalf("%s: grid %v holds %d rows", name, dims, n)
	}
	sub &= g.all
	var parts [GridFactors]uint64
	for k, d := range dims {
		parts[k] = sub >> g.shift[k] & (1<<d - 1)
	}
	const pad = 3
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	row := make([]float64, len(x))
	for _, s := range []uint64{g.all, sub} {
		buf := make([]float64, n+2*pad)
		for i := range buf {
			buf[i] = sentinel
		}
		dst := buf[pad : pad+n]
		if s == g.all {
			c.PredictGridInto(dst, x, g)
		} else {
			c.PredictProductInto(dst, x, g, s)
		}
		for r := 0; r < n; r++ {
			at := [GridFactors]int{r / (dims[1] * dims[2]), r / dims[2] % dims[1], r % dims[2]}
			in := true
			for k, e := range at {
				in = in && s>>(g.shift[k]+uint(e))&1 == 1
			}
			if !in {
				if !bitsEqual(dst[r], sentinel) {
					tb.Fatalf("%s grid %v: descent from product %#x (factors %b) wrote row %d outside it",
						name, dims, s, parts, r)
				}
				continue
			}
			copy(row, x)
			for _, gf := range feats {
				row[gf.Feature] = gf.Vals[at[gf.Factor]]
			}
			if want := f.Predict(row); !bitsEqual(dst[r], want) {
				tb.Fatalf("%s grid %v product %#x row %d (%v): grid %v (bits %#x) != tree-walk %v (bits %#x)",
					name, dims, s, r, row, dst[r], math.Float64bits(dst[r]), want, math.Float64bits(want))
			}
		}
		for i := range buf {
			if (i < pad || i >= pad+n) && !bitsEqual(buf[i], sentinel) {
				tb.Fatalf("%s: grid descent over %d rows wrote slot %d outside dst", name, n, i-pad)
			}
		}
	}
}

// checkGridChunks runs rows' values through grid descents over factors
// of dims elements: feature j depends on factor factorOf[j], or is
// shared when that is negative. Each grid takes its shared values from
// one row and its element values from that row and the rows after it,
// one row per element, and the grids step through every row. Each grid
// also descends from the sub-product sub (see checkGridDescent).
func checkGridChunks(tb testing.TB, name string, f *Forest, c *CompiledForest, rows [][]float64, dims [GridFactors]int, factorOf []int, sub uint64) {
	tb.Helper()
	var off [GridFactors + 1]int
	for k, n := range dims {
		off[k+1] = off[k] + n
	}
	for s0 := 0; s0 < len(rows); s0 += off[GridFactors] {
		var feats []GridFeature
		for j, k := range factorOf {
			if k < 0 {
				continue
			}
			vals := make([]float64, dims[k])
			for e := range vals {
				vals[e] = rows[(s0+off[k]+e)%len(rows)][j]
			}
			feats = append(feats, GridFeature{Feature: j, Factor: k, Vals: vals})
		}
		checkGridDescent(tb, fmt.Sprintf("%s rows from %d", name, s0), f, c, rows[s0], dims, feats, sub)
	}
}

// TestPredictSetRowCounts runs grid descents over shapes from one row to
// the widest word: single-element factors, one factor of the 62
// elements a word leaves it, the 7×12×4 default space, the 7×20×4 full
// space and a 21×21×22 grid of all 64 bits. The varying features take a
// few distinct values each (as a configuration space's do) and,
// separately, a distinct value per element.
func TestPredictSetRowCounts(t *testing.T) {
	f := benchForest(t)
	c := compileOrFatal(t, f)
	d := f.NumFeatures()
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, d)
	for j := range x {
		x[j] = (rng.Float64() - 0.5) * 4
	}
	for _, dims := range [][GridFactors]int{
		{1, 1, 1}, {1, 1, 62}, {1, 62, 1}, {62, 1, 1}, {2, 3, 5}, {7, 12, 4}, {7, 20, 4}, {21, 21, 22},
	} {
		for _, distinct := range []bool{false, true} {
			var feats []GridFeature
			for j := d / 2; j < d; j++ {
				k := j % GridFactors
				levels := 5
				if distinct {
					levels = dims[k]
				}
				table := make([]float64, levels)
				for i := range table {
					table[i] = (rng.Float64() - 0.5) * 4
				}
				vals := make([]float64, dims[k])
				for e := range vals {
					vals[e] = table[rng.Intn(levels)]
				}
				feats = append(feats, GridFeature{Feature: j, Factor: k, Vals: vals})
			}
			checkGridDescent(t, fmt.Sprintf("distinct=%v", distinct), f, c, x, dims, feats, rng.Uint64())
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
// scalar and grid descent.
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
		// The chains split on feature 0 only: putting it on a factor
		// drives the mask partition down every spine, sharing it the
		// whole-set compare.
		name := fmt.Sprintf("nTrees=%d", nTrees)
		checkGridChunks(t, name, f, c, rows, [GridFactors]int{4, 9, 3}, []int{1, 0, 2}, 0x5a5a5a5a)
		checkGridChunks(t, name, f, c, rows, [GridFactors]int{4, 9, 3}, []int{-1, 1, -1}, 0x0f0f0f0f)
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
// from the raw bytes — both scalar and as one grid descent.
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
		// Grid descent over the same rows' values: the seed's low bits
		// pick the shared features, whose keys come from the first
		// row's raw bytes, and the bits above them each other
		// feature's factor. Each factor element takes one row's value.
		// The raw bytes after the rows' values pick the sub-product a
		// second descent starts from; an empty factor leaves it no rows.
		set := make([][]float64, 8)
		factorOf := make([]int, d)
		for r := range set {
			set[r] = rows[r*d : (r+1)*d]
		}
		for j := range factorOf {
			factorOf[j] = int(uint64(seed)>>(d+2*j)&3) % GridFactors
			if seed>>j&1 == 1 {
				factorOf[j] = -1
			}
		}
		var sub [8]byte
		for k := range sub {
			sub[k] = raw[(8*d*8+k)%len(raw)]
		}
		checkGridChunks(t, "fuzz", forest, c, set, [GridFactors]int{2, 4, 2}, factorOf, binary.LittleEndian.Uint64(sub[:]))
	})
}
