package rf

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
)

// CompiledForest is an immutable, cache-friendly compilation of a
// trained *Forest, built for branchless descent.
//
// Layout. Every node of every tree lives in one contiguous pool of
// 16-byte records (threshold key, left-child index, feature index),
// laid out per tree in breadth-first (level-order) clusters: the top
// clusterStratum levels of a tree are contiguous, and deeper strata are
// packed as van-Emde-Boas-style subtree clusters so a descent touches a
// short run of cache lines per stratum instead of pointer-chasing a
// depth-first pool. Children are always emitted as an adjacent pair
// (right = left+1), which is what makes arithmetic child selection
// possible. Leaves self-loop (left = self), so descent can run a fixed
// number of steps per tree — padding steps on a leaf are harmless — and
// carry their own payload: a leaf's feature index is nFeat, the key slot
// past the input row that the descents' key buffers always hold at 0,
// and its key field holds the payload's float64 bits. A padding step
// subtracts 0 from those bits, which never borrows, so the cursor stays
// put; the payload is read from the node the descent already holds.
//
// Descent. Split comparisons are precomputed into totally-ordered
// integer keys: keyOf maps a float64 input to a uint64 such that for
// every input x and threshold t, keyOf(x) <= threshKey(t) holds exactly
// when x <= t under IEEE semantics (including NaN, ±0, ±Inf and
// denormals). One step is then
//
//	_, c := bits.Sub64(node.tkey, keyOf(x[node.feat]), 0)
//	next = node.left + int32(c)
//
// — a subtract-with-borrow and an add, no data-dependent branch. The
// scalar path transforms the input row to keys once and descends eight
// trees at a time in register-resident cursors. The grid path
// (PredictGridInto) evaluates a product of rows, each feature shared or
// a function of one factor, by descending each tree once with the whole
// row set packed into one word.
//
// The compiled form is derived state, never persisted: MarshalBinary
// stays the canonical wire format, and a CompiledForest is rebuilt from
// the Forest after every load or train. Its contract is bit-exactness —
// Predict and PredictGridInto return results bit-identical to the
// tree-walking Forest for every input (the comparisons decide
// identically, the per-tree summation order and the final division are
// the same operations in the same order), so golden replays,
// determinism proofs and the mpclint guarantees carry over unchanged.
// Reordering nodes within a tree is invisible to the contract;
// reordering trees would change the float summation order and is never
// done.
//
// A CompiledForest is safe for concurrent use: all fields are
// immutable after Compile, and PredictGridInto writes only into the
// caller's dst.
//
//mpclint:immutable node pool is shared lock-free by concurrent predictors; any post-Compile write is a data race and breaks bit-exactness
type CompiledForest struct {
	nodes  []cnode // level-order clustered node pool, all trees
	roots  []int32 // pool index of each tree's root
	depths []int32 // per-tree depth = descent trip count
	nTrees int
	nFeat  int
}

// cnode is one compiled node: 16 bytes, four to a cache line.
type cnode struct {
	tkey uint64 // threshKey of the split threshold; the payload's float64 bits for leaves
	left int32  // pool index of the left child; right is always left+1; self for leaves
	feat int32  // split feature; nFeat for leaves (the always-zero key slot)
}

// maxCompiledFeatures bounds the key buffers of the scalar and grid
// descents, which hold the key-transformed input row in a fixed-size
// stack array of this width (so they stay provably allocation-free).
// Slot nFeat must stay in bounds and at 0 for the leaf self-loop, so a
// compiled forest has fewer features than this.
const maxCompiledFeatures = 64

const (
	// clusterStratum is the height of one layout cluster: trees deeper
	// than this are split into subtree clusters of at most
	// 2·(2^clusterStratum − 1) nodes (≈ 2 KiB) so a stratum of descent
	// stays within a compact run of cache lines.
	clusterStratum = 6
	// treeBlock is the scalar interleave width: how many trees descend
	// concurrently in register cursors.
	treeBlock = 8
)

// keyOf maps a float64 to its totally-ordered uint64 key: for all a, b
// (NaN included), keyOf(a) <= threshKey(b) ⟺ a <= b under IEEE rules.
// The transform flips the sign bit for non-negatives and all bits for
// negatives (the classic order-preserving bijection), then pins every
// NaN to the maximum key so NaN <= t is false for every threshold key t
// (threshKey never returns ^0 — a NaN threshold maps to key 0).
func keyOf(v float64) uint64 {
	b := math.Float64bits(v)
	k := b ^ (uint64(int64(b)>>63) | 0x8000000000000000)
	if b<<1 > 0xffe0000000000000 { // NaN: exponent all-ones and mantissa non-zero
		k = ^uint64(0)
	}
	return k
}

// threshKey maps a split threshold to its comparison key. Two
// canonicalizations keep the key comparison exactly equivalent to the
// IEEE x <= t the tree walk performs: a NaN threshold maps to key 0,
// which no input key can reach (the only bit pattern the raw transform
// sends to 0 is a negative NaN, and keyOf pins every NaN to ^0
// instead), so x <= NaN stays false for every x; and a negative-zero
// threshold maps to the +0 key, because IEEE treats -0 and +0 as equal
// where the raw transform would order them. TestKeyOrderEquivalence
// proves the equivalence exhaustively over adversarial value pairs.
func threshKey(t float64) uint64 {
	b := math.Float64bits(t)
	if b<<1 > 0xffe0000000000000 { // NaN threshold: nothing is <= it
		return 0
	}
	if b == 0x8000000000000000 { // -0 threshold compares like +0
		b = 0
	}
	return b ^ (uint64(int64(b)>>63) | 0x8000000000000000)
}

// Compile flattens the forest into its compiled form. It fails only on
// forests that cannot be represented (no trees, or a feature
// dimensionality that leaves no zero key slot in the fixed-width key
// buffers) — never on any forest produced by Train or accepted by
// UnmarshalBinary with a sane feature count.
func (f *Forest) Compile() (*CompiledForest, error) {
	if len(f.trees) == 0 {
		return nil, fmt.Errorf("rf: cannot compile a forest with no trees")
	}
	if f.nFeatures >= maxCompiledFeatures {
		return nil, fmt.Errorf("rf: %d features exceed the compiled key-buffer layout (max %d)",
			f.nFeatures, maxCompiledFeatures-1)
	}
	total := 0
	for i := range f.trees {
		total += len(f.trees[i].Nodes)
	}
	c := &CompiledForest{
		nodes:  make([]cnode, 0, total),
		roots:  make([]int32, len(f.trees)),
		depths: make([]int32, len(f.trees)),
		nTrees: len(f.trees),
		nFeat:  f.nFeatures,
	}
	for t := range f.trees {
		poolBase := int32(len(c.nodes))
		nodes, depth, err := compileTree(&f.trees[t], t, poolBase, int32(f.nFeatures))
		if err != nil {
			return nil, err
		}
		c.roots[t] = poolBase
		c.depths[t] = depth
		c.nodes = append(c.nodes, nodes...)
	}
	return c, nil
}

// compileTree emits one tree in the clustered level-order layout:
// nodes in emission order (child indices already absolute against
// poolBase, leaves pointing at key slot nFeat and carrying their
// payload bits) and the tree's depth (its descent trip count). The
// layout invariant it establishes — every internal node's children
// occupy adjacent pool slots, left first — is what the borrow-select
// descent relies on, so it is verified as the nodes are emitted.
func compileTree(tr *tree, t int, poolBase, nFeat int32) (nodes []cnode, depth int32, err error) {
	n := len(tr.Nodes)
	order := make([]int32, 0, n) // old indices in emission order
	newIdx := make([]int32, n)   // old index -> pool index
	emit := func(old int32) {
		newIdx[old] = poolBase + int32(len(order))
		order = append(order, old)
	}

	// layout emits one cluster: a depth-limited BFS from a root set (the
	// tree root, or an adjacent child pair), then recurses on the
	// frontier's child pairs so each subtree cluster is contiguous.
	var layout func(group []int32)
	layout = func(group []int32) {
		cur := group
		for _, old := range cur {
			emit(old)
		}
		for level := 1; level < clusterStratum; level++ {
			var nxt []int32
			for _, old := range cur {
				nd := &tr.Nodes[old]
				if nd.Feature >= 0 {
					emit(nd.Left)
					emit(nd.Right)
					nxt = append(nxt, nd.Left, nd.Right)
				}
			}
			if len(nxt) == 0 {
				return
			}
			cur = nxt
		}
		for _, old := range cur {
			nd := &tr.Nodes[old]
			if nd.Feature >= 0 {
				layout([]int32{nd.Left, nd.Right})
			}
		}
	}
	layout([]int32{0})
	if len(order) != n {
		return nil, 0, fmt.Errorf("rf: tree %d layout emitted %d of %d nodes", t, len(order), n)
	}

	nodes = make([]cnode, 0, n)
	for _, old := range order {
		nd := &tr.Nodes[old]
		self := poolBase + int32(len(nodes))
		if nd.Feature < 0 {
			nodes = append(nodes, cnode{tkey: math.Float64bits(nd.Thresh), left: self, feat: nFeat})
			continue
		}
		l, r := newIdx[nd.Left], newIdx[nd.Right]
		if r != l+1 {
			return nil, 0, fmt.Errorf("rf: tree %d node %d children not adjacent (%d, %d)", t, old, l, r)
		}
		nodes = append(nodes, cnode{tkey: threshKey(nd.Thresh), left: l, feat: int32(nd.Feature)})
	}

	// Tree depth = the fixed descent trip count for this tree.
	type item struct{ old, d int32 }
	stack := []item{{0, 0}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if it.d > depth {
			depth = it.d
		}
		nd := &tr.Nodes[it.old]
		if nd.Feature >= 0 {
			stack = append(stack, item{nd.Left, it.d + 1}, item{nd.Right, it.d + 1})
		}
	}
	return nodes, depth, nil
}

// NumTrees returns the ensemble size.
func (c *CompiledForest) NumTrees() int { return c.nTrees }

// NumFeatures returns the feature dimensionality.
func (c *CompiledForest) NumFeatures() int { return c.nFeat }

// NumNodes returns the total size of the flat node pool across all
// trees.
func (c *CompiledForest) NumNodes() int { return len(c.nodes) }

// Predict returns the forest's estimate for feature vector x,
// bit-identical to the tree-walking (*Forest).Predict. It panics if x
// has the wrong dimensionality.
//
// The input row is key-transformed once, then trees descend eight at a
// time: eight cursors advance one level per step with no data-dependent
// branches, so the eight node-load chains overlap in the memory system
// instead of the predictor speculating down one tree at a time. A
// scalar tail loop covers the ragged last block. Trees accumulate in
// index order into one sum — the same order as the tree walk.
//
//mpclint:hotpath pinned at 0 allocs/op by TestCompiledZeroAlloc
func (c *CompiledForest) Predict(x []float64) float64 {
	if len(x) != c.nFeat {
		panic(fmt.Sprintf("rf: Predict with %d features, compiled for %d", len(x), c.nFeat))
	}
	var kx [maxCompiledFeatures]uint64
	for i, v := range x {
		kx[i] = keyOf(v)
	}
	nodes := c.nodes
	s := 0.0
	nt := c.nTrees
	t0 := 0
	for ; t0+treeBlock <= nt; t0 += treeBlock {
		r := c.roots[t0 : t0+treeBlock : t0+treeBlock]
		i0, i1, i2, i3 := r[0], r[1], r[2], r[3]
		i4, i5, i6, i7 := r[4], r[5], r[6], r[7]
		dep := int32(0)
		for _, d := range c.depths[t0 : t0+treeBlock] {
			if d > dep {
				dep = d
			}
		}
		for lv := int32(0); lv < dep; lv++ {
			n := &nodes[i0]
			_, b := bits.Sub64(n.tkey, kx[n.feat], 0)
			i0 = n.left + int32(b)
			n = &nodes[i1]
			_, b = bits.Sub64(n.tkey, kx[n.feat], 0)
			i1 = n.left + int32(b)
			n = &nodes[i2]
			_, b = bits.Sub64(n.tkey, kx[n.feat], 0)
			i2 = n.left + int32(b)
			n = &nodes[i3]
			_, b = bits.Sub64(n.tkey, kx[n.feat], 0)
			i3 = n.left + int32(b)
			n = &nodes[i4]
			_, b = bits.Sub64(n.tkey, kx[n.feat], 0)
			i4 = n.left + int32(b)
			n = &nodes[i5]
			_, b = bits.Sub64(n.tkey, kx[n.feat], 0)
			i5 = n.left + int32(b)
			n = &nodes[i6]
			_, b = bits.Sub64(n.tkey, kx[n.feat], 0)
			i6 = n.left + int32(b)
			n = &nodes[i7]
			_, b = bits.Sub64(n.tkey, kx[n.feat], 0)
			i7 = n.left + int32(b)
		}
		s += math.Float64frombits(nodes[i0].tkey)
		s += math.Float64frombits(nodes[i1].tkey)
		s += math.Float64frombits(nodes[i2].tkey)
		s += math.Float64frombits(nodes[i3].tkey)
		s += math.Float64frombits(nodes[i4].tkey)
		s += math.Float64frombits(nodes[i5].tkey)
		s += math.Float64frombits(nodes[i6].tkey)
		s += math.Float64frombits(nodes[i7].tkey)
	}
	for ; t0 < nt; t0++ {
		i := c.roots[t0]
		for lv := int32(0); lv < c.depths[t0]; lv++ {
			n := &nodes[i]
			_, b := bits.Sub64(n.tkey, kx[n.feat], 0)
			i = n.left + int32(b)
		}
		s += math.Float64frombits(nodes[i].tkey)
	}
	return s / float64(nt)
}

// GridFactors is the number of factors of a Grid's row product.
const GridFactors = 3

// Grid is the set-descent form of a row set that is the Cartesian
// product of GridFactors factors, factor k a list of dims[k] elements.
// Row (e0, e1, e2) is row (e0·dims[1] + e1)·dims[2] + e2: row-major,
// factor 0 outermost. A feature is either shared by every row (it takes
// the input row's value) or depends on one factor alone (it takes one
// value per element of that factor).
//
// A product of element subsets, one per factor, packs into one word:
// factor k's elements take the bits from shift[k] up. A split on a
// feature of factor k divides factor k's subset and keeps the others
// whole, so both halves are products again and a set descent never
// leaves the word. A Grid is immutable after NewGrid and safe for
// concurrent use.
//
//mpclint:immutable shared lock-free by concurrent sweeps through a model's sweep plan; any write after NewGrid is a data race
type Grid struct {
	nFeat  int
	rows   int
	dims   [GridFactors]int
	shift  [GridFactors]uint
	all    uint64      // every element of every factor: the whole grid
	splits []gridSplit // one per feature; the zero value for a shared feature
}

// gridSplit is the split table of one factor-dependent feature: the
// distinct keys the feature takes over its factor's elements, in
// ascending order, and per rank the elements keyed at or below it. A
// split's threshold ranks among the keys with a short scan, and
// below[rank] is then the factor's left side.
type gridSplit struct {
	fbits uint64   // the factor's bits; 0 marks a shared feature
	keys  []uint64 // distinct element keys, ascending
	below []uint64 // below[r]: the elements keyed at or below keys[r-1]; below[0] = 0
}

// GridFeature declares one factor-dependent feature of a Grid: feature
// Feature takes Vals[e] on every row whose factor-Factor element is e.
type GridFeature struct {
	Feature int
	Factor  int
	Vals    []float64
}

// NewGrid builds the grid of the product of factors of dims[k] elements
// over rows of nFeat features. Features no entry of feats names are
// shared. It fails when a factor is empty, when the factors need more
// than 64 bits together, or when an entry names a feature outside
// [0, nFeat) or one already named, a factor outside the grid, or a
// value count other than its factor's size.
func NewGrid(nFeat int, dims [GridFactors]int, feats []GridFeature) (*Grid, error) {
	g := &Grid{nFeat: nFeat, rows: 1, dims: dims, splits: make([]gridSplit, nFeat)}
	width := 0
	for k, n := range dims {
		if n < 1 || width+n > 64 {
			return nil, fmt.Errorf("rf: grid factors %v do not pack into one 64-bit word", dims)
		}
		g.shift[k] = uint(width)
		width += n
		g.rows *= n
	}
	g.all = ^uint64(0) >> (64 - width)
	for _, gf := range feats {
		if gf.Feature < 0 || gf.Feature >= nFeat || g.splits[gf.Feature].fbits != 0 {
			return nil, fmt.Errorf("rf: grid feature %d is outside [0,%d) or named twice", gf.Feature, nFeat)
		}
		if gf.Factor < 0 || gf.Factor >= GridFactors || len(gf.Vals) != dims[gf.Factor] {
			return nil, fmt.Errorf("rf: grid feature %d has %d values for factor %d of %v",
				gf.Feature, len(gf.Vals), gf.Factor, dims)
		}
		sh := g.shift[gf.Factor]
		elemKeys := make([]uint64, len(gf.Vals))
		for e, v := range gf.Vals {
			elemKeys[e] = keyOf(v)
		}
		keys := slices.Clone(elemKeys)
		slices.Sort(keys)
		keys = slices.Compact(keys)
		below := make([]uint64, len(keys)+1)
		for r, k := range keys {
			for e, ek := range elemKeys {
				if ek <= k {
					below[r+1] |= 1 << (sh + uint(e))
				}
			}
		}
		g.splits[gf.Feature] = gridSplit{fbits: below[len(keys)], keys: keys, below: below}
	}
	return g, nil
}

// Rows returns the number of rows of the grid: the product of its
// factor sizes.
func (g *Grid) Rows() int { return g.rows }

// Cover returns the smallest sub-product of g that holds every row r
// with !(vals[r] > limit) — a NaN value or a NaN limit counts as
// within — as a word PredictProductInto takes; it is 0 when no row is
// within. The product's factor-k subset is the set of factor-k elements
// of those rows, so it may also hold rows that are not within. It
// panics when vals does not hold g's rows.
//
//mpclint:hotpath pinned at 0 allocs/op by TestCompiledZeroAlloc
func (g *Grid) Cover(vals []float64, limit float64) uint64 {
	if len(vals) != g.rows {
		panic(fmt.Sprintf("rf: Cover over %d rows, vals holds %d", g.rows, len(vals)))
	}
	var m0, m1, m2 uint64
	r := 0
	for e0 := 0; e0 < g.dims[0]; e0++ {
		for e1 := 0; e1 < g.dims[1]; e1++ {
			for e2 := 0; e2 < g.dims[2]; e2++ {
				if !(vals[r] > limit) {
					m0 |= 1 << e0
					m1 |= 1 << e1
					m2 |= 1 << e2
				}
				r++
			}
		}
	}
	if m0 == 0 {
		return 0
	}
	return m0<<g.shift[0] | m1<<g.shift[1] | m2<<g.shift[2]
}

// Row returns the sub-product of g that holds row r alone. It panics
// when r is not a row of g.
func (g *Grid) Row(r int) uint64 {
	if r < 0 || r >= g.rows {
		panic(fmt.Sprintf("rf: Row %d of a %d-row grid", r, g.rows))
	}
	n12 := g.dims[1] * g.dims[2]
	return 1<<(g.shift[0]+uint(r/n12)) | 1<<(g.shift[1]+uint(r%n12/g.dims[2])) | 1<<(g.shift[2]+uint(r%g.dims[2]))
}

// PredictGridInto evaluates every row of g, writing row r's prediction
// into dst[r]; it returns dst. Row r is x with each factor-dependent
// feature of g replaced by its value on that row (x's own value of such
// a feature is ignored). It is PredictProductInto over the whole grid.
//
//mpclint:hotpath pinned at 0 allocs/op by TestCompiledZeroAlloc
func (c *CompiledForest) PredictGridInto(dst, x []float64, g *Grid) []float64 {
	return c.PredictProductInto(dst, x, g, g.all)
}

// PredictProductInto evaluates the rows of the sub-product s of g (a
// word from Cover or Row, or their union over each factor), writing row
// r's prediction into dst[r] and leaving every other slot of dst as it
// is; it returns dst. A word with an empty factor holds no rows.
//
// Each tree descends once for the whole product, depth first, carrying
// the rows that reach a node as a product word. A split on a shared
// feature sends the whole set one way with one key compare; a split on
// a factor-dependent feature divides its factor's subset with the mask
// at its threshold's rank, and an empty half is pruned. At a leaf every
// row of the product adds the leaf's value. Trees run outermost and in
// order, so each row adds exactly the leaves the scalar descent would,
// in the same order, and divides once: results are bit-identical to
// calling Predict row by row. It panics when x or g has another
// dimensionality than the forest, dst does not hold g's rows, or s has
// a bit outside g.
//
//mpclint:hotpath pinned at 0 allocs/op by TestCompiledZeroAlloc
func (c *CompiledForest) PredictProductInto(dst, x []float64, g *Grid, s uint64) []float64 {
	if len(x) != c.nFeat || g.nFeat != c.nFeat {
		panic(fmt.Sprintf("rf: PredictProductInto with %d features and a %d-feature grid, compiled for %d",
			len(x), g.nFeat, c.nFeat))
	}
	if len(dst) != g.rows {
		panic(fmt.Sprintf("rf: PredictProductInto over %d rows, dst holds %d", g.rows, len(dst)))
	}
	if s&^g.all != 0 {
		panic(fmt.Sprintf("rf: PredictProductInto word %#x has bits outside the grid's %#x", s, g.all))
	}
	w := gridWalk{
		nodes:   c.nodes,
		splits:  g.splits,
		acc:     dst,
		mask0:   1<<g.dims[0] - 1,
		mask1:   1<<g.dims[1] - 1,
		shift1:  g.shift[1],
		shift2:  g.shift[2],
		n2:      g.dims[2],
		stride0: g.dims[1] * g.dims[2],
	}
	if s&w.mask0 == 0 || s>>w.shift1&w.mask1 == 0 || s>>w.shift2 == 0 {
		return dst // an empty factor: no rows
	}
	for i, v := range x {
		w.kx[i] = keyOf(v)
	}
	w.rows(s, true, 0)
	for _, root := range c.roots {
		w.descend(root, s)
	}
	w.rows(s, false, float64(c.nTrees))
	return dst
}

// gridWalk is the read-only state of one grid descent plus its
// accumulator, one slot per row.
type gridWalk struct {
	nodes          []cnode
	splits         []gridSplit
	acc            []float64
	mask0, mask1   uint64 // factors 0 and 1's element bits, shifted down
	shift1, shift2 uint
	n2             int // factor 2's size: factor 1's row stride
	stride0        int // factor 0's row stride
	kx             [maxCompiledFeatures]uint64
}

// rows opens or closes a descent on the rows of the product s: it
// zeroes each row's accumulator when open is set, and otherwise divides
// each by n, the tree count.
//
//mpclint:hotpath pinned transitively under the PredictProductInto pin
func (w *gridWalk) rows(s uint64, open bool, n float64) {
	a0, a2 := s&w.mask0, s>>w.shift2
	for a1 := s >> w.shift1 & w.mask1; a1 != 0; a1 &= a1 - 1 {
		r1 := bits.TrailingZeros64(a1) * w.n2
		for b2 := a2; b2 != 0; b2 &= b2 - 1 {
			r := r1 + bits.TrailingZeros64(b2)
			for b0 := a0; b0 != 0; b0 &= b0 - 1 {
				if open {
					w.acc[r+bits.TrailingZeros64(b0)*w.stride0] = 0
				} else {
					w.acc[r+bits.TrailingZeros64(b0)*w.stride0] /= n
				}
			}
		}
	}
}

// descend walks the subtree at node i with the product s (never empty).
// One side of a split that keeps rows on both sides recurses; the other
// continues in the loop, so the recursion is as deep as the splits that
// divide the set, never deeper than the tree.
//
//mpclint:hotpath pinned transitively under the PredictGridInto pin
func (w *gridWalk) descend(i int32, s uint64) {
	for {
		n := &w.nodes[i]
		if n.left == i { // leaf: every row of the product adds its value
			// Each row adds once per tree, so the order of the adds
			// within one leaf is free. Factor 0 runs innermost: its
			// subsets are the largest at a leaf of a sweep (CPU states),
			// so the loops start least often.
			v := math.Float64frombits(n.tkey)
			a0, a2 := s&w.mask0, s>>w.shift2
			for a1 := s >> w.shift1 & w.mask1; a1 != 0; a1 &= a1 - 1 {
				r1 := bits.TrailingZeros64(a1) * w.n2
				for b2 := a2; b2 != 0; b2 &= b2 - 1 {
					r := r1 + bits.TrailingZeros64(b2)
					for b0 := a0; b0 != 0; b0 &= b0 - 1 {
						w.acc[r+bits.TrailingZeros64(b0)*w.stride0] += v
					}
				}
			}
			return
		}
		sp := &w.splits[n.feat]
		if sp.fbits == 0 { // shared feature: the whole set goes one way
			_, b := bits.Sub64(n.tkey, w.kx[n.feat], 0)
			i = n.left + int32(b)
			continue
		}
		rank := 0 // how many of the feature's element keys are <= the threshold
		for _, k := range sp.keys {
			_, b := bits.Sub64(n.tkey, k, 0)
			rank += int(1 - b)
		}
		l := s & sp.below[rank] // the split factor's elements that go left
		r := s & sp.fbits &^ l  // and those that go right
		switch {
		case r == 0:
			i = n.left
		case l == 0:
			i = n.left + 1
		default:
			w.descend(n.left+1, s^l)
			i, s = n.left, s^r
		}
	}
}

// SelfCheck verifies the compiled forest on `samples` deterministic
// pseudo-random inputs drawn to straddle every feature's threshold
// range in f, comparing raw float64 bits of the tree-walking Forest
// (ground truth) against the branchless level-order layout (the serving
// path), both scalar and as grid descents. Any difference — even in the
// last ulp — is an error. This is the load/train-time guard cmd/train
// runs before persisting a model (compiled inference is only trusted
// because it is bit-exact).
//
// The grid check runs the samples twelve at a time as 4×4×4 grids.
// Within a grid the odd-numbered features are shared, taking the first
// sample's values, and even-numbered feature j depends on factor
// j/2 mod 3, whose element e takes sample 4k+e's value on factor k: as
// each configuration feature of a decision sweep depends on one knob.
func (c *CompiledForest) SelfCheck(f *Forest, samples int, seed int64) error {
	if f.nFeatures != c.nFeat {
		return fmt.Errorf("rf: self-check against a forest with %d features, compiled for %d", f.nFeatures, c.nFeat)
	}
	lo := make([]float64, c.nFeat)
	hi := make([]float64, c.nFeat)
	for i := range lo {
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	for t := range f.trees {
		for _, nd := range f.trees[t].Nodes {
			if nd.Feature < 0 {
				continue
			}
			if nd.Thresh < lo[nd.Feature] {
				lo[nd.Feature] = nd.Thresh
			}
			if nd.Thresh > hi[nd.Feature] {
				hi[nd.Feature] = nd.Thresh
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	probes := make([][]float64, samples)
	for s := range probes {
		x := make([]float64, c.nFeat)
		for i := range x {
			l, h := lo[i], hi[i]
			if l > h { // feature never split on: any value exercises it
				l, h = -1, 1
			}
			pad := (h-l)*0.25 + 1
			x[i] = l - pad + rng.Float64()*(h-l+2*pad)
		}
		probes[s] = x
		want := f.Predict(x)
		got := c.Predict(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("rf: branchless layout diverges at sample %d: compiled %v (bits %#x), tree-walk %v (bits %#x)",
				s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	const side = 4 // elements per factor of a check grid
	dims := [GridFactors]int{side, side, side}
	var feats []GridFeature
	for j := 0; j < c.nFeat; j += 2 {
		feats = append(feats, GridFeature{Feature: j, Factor: j / 2 % GridFactors, Vals: make([]float64, side)})
	}
	dst := make([]float64, side*side*side)
	row := make([]float64, c.nFeat)
	for s0 := 0; s0 < samples; s0 += GridFactors * side {
		for _, gf := range feats {
			for e := range gf.Vals {
				gf.Vals[e] = probes[(s0+side*gf.Factor+e)%samples][gf.Feature]
			}
		}
		g, err := NewGrid(c.nFeat, dims, feats)
		if err != nil {
			return err
		}
		c.PredictGridInto(dst, probes[s0], g)
		for r := range dst {
			copy(row, probes[s0])
			at := [GridFactors]int{r / (side * side), r / side % side, r % side}
			for _, gf := range feats {
				row[gf.Feature] = gf.Vals[at[gf.Factor]]
			}
			if want := f.Predict(row); math.Float64bits(dst[r]) != math.Float64bits(want) {
				return fmt.Errorf("rf: grid descent diverges at row %d of the grid from sample %d: grid %v (bits %#x), tree-walk %v (bits %#x)",
					r, s0, dst[r], math.Float64bits(dst[r]), want, math.Float64bits(want))
			}
		}
	}
	return nil
}
