package rf

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
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
// possible. Leaves self-loop (left = self) with an always-true
// threshold key, so descent can run a fixed number of steps per tree —
// padding steps on a leaf are harmless — and a separate leafVal array
// carries the leaf payloads.
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
// trees at a time in register-resident cursors; the batched paths
// advance blocks of sixteen independent rows one level at a time, so
// the node loads of many rows overlap instead of serializing on one
// row's dependent chain.
//
// The compiled form is derived state, never persisted: MarshalBinary
// stays the canonical wire format, and a CompiledForest is rebuilt from
// the Forest after every load or train. Its contract is bit-exactness —
// Predict and PredictBatch return results bit-identical to the
// tree-walking Forest for every input (the comparisons decide
// identically, the per-tree summation order and the final division are
// the same operations in the same order), so golden replays,
// determinism proofs and the mpclint guarantees carry over unchanged.
// Reordering nodes within a tree is invisible to the contract;
// reordering trees would change the float summation order and is never
// done.
//
// A CompiledForest is safe for concurrent use: all fields are
// immutable after Compile, and the Into variants write only into
// caller-owned buffers.
//
//mpclint:immutable node pool is shared lock-free by concurrent predictors; any post-Compile write is a data race and breaks bit-exactness
type CompiledForest struct {
	nodes   []cnode   // level-order clustered node pool, all trees
	leafVal []float64 // leaf payload per pool index (zero for internal nodes)
	roots   []int32   // pool index of each tree's root
	depths  []int32   // per-tree depth = descent trip count
	nTrees  int
	nFeat   int
}

// cnode is one compiled node: 16 bytes, four to a cache line.
type cnode struct {
	tkey uint64 // threshKey of the split threshold; ^0 for leaves (self-loop)
	left int32  // pool index of the left child; right is always left+1; self for leaves
	feat int32  // split feature; 0 for leaves (kx[0] is always readable)
}

// maxCompiledFeatures bounds the feature dimensionality the compiled
// kernels can address: the scalar and batched descents hold the
// key-transformed input row(s) in fixed-size stack buffers of this
// width (so they stay provably allocation-free).
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
	// rowBlock is the batched interleave width: how many independent
	// rows advance one level per step of the inner loop.
	rowBlock = 16
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
// dimensionality beyond the fixed-width key buffers) — never on any
// forest produced by Train or accepted by UnmarshalBinary with a sane
// feature count.
func (f *Forest) Compile() (*CompiledForest, error) {
	if len(f.trees) == 0 {
		return nil, fmt.Errorf("rf: cannot compile a forest with no trees")
	}
	if f.nFeatures > maxCompiledFeatures {
		return nil, fmt.Errorf("rf: %d features exceed the compiled key-buffer layout (max %d)",
			f.nFeatures, maxCompiledFeatures)
	}
	total := 0
	for i := range f.trees {
		total += len(f.trees[i].Nodes)
	}
	c := &CompiledForest{
		nodes:   make([]cnode, 0, total),
		leafVal: make([]float64, total),
		roots:   make([]int32, len(f.trees)),
		depths:  make([]int32, len(f.trees)),
		nTrees:  len(f.trees),
		nFeat:   f.nFeatures,
	}
	for t := range f.trees {
		poolBase := int32(len(c.nodes))
		nodes, leaves, depth, err := compileTree(&f.trees[t], t, poolBase)
		if err != nil {
			return nil, err
		}
		c.roots[t] = poolBase
		c.depths[t] = depth
		c.nodes = append(c.nodes, nodes...)
		copy(c.leafVal[poolBase:], leaves)
	}
	return c, nil
}

// compileTree emits one tree in the clustered level-order layout:
// nodes in emission order (child indices already absolute against
// poolBase), the parallel leaf payloads, and the tree's depth (its
// descent trip count). The layout invariant it establishes — every
// internal node's children occupy adjacent pool slots, left first — is
// what the borrow-select descent relies on, so it is verified as the
// nodes are emitted.
func compileTree(tr *tree, t int, poolBase int32) (nodes []cnode, leaves []float64, depth int32, err error) {
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
		return nil, nil, 0, fmt.Errorf("rf: tree %d layout emitted %d of %d nodes", t, len(order), n)
	}

	nodes = make([]cnode, 0, n)
	leaves = make([]float64, n)
	for _, old := range order {
		nd := &tr.Nodes[old]
		self := poolBase + int32(len(nodes))
		if nd.Feature < 0 {
			leaves[len(nodes)] = nd.Thresh
			nodes = append(nodes, cnode{tkey: ^uint64(0), left: self, feat: 0})
			continue
		}
		l, r := newIdx[nd.Left], newIdx[nd.Right]
		if r != l+1 {
			return nil, nil, 0, fmt.Errorf("rf: tree %d node %d children not adjacent (%d, %d)", t, old, l, r)
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
	return nodes, leaves, depth, nil
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
		s += c.leafVal[i0]
		s += c.leafVal[i1]
		s += c.leafVal[i2]
		s += c.leafVal[i3]
		s += c.leafVal[i4]
		s += c.leafVal[i5]
		s += c.leafVal[i6]
		s += c.leafVal[i7]
	}
	for ; t0 < nt; t0++ {
		i := c.roots[t0]
		for lv := int32(0); lv < c.depths[t0]; lv++ {
			n := &nodes[i]
			_, b := bits.Sub64(n.tkey, kx[n.feat], 0)
			i = n.left + int32(b)
		}
		s += c.leafVal[i]
	}
	return s / float64(nt)
}

// PredictBatch evaluates a row-major flat feature matrix (len(X) must
// be a multiple of NumFeatures; row r is X[r*d : (r+1)*d]) and returns
// one prediction per row. An empty matrix returns nil without touching
// the pool. Allocates the result slice; use PredictBatchInto for a
// zero-allocation steady state.
func (c *CompiledForest) PredictBatch(X []float64) []float64 {
	if len(X) == 0 {
		return nil
	}
	return c.PredictBatchInto(make([]float64, len(X)/c.nFeat), X)
}

// PredictBatchInto is PredictBatch writing into the caller-owned dst,
// which must hold exactly one slot per row; it returns dst. Rows are
// processed in blocks of rowBlock: each block's rows are
// key-transformed into a stack buffer once, then every tree advances
// the whole block one level at a time — sixteen independent descent
// chains in flight — before the block's leaf values accumulate. Every
// row still accumulates tree values in tree order and divides once, so
// results are bit-identical to calling Predict row by row. It panics on
// a dimensionality or size mismatch, checked up front.
//
// Callers that can cache the key transform across sweeps (the
// predict-layer space arena) should use PredictBatchKeysInto instead.
//
//mpclint:hotpath pinned at 0 allocs/op by TestCompiledZeroAlloc
func (c *CompiledForest) PredictBatchInto(dst []float64, X []float64) []float64 {
	d := c.nFeat
	if len(X)%d != 0 {
		panic(fmt.Sprintf("rf: PredictBatch matrix of %d values is not a multiple of %d features", len(X), d))
	}
	rows := len(X) / d
	if len(dst) != rows {
		panic(fmt.Sprintf("rf: PredictBatchInto dst holds %d rows, matrix has %d", len(dst), rows))
	}
	if rows == 0 {
		return dst
	}
	var kbuf [rowBlock * maxCompiledFeatures]uint64
	for b0 := 0; b0 < rows; b0 += rowBlock {
		bn := rows - b0
		if bn > rowBlock {
			bn = rowBlock
		}
		blk := X[b0*d : (b0+bn)*d]
		for i, v := range blk {
			kbuf[i] = keyOf(v)
		}
		c.descendBlock(dst[b0:b0+bn], kbuf[:bn*d])
	}
	div := float64(c.nTrees)
	for r := range dst {
		dst[r] /= div
	}
	return dst
}

// PredictBatchKeysInto is the batched evaluation over an already
// key-transformed matrix: kX must hold KeysInto of the row-major input,
// and dst one slot per row. Trees iterate outermost — each tree's hot
// cluster stays cached across every row of the sweep — with rows
// advancing level-synchronously in blocks of rowBlock. This is the
// fastest batched path when the caller can precompute or cache keys
// (the space arena pre-keys its config columns once per space and only
// re-keys the eight counter columns per sweep). Bit-identical to
// Predict on each row.
//
//mpclint:hotpath pinned at 0 allocs/op by TestCompiledZeroAlloc
func (c *CompiledForest) PredictBatchKeysInto(dst []float64, kX []uint64) []float64 {
	d := c.nFeat
	if len(kX)%d != 0 {
		panic(fmt.Sprintf("rf: PredictBatchKeysInto matrix of %d keys is not a multiple of %d features", len(kX), d))
	}
	rows := len(kX) / d
	if len(dst) != rows {
		panic(fmt.Sprintf("rf: PredictBatchKeysInto dst holds %d rows, matrix has %d", len(dst), rows))
	}
	for r := range dst {
		dst[r] = 0
	}
	nodes := c.nodes
	var idx [rowBlock]int32
	for t, root := range c.roots {
		dep := c.depths[t]
		for b0 := 0; b0 < rows; b0 += rowBlock {
			bn := rows - b0
			if bn > rowBlock {
				bn = rowBlock
			}
			for j := 0; j < bn; j++ {
				idx[j] = root
			}
			off := b0 * d
			for lv := int32(0); lv < dep; lv++ {
				o := off
				for j := 0; j < bn; j++ {
					n := &nodes[idx[j]]
					_, b := bits.Sub64(n.tkey, kX[o+int(n.feat)], 0)
					idx[j] = n.left + int32(b)
					o += d
				}
			}
			for j := 0; j < bn; j++ {
				dst[b0+j] += c.leafVal[idx[j]]
			}
		}
	}
	div := float64(c.nTrees)
	for r := range dst {
		dst[r] /= div
	}
	return dst
}

// descendBlock zeroes out and runs every tree over one key-transformed
// row block, accumulating raw leaf sums (no division) into out — one
// slot per row, trees in index order, so each row's sum is built by
// exactly the tree walk's additions.
//
//mpclint:hotpath pinned transitively under the PredictBatchInto pin
func (c *CompiledForest) descendBlock(out []float64, kblk []uint64) {
	d := c.nFeat
	bn := len(out)
	for r := range out {
		out[r] = 0
	}
	nodes := c.nodes
	var idx [rowBlock]int32
	for t, root := range c.roots {
		dep := c.depths[t]
		for j := 0; j < bn; j++ {
			idx[j] = root
		}
		for lv := int32(0); lv < dep; lv++ {
			o := 0
			for j := 0; j < bn; j++ {
				n := &nodes[idx[j]]
				_, b := bits.Sub64(n.tkey, kblk[o+int(n.feat)], 0)
				idx[j] = n.left + int32(b)
				o += d
			}
		}
		for j := 0; j < bn; j++ {
			out[j] += c.leafVal[idx[j]]
		}
	}
}

// KeysInto key-transforms a row-major feature matrix (or any slice of
// feature values) for PredictBatchKeysInto: dst must be the same length
// as X. The transform is positionless — dst[i] = keyOf(X[i]) — so
// callers may pre-key stable columns once and re-key only the columns
// that change between sweeps.
//
//mpclint:hotpath pinned transitively under the PredictSpace steady-state pin
func KeysInto(dst []uint64, X []float64) {
	if len(dst) != len(X) {
		panic(fmt.Sprintf("rf: KeysInto dst holds %d keys, matrix has %d values", len(dst), len(X)))
	}
	for i, v := range X {
		dst[i] = keyOf(v)
	}
}

// KeyOf exposes the input-side key transform for callers that patch
// single feature values into a pre-keyed matrix.
//
//mpclint:hotpath pinned transitively under the PredictSpace steady-state pin
func KeyOf(v float64) uint64 { return keyOf(v) }

// SelfCheck verifies the compiled forest on `samples` deterministic
// pseudo-random inputs drawn to straddle every feature's threshold
// range in f, comparing raw float64 bits of the tree-walking Forest
// (ground truth) against the branchless level-order layout (the serving
// path), both scalar and interleaved-batch. Any difference — even in
// the last ulp — is an error. This is the load/train-time guard
// cmd/train runs before persisting a model (compiled inference is only
// trusted because it is bit-exact).
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
	x := make([]float64, c.nFeat)
	batch := make([]float64, 0, samples*c.nFeat)
	for s := 0; s < samples; s++ {
		for i := range x {
			l, h := lo[i], hi[i]
			if l > h { // feature never split on: any value exercises it
				l, h = -1, 1
			}
			pad := (h-l)*0.25 + 1
			x[i] = l - pad + rng.Float64()*(h-l+2*pad)
		}
		batch = append(batch, x...)
		want := f.Predict(x)
		got := c.Predict(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("rf: branchless layout diverges at sample %d: compiled %v (bits %#x), tree-walk %v (bits %#x)",
				s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if samples > 0 {
		dst := make([]float64, samples)
		c.PredictBatchInto(dst, batch)
		for r := 0; r < samples; r++ {
			want := f.Predict(batch[r*c.nFeat : (r+1)*c.nFeat])
			if math.Float64bits(dst[r]) != math.Float64bits(want) {
				return fmt.Errorf("rf: interleaved batch diverges at row %d: batch %v (bits %#x), tree-walk %v (bits %#x)",
					r, dst[r], math.Float64bits(dst[r]), want, math.Float64bits(want))
			}
		}
	}
	return nil
}
