// Package rf implements Random Forest regression (Breiman 2001) from
// scratch: CART regression trees grown on bootstrap resamples with
// per-split random feature subsets, averaged at prediction time. The
// paper trains such a model offline on kernel performance counters and
// hardware configurations to predict kernel execution time and power
// (§IV-A3); this package is the substrate for that predictor, but is
// fully general.
//
// # Seeding scheme and parallel training
//
// Training is deterministic given Config.Seed for every value of
// Config.Workers. All randomness is drawn from a single master
// rand.Rand seeded with Config.Seed, consumed serially in a fixed
// order before any tree is grown: for tree t = 0..NumTrees-1, first
// the ceil(SampleFrac·n) bootstrap sample indices (rng.Intn(n) each),
// then one rng.Int63() that seeds tree t's private builder RNG. Tree
// growth then uses only that injected per-tree *rand.Rand (feature
// subsets per split), so trees can be grown concurrently — or in any
// order — and still come out bit-identical to a serial pass,
// tree-for-tree. Out-of-bag accumulation is likewise reduced serially
// in tree order so the floating-point sums match the serial ones
// exactly.
package rf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mpcdvfs/internal/par"
)

// Config controls forest training. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	NumTrees    int     // number of trees in the ensemble
	MaxDepth    int     // maximum tree depth (root = depth 0)
	MinLeaf     int     // minimum samples in a leaf
	MaxFeatures int     // features considered per split; 0 means sqrt(d)
	NumThresh   int     // candidate thresholds per feature per split
	SampleFrac  float64 // bootstrap sample size as a fraction of n
	Seed        int64   // RNG seed; training is deterministic given Seed
	// Workers is the number of goroutines growing trees concurrently:
	// <= 0 uses the process default (par.Default), 1 forces a serial
	// pass. The trained forest is bit-identical for every value — see
	// the package comment for the seeding scheme that guarantees it.
	Workers int
}

// DefaultConfig returns a configuration that works well for the kernel
// predictor workload: 40 trees of depth 12.
func DefaultConfig(seed int64) Config {
	return Config{
		NumTrees:    40,
		MaxDepth:    12,
		MinLeaf:     2,
		MaxFeatures: 0,
		NumThresh:   24,
		SampleFrac:  1.0,
		Seed:        seed,
	}
}

func (c Config) validate(n, d int) error {
	switch {
	case n == 0:
		return errors.New("rf: no training samples")
	case d == 0:
		return errors.New("rf: samples have no features")
	case c.NumTrees <= 0:
		return fmt.Errorf("rf: NumTrees = %d, must be positive", c.NumTrees)
	case c.MaxDepth <= 0:
		return fmt.Errorf("rf: MaxDepth = %d, must be positive", c.MaxDepth)
	case c.MinLeaf <= 0:
		return fmt.Errorf("rf: MinLeaf = %d, must be positive", c.MinLeaf)
	case c.NumThresh <= 0:
		return fmt.Errorf("rf: NumThresh = %d, must be positive", c.NumThresh)
	case c.SampleFrac <= 0 || c.SampleFrac > 1:
		return fmt.Errorf("rf: SampleFrac = %v, must be in (0,1]", c.SampleFrac)
	case c.MaxFeatures < 0 || c.MaxFeatures > d:
		return fmt.Errorf("rf: MaxFeatures = %d outside [0,%d]", c.MaxFeatures, d)
	}
	return nil
}

// node is one tree node, stored in a flat slice; children are indices.
// Leaves have feature == -1 and carry the mean target in thresh.
type node struct {
	Feature     int // -1 for leaf
	Thresh      float64
	Left, Right int32 // child indices; unused for leaves
}

// tree is one CART regression tree in flattened form.
type tree struct{ Nodes []node }

func (t *tree) predict(x []float64) float64 {
	i := int32(0)
	for {
		nd := t.Nodes[i]
		if nd.Feature < 0 {
			return nd.Thresh
		}
		if x[nd.Feature] <= nd.Thresh {
			i = nd.Left
		} else {
			i = nd.Right
		}
	}
}

// Forest is a trained Random Forest regressor.
type Forest struct {
	trees     []tree
	nFeatures int
	oobMAE    float64
	oobOK     bool
}

// NumFeatures returns the feature dimensionality the forest was trained
// on.
func (f *Forest) NumFeatures() int { return f.nFeatures }

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// OOBMAE returns the out-of-bag mean absolute error estimated during
// training, and false if no sample was ever out of bag (SampleFrac == 1
// still leaves samples out of individual bootstrap draws, so this is
// normally available).
func (f *Forest) OOBMAE() (float64, bool) { return f.oobMAE, f.oobOK }

// Predict returns the forest's estimate for feature vector x. It panics
// if x has the wrong dimensionality.
func (f *Forest) Predict(x []float64) float64 {
	if len(x) != f.nFeatures {
		panic(fmt.Sprintf("rf: Predict with %d features, trained on %d", len(x), f.nFeatures))
	}
	s := 0.0
	for i := range f.trees {
		s += f.trees[i].predict(x)
	}
	return s / float64(len(f.trees))
}

// Train grows a forest on (X, y). Rows of X are feature vectors; every
// row must have the same length. Training is deterministic for a given
// Config.Seed, independent of Config.Workers (see the package comment
// for the seeding scheme).
func Train(X [][]float64, y []float64, cfg Config) (*Forest, error) {
	if len(X) != len(y) {
		return nil, fmt.Errorf("rf: %d feature rows but %d targets", len(X), len(y))
	}
	n := len(X)
	d := 0
	if n > 0 {
		d = len(X[0])
	}
	if err := cfg.validate(n, d); err != nil {
		return nil, err
	}
	for i, row := range X {
		if len(row) != d {
			return nil, fmt.Errorf("rf: row %d has %d features, want %d", i, len(row), d)
		}
	}
	mf := cfg.MaxFeatures
	if mf == 0 {
		mf = int(math.Ceil(math.Sqrt(float64(d))))
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Forest{trees: make([]tree, cfg.NumTrees), nFeatures: d}

	oobSum := make([]float64, n)
	oobCnt := make([]int, n)
	nboot := int(math.Ceil(cfg.SampleFrac * float64(n)))

	// Phase 1 (serial): draw every tree's bootstrap sample and builder
	// seed from the master RNG, in the exact order a serial pass
	// consumes them. This is the only place randomness enters training.
	boot := make([][]int, cfg.NumTrees)
	seeds := make([]int64, cfg.NumTrees)
	for t := 0; t < cfg.NumTrees; t++ {
		idx := make([]int, nboot)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		boot[t] = idx
		seeds[t] = rng.Int63()
	}

	// Phase 2 (parallel): grow each tree from its own injected RNG.
	// Trees are independent given (bootstrap, seed); each task writes
	// only its own slot.
	par.ForEach(cfg.Workers, cfg.NumTrees, func(t int) {
		b := builder{cfg: cfg, maxFeat: mf, X: X, y: y,
			rng: rand.New(rand.NewSource(seeds[t]))}
		b.grow(boot[t], 0)
		f.trees[t] = tree{Nodes: b.nodes}
	})

	// Phase 3 (serial): out-of-bag accumulation in tree order, so the
	// floating-point sums are bit-identical to the serial pass.
	inBag := make([]bool, n)
	for t := 0; t < cfg.NumTrees; t++ {
		for i := range inBag {
			inBag[i] = false
		}
		for _, j := range boot[t] {
			inBag[j] = true
		}
		for i := 0; i < n; i++ {
			if !inBag[i] {
				oobSum[i] += f.trees[t].predict(X[i])
				oobCnt[i]++
			}
		}
	}

	mae, cnt := 0.0, 0
	for i := 0; i < n; i++ {
		if oobCnt[i] > 0 {
			mae += math.Abs(oobSum[i]/float64(oobCnt[i]) - y[i])
			cnt++
		}
	}
	if cnt > 0 {
		f.oobMAE = mae / float64(cnt)
		f.oobOK = true
	}
	return f, nil
}

// builder grows one tree into nodes.
type builder struct {
	cfg     Config
	maxFeat int
	X       [][]float64
	y       []float64
	rng     *rand.Rand
	nodes   []node
}

// grow builds the subtree over the sample indices idx at the given depth
// and returns its node index.
func (b *builder) grow(idx []int, depth int) int32 {
	me := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{})

	mean := 0.0
	for _, i := range idx {
		mean += b.y[i]
	}
	mean /= float64(len(idx))

	if depth >= b.cfg.MaxDepth || len(idx) < 2*b.cfg.MinLeaf || constant(b.y, idx) {
		b.nodes[me] = node{Feature: -1, Thresh: mean}
		return me
	}

	feat, thr, ok := b.bestSplit(idx)
	if !ok {
		b.nodes[me] = node{Feature: -1, Thresh: mean}
		return me
	}

	var left, right []int
	for _, i := range idx {
		if b.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		b.nodes[me] = node{Feature: -1, Thresh: mean}
		return me
	}
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.nodes[me] = node{Feature: feat, Thresh: thr, Left: l, Right: r}
	return me
}

func constant(y []float64, idx []int) bool {
	for _, i := range idx[1:] {
		if y[i] != y[idx[0]] { //mpclint:ignore float-eq leaf purity is deliberately bit-exact; an epsilon would change which trees are grown and break the byte-identical-forest guarantee
			return false
		}
	}
	return true
}

// bestSplit searches a random feature subset and candidate thresholds for
// the split minimizing weighted child variance (maximum variance
// reduction).
func (b *builder) bestSplit(idx []int) (feat int, thr float64, ok bool) {
	d := len(b.X[0])
	feats := b.rng.Perm(d)[:b.maxFeat]

	bestScore := math.Inf(1)
	for _, f := range feats {
		// Candidate thresholds: distinct quantiles of the feature over
		// this node's samples.
		vals := make([]float64, len(idx))
		for i, s := range idx {
			vals[i] = b.X[s][f]
		}
		sort.Float64s(vals)
		if vals[0] == vals[len(vals)-1] { //mpclint:ignore float-eq constant-feature test over sorted values is deliberately bit-exact, like every split decision
			continue
		}
		nth := b.cfg.NumThresh
		if nth > len(vals)-1 {
			nth = len(vals) - 1
		}
		prev := math.NaN()
		for t := 1; t <= nth; t++ {
			pos := t * len(vals) / (nth + 1)
			if pos >= len(vals)-1 {
				pos = len(vals) - 2
			}
			cand := (vals[pos] + vals[pos+1]) / 2
			if cand == prev || cand <= vals[0] || cand > vals[len(vals)-1] { //mpclint:ignore float-eq candidate thresholds are deduplicated bit-exactly so the grown forest is reproducible byte for byte
				continue
			}
			prev = cand
			if score, valid := b.splitScore(idx, f, cand); valid && score < bestScore {
				bestScore, feat, thr, ok = score, f, cand, true
			}
		}
	}
	return feat, thr, ok
}

// splitScore returns the weighted sum of child variances (times n) for
// splitting idx on feature f at threshold thr.
func (b *builder) splitScore(idx []int, f int, thr float64) (float64, bool) {
	var nl, nr float64
	var sl, sr, ql, qr float64
	for _, i := range idx {
		v := b.y[i]
		if b.X[i][f] <= thr {
			nl++
			sl += v
			ql += v * v
		} else {
			nr++
			sr += v
			qr += v * v
		}
	}
	if nl < float64(b.cfg.MinLeaf) || nr < float64(b.cfg.MinLeaf) {
		return 0, false
	}
	// Sum of squared deviations per side: Σy² - (Σy)²/n.
	devL := ql - sl*sl/nl
	devR := qr - sr*sr/nr
	return devL + devR, true
}
