package predict

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/telemetry"
)

// quickForest trains the small forest pair behind quickRF, once per
// test binary.
var quickForest = sync.OnceValues(func() (*RandomForest, error) {
	opt := DefaultTrainOptions(77)
	opt.NumKernels = 12
	return TrainRandomForest(opt)
})

// quickRF returns a structurally real model, not a paper-grade one, for
// unit tests that only read it. The model is shared, so no caller may
// change it; tests of training itself train their own forests.
func quickRF(t *testing.T) *RandomForest {
	t.Helper()
	m, err := quickForest()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// treeWalkOf returns the tree-walking reference for a trained model.
func treeWalkOf(t *testing.T, m *RandomForest) Model {
	t.Helper()
	ref, err := NewTreeWalk(m.Forests())
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestPredictKernelCompiledEquivalence checks that the compiled serving
// path and the reference tree-walking path agree bit for bit across a
// population of kernels and the full configuration space — the
// invariant that makes the compiled engine unobservable in any replay.
func TestPredictKernelCompiledEquivalence(t *testing.T) {
	m := quickRF(t)
	walk := treeWalkOf(t, m)
	rng := rand.New(rand.NewSource(5))
	space := hw.DefaultSpace()
	for i := 0; i < 6; i++ {
		cs := kernel.Random("eq", rng).Counters()
		space.ForEach(func(c hw.Config) {
			fast := m.PredictKernel(cs, c)
			ref := walk.PredictKernel(cs, c)
			if math.Float64bits(fast.TimeMS) != math.Float64bits(ref.TimeMS) ||
				math.Float64bits(fast.GPUPowerW) != math.Float64bits(ref.GPUPowerW) {
				t.Fatalf("kernel %d config %+v: compiled %+v != tree-walk %+v", i, c, fast, ref)
			}
		})
	}
}

// TestPredictSpaceMatchesScalar checks the batched sweep against a
// scalar PredictKernel loop and the tree walk: same configurations,
// same order, same bits. It sweeps the default and the full space, a
// one-configuration space and sub-spaces whose knob lists run out of
// order (which also swaps the installed plan back and forth), with
// random kernels and with counter sets holding NaN, ±Inf and negative
// values, which reach the forest as NaN and +Inf features.
func TestPredictSpaceMatchesScalar(t *testing.T) {
	m := quickRF(t)
	walk := treeWalkOf(t, m)
	rng := rand.New(rand.NewSource(6))
	var sets []counters.Set
	for i := 0; i < 4; i++ {
		sets = append(sets, kernel.Random("sp", rng).Counters())
	}
	base := kernel.NewBalanced("adv", 1).Counters()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3, 1e308} {
		cs := base
		cs[0], cs[counters.NumCounters-1] = v, v
		sets = append(sets, cs)
	}
	one := hw.Space{CPUs: []hw.CPUPState{hw.P4}, NBs: []hw.NBState{hw.NB1}, GPUs: []hw.GPUState{hw.DPM2}, CUs: []int8{6}}
	reordered := hw.DefaultSpace()
	reordered.GPUs = []hw.GPUState{hw.DPM4, hw.DPM0}
	reordered.CPUs = []hw.CPUPState{hw.P7}
	reordered.NBs = []hw.NBState{hw.NB3, hw.NB0, hw.NB2}
	reordered.CUs = []int8{8, 2, 6}
	for _, space := range []hw.Space{hw.DefaultSpace(), hw.FullSpace(), one, reordered} {
		dst := make([]Estimate, space.Size())
		for i, cs := range sets {
			if !m.PredictSpace(cs, space, dst) {
				t.Fatalf("PredictSpace returned false on a compiled model over %d configurations", space.Size())
			}
			for r, c := range space.Configs() {
				want := m.PredictKernel(cs, c)
				ref := walk.PredictKernel(cs, c)
				for _, w := range []Estimate{want, ref} {
					if math.Float64bits(dst[r].TimeMS) != math.Float64bits(w.TimeMS) ||
						math.Float64bits(dst[r].GPUPowerW) != math.Float64bits(w.GPUPowerW) {
						t.Fatalf("space %d set %d row %d (%+v): batched %+v != scalar %+v / tree-walk %+v",
							space.Size(), i, r, c, dst[r], want, ref)
					}
				}
			}
		}
	}
}

// TestPredictSpaceDisabled checks the contract for the unavailable
// case: a space beyond the sweep's row capacity, and one whose factors
// need more than a word, refuse the batched path and leave dst alone
// (the optimizer then fills its sweep per configuration). The tree-walk
// reference has no batched path at all.
func TestPredictSpaceDisabled(t *testing.T) {
	m := quickRF(t)
	big := hw.FullSpace()
	big.CPUs = append(big.CPUs, big.CPUs...) // 1,120 configurations
	wide := hw.Space{CPUs: []hw.CPUPState{hw.P1}, NBs: []hw.NBState{hw.NB0}, GPUs: []hw.GPUState{hw.DPM4}}
	for len(wide.CUs) < 64 {
		wide.CUs = append(wide.CUs, 2, 4, 6, 8) // 64 configurations over 66 factor bits
	}
	sentinel := Estimate{TimeMS: -1, GPUPowerW: -1}
	cs := kernel.NewPeak("pk", 1).Counters()
	for _, space := range []hw.Space{big, wide} {
		dst := make([]Estimate, space.Size())
		for i := range dst {
			dst[i] = sentinel
		}
		if m.PredictSpace(cs, space, dst) {
			t.Fatalf("PredictSpace returned true over %d configurations of %v", space.Size(), space)
		}
		for i := range dst {
			if dst[i] != sentinel {
				t.Fatalf("dst[%d] touched on the refused path: %+v", i, dst[i])
			}
		}
	}
	if _, ok := treeWalkOf(t, m).(SpaceEvaluator); ok {
		t.Fatal("the tree-walk reference implements SpaceEvaluator")
	}
}

// TestSweepGridFactorCheck checks that the sweep's grid follows the
// features patch writes: patchConfig's features each depend on one
// factor and make a grid of the space's shape, while a feature that
// depends on two factors declines the space.
func TestSweepGridFactorCheck(t *testing.T) {
	space := hw.FullSpace()
	g := sweepGrid(space, patchConfig)
	if g == nil || g.Rows() != space.Size() {
		t.Fatalf("patchConfig over the full space: grid %v, want %d rows", g, space.Size())
	}
	twoFactors := func(x []float64, c hw.Config) {
		patchConfig(x, c)
		x[counters.NumCounters+2] += CPUPowerW(c.CPU) // CUs now vary with the CPU state too
	}
	if g := sweepGrid(space, twoFactors); g != nil {
		t.Fatal("a feature of both the CU and the CPU factor made a grid")
	}
}

// TestPredictSpaceDstSizePanics pins the up-front size check.
func TestPredictSpaceDstSizePanics(t *testing.T) {
	m := quickRF(t)
	defer func() {
		if recover() == nil {
			t.Fatal("undersized dst did not panic")
		}
	}()
	m.PredictSpace(kernel.NewPeak("pk", 1).Counters(), hw.DefaultSpace(), make([]Estimate, 3))
}

// TestCalibratedPredictSpaceForwards checks that the feedback
// wrapper's sweep applies exactly the scalar path's correction: after
// Feedback installs a ratio, every row of the calibrated sweep at an
// infinite headroom is the calibrated scalar estimate bit for bit,
// whether the compiled model's bounded sweep fills it or, over the
// scalar-only tree walk, one PredictKernel per configuration does.
func TestCalibratedPredictSpaceForwards(t *testing.T) {
	m := quickRF(t)
	cs := kernel.NewMemoryBound("mb", 1).Counters()
	space := hw.DefaultSpace()
	cfg := space.At(0)
	raw := m.PredictKernel(cs, cfg)
	dst := make([]Estimate, space.Size())
	for _, inner := range []Model{m, treeWalkOf(t, m)} {
		cal := NewCalibrated(inner)
		// Install a non-trivial ratio for this kernel's signature.
		cal.Feedback(cs, cfg, raw.TimeMS*1.17, raw.GPUPowerW*0.83)
		if cal.KnownKernels() != 1 {
			t.Fatalf("feedback not recorded: %d known kernels", cal.KnownKernels())
		}
		cal.PredictSpaceWithin(cs, space, dst, math.Inf(1), 0, nil)
		for r, c := range space.Configs() {
			want := cal.PredictKernel(cs, c)
			if math.Float64bits(dst[r].TimeMS) != math.Float64bits(want.TimeMS) ||
				math.Float64bits(dst[r].GPUPowerW) != math.Float64bits(want.GPUPowerW) {
				t.Fatalf("%s row %d: calibrated sweep %+v != scalar %+v", inner.Name(), r, dst[r], want)
			}
		}
	}
}

// TestPredictKernelZeroAlloc pins the steady-state scalar prediction at
// zero allocations per call: the feature vector lives on the stack and
// compiled traversal touches only pre-built pools.
func TestPredictKernelZeroAlloc(t *testing.T) {
	m := quickRF(t)
	cs := kernel.NewComputeBound("cb", 1).Counters()
	cfg := hw.DefaultSpace().At(17)
	if allocs := testing.AllocsPerRun(200, func() { _ = m.PredictKernel(cs, cfg) }); allocs != 0 {
		t.Fatalf("PredictKernel allocates %v times per call, want 0", allocs)
	}
}

// TestPredictSpaceZeroAllocSteadyState pins the batched sweep at zero
// allocations once the plan has been built for the space (the first
// sweep pays the one-time build; every per-decision sweep after it is
// allocation-free).
func TestPredictSpaceZeroAllocSteadyState(t *testing.T) {
	m := quickRF(t)
	space := hw.DefaultSpace()
	cs := kernel.NewPeak("pk", 1).Counters()
	dst := make([]Estimate, space.Size())
	m.PredictSpace(cs, space, dst) // warm up: builds the plan
	if allocs := testing.AllocsPerRun(50, func() { m.PredictSpace(cs, space, dst) }); allocs != 0 {
		t.Fatalf("warm PredictSpace allocates %v times per call, want 0", allocs)
	}
}

// TestPredictSpaceWithinZeroAllocThroughCalibrated pins the bounded
// sweep at zero allocations through the policy stack, a Calibrated with
// a correction ratio installed over the compiled model, at headrooms
// that leave some rows feasible, every row and none.
func TestPredictSpaceWithinZeroAllocThroughCalibrated(t *testing.T) {
	m := quickRF(t)
	space := hw.DefaultSpace()
	cs := kernel.NewPeak("pk", 1).Counters()
	cal := NewCalibrated(m)
	fs := space.Clamp(hw.FailSafe())
	raw := m.PredictKernel(cs, fs)
	cal.Feedback(cs, fs, raw.TimeMS*1.2, raw.GPUPowerW*0.9)
	dst := make([]Estimate, space.Size())
	row := space.Index(fs)
	cal.PredictSpaceWithin(cs, space, dst, raw.TimeMS, row, nil) // warm up: builds the plan
	for _, head := range []float64{raw.TimeMS, math.Inf(1), math.Inf(-1)} {
		if allocs := testing.AllocsPerRun(50, func() { cal.PredictSpaceWithin(cs, space, dst, head, row, nil) }); allocs != 0 {
			t.Fatalf("warm Calibrated.PredictSpaceWithin at headroom %v allocates %v times per call, want 0", head, allocs)
		}
	}
}

// TestPredictSpaceWithinOwesOnlyTheFeasibleProduct checks the bounded
// sweep against the unbounded one, bare and through a Calibrated with a
// ratio installed: every time is the unbounded sweep's, the power is
// the unbounded sweep's on every row of the smallest knob product that
// holds the feasible rows (NaN times included), or on the fail-safe's
// row alone when no row is feasible, and NaN on every other row. Each
// sweep counts one plan lookup.
func TestPredictSpaceWithinOwesOnlyTheFeasibleProduct(t *testing.T) {
	m := quickRF(t)
	rng := rand.New(rand.NewSource(28))
	var sets []counters.Set
	for i := 0; i < 4; i++ {
		sets = append(sets, kernel.Random("bw", rng).Counters())
	}
	var huge counters.Set
	for i := range huge {
		huge[i] = 1e308
	}
	sets = append(sets, huge)
	for _, space := range []hw.Space{hw.DefaultSpace(), hw.FullSpace()} {
		n := space.Size()
		_, nNB, nGPU, nCU := space.KnobStates()
		fs := space.Index(space.Clamp(hw.FailSafe()))
		full, dst := make([]Estimate, n), make([]Estimate, n)
		for i, cs := range sets {
			cal := NewCalibrated(m)
			raw := m.PredictKernel(cs, space.At(fs))
			cal.Feedback(cs, space.At(fs), 7.5, raw.GPUPowerW*1.1)
			for _, model := range []struct {
				name  string
				sweep func(dst []Estimate, head float64)
			}{
				{"forest", func(dst []Estimate, head float64) {
					if !m.PredictSpaceWithin(cs, space, dst, SweepBound{HeadroomMS: head, FailSafe: fs}, nil) {
						t.Fatal("PredictSpaceWithin declined")
					}
				}},
				{"calibrated", func(dst []Estimate, head float64) { cal.PredictSpaceWithin(cs, space, dst, head, fs, nil) }},
			} {
				model.sweep(full, math.Inf(1)) // every row is within +Inf: the unbounded sweep
				times := make([]float64, n)
				for r := range full {
					times[r] = full[r].TimeMS
				}
				slices.Sort(times)
				for _, head := range []float64{times[n/2], times[n/7], times[0] - 1, 0, math.Inf(1), math.Inf(-1), math.NaN()} {
					h0, m0 := m.ArenaPoolStats()
					model.sweep(dst, head)
					if h, mi := m.ArenaPoolStats(); h+mi != h0+m0+1 {
						t.Fatalf("one bounded sweep counted %d plan lookups, want 1", h+mi-h0-m0)
					}
					var cover [3]uint64 // CPU, (NB, GPU) and CU elements of the feasible rows
					for r := range full {
						if !(full[r].TimeMS > head) {
							cover[0] |= 1 << (r / (nNB * nGPU * nCU))
							cover[1] |= 1 << (r / nCU % (nNB * nGPU))
							cover[2] |= 1 << (r % nCU)
						}
					}
					for r := range full {
						owed := cover[0]>>(r/(nNB*nGPU*nCU))&1 == 1 && cover[1]>>(r/nCU%(nNB*nGPU))&1 == 1 && cover[2]>>(r%nCU)&1 == 1
						if cover[0] == 0 {
							owed = r == fs
						}
						label := fmt.Sprintf("space %d set %d %s headroom %v row %d", n, i, model.name, head, r)
						if math.Float64bits(dst[r].TimeMS) != math.Float64bits(full[r].TimeMS) {
							t.Fatalf("%s: bounded time %v != unbounded %v", label, dst[r].TimeMS, full[r].TimeMS)
						}
						switch {
						case owed && math.Float64bits(dst[r].GPUPowerW) != math.Float64bits(full[r].GPUPowerW):
							t.Fatalf("%s: bounded power %v != unbounded %v", label, dst[r].GPUPowerW, full[r].GPUPowerW)
						case !owed && !math.IsNaN(dst[r].GPUPowerW):
							t.Fatalf("%s: power %v outside the feasible product, want NaN", label, dst[r].GPUPowerW)
						}
					}
				}
			}
		}
	}
}

// tracedOnly hides a model's bounded sweep, leaving its unbounded
// traced one, as a wrapper that forwards only the unbounded methods
// does.
type tracedOnly struct{ *RandomForest }

func (tracedOnly) PredictSpaceWithin() {} // shadows the bounded method

// TestCalibratedPredictSpaceWithinFallsBack checks the Calibrated's
// fills without the inner model's bounded sweep: over an inner model
// with only the unbounded traced sweep, and over a scalar-only one,
// every row at any headroom comes out as the calibrated bounded
// sweep's at an infinite headroom, which prices every row.
func TestCalibratedPredictSpaceWithinFallsBack(t *testing.T) {
	m := quickRF(t)
	space := hw.DefaultSpace()
	cs := kernel.NewMemoryBound("mb", 1).Counters()
	calibrated := func(inner Model) *Calibrated {
		cal := NewCalibrated(inner)
		raw := m.PredictKernel(cs, space.At(0))
		cal.Feedback(cs, space.At(0), raw.TimeMS*1.3, raw.GPUPowerW*0.7)
		return cal
	}
	want := make([]Estimate, space.Size())
	calibrated(m).PredictSpaceWithin(cs, space, want, math.Inf(1), 0, nil)
	if _, ok := Model(tracedOnly{m}).(BoundedSpaceEvaluator); ok {
		t.Fatal("tracedOnly still has a bounded sweep")
	}
	dst := make([]Estimate, space.Size())
	for _, inner := range []Model{tracedOnly{m}, treeWalkOf(t, m)} {
		for _, head := range []float64{math.Inf(-1), 0, math.NaN(), math.Inf(1)} {
			calibrated(inner).PredictSpaceWithin(cs, space, dst, head, 0, nil)
			for r := range dst {
				if math.Float64bits(dst[r].TimeMS) != math.Float64bits(want[r].TimeMS) ||
					math.Float64bits(dst[r].GPUPowerW) != math.Float64bits(want[r].GPUPowerW) {
					t.Fatalf("%T at headroom %v row %d: %+v, want %+v", inner, head, r, dst[r], want[r])
				}
			}
		}
	}
}

// TestPredictSpaceWithinSpans checks that a traced bounded sweep emits
// exactly the child spans of a traced unbounded one: one featurize and
// one forest-eval span under the caller's span.
func TestPredictSpaceWithinSpans(t *testing.T) {
	m := quickRF(t)
	space := hw.DefaultSpace()
	cs := kernel.NewComputeBound("cb", 1).Counters()
	dst := make([]Estimate, space.Size())
	names := func(sweep func(tc *telemetry.Context)) map[string]int {
		tr := telemetry.NewTracer(64, 1)
		tc := tr.NewContext("s")
		root := tc.StartRoot(telemetry.SpanDecide, 0)
		sweep(tc)
		root.End()
		got := map[string]int{}
		for _, rec := range tr.Snapshot(nil) {
			if rec.Name != telemetry.SpanDecide {
				got[rec.Name]++
			}
		}
		return got
	}
	want := names(func(tc *telemetry.Context) { m.PredictSpaceTraced(cs, space, dst, tc) })
	if want[telemetry.SpanFeaturize] != 1 || want[telemetry.SpanForestEval] != 1 || len(want) != 2 {
		t.Fatalf("traced unbounded sweep spans %v, want one featurize and one forest-eval", want)
	}
	for _, head := range []float64{math.Inf(-1), 0, math.Inf(1)} {
		got := names(func(tc *telemetry.Context) {
			NewCalibrated(m).PredictSpaceWithin(cs, space, dst, head, 0, tc)
		})
		if !maps.Equal(got, want) {
			t.Fatalf("bounded sweep at headroom %v spans %v, want %v", head, got, want)
		}
	}
}

// TestFeaturizeZeroAlloc pins featurizeInto (the hot-path assembly) at
// zero allocations with a caller-owned buffer.
func TestFeaturizeZeroAlloc(t *testing.T) {
	cs := kernel.NewPeak("pk", 1).Counters()
	cfg := hw.DefaultSpace().At(3)
	var buf [numRFFeatures]float64
	if allocs := testing.AllocsPerRun(200, func() { featurizeInto(buf[:], cs, cfg) }); allocs != 0 {
		t.Fatalf("featurizeInto allocates %v times per call, want 0", allocs)
	}
	// The allocating convenience must agree with the in-place form.
	x := featurize(cs, cfg)
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(buf[i]) {
			t.Fatalf("featurize[%d] = %v, featurizeInto wrote %v", i, x[i], buf[i])
		}
	}
	if len(x) != counters.NumCounters+numConfigFeatures {
		t.Fatalf("featurize returned %d features, want %d", len(x), numRFFeatures)
	}
}

// TestCompiledForestsExposed checks that trained models carry their
// compiled forests from birth and that the shapes line up.
func TestCompiledForestsExposed(t *testing.T) {
	m := quickRF(t)
	tc, pc := m.CompiledForests()
	if tc == nil || pc == nil {
		t.Fatal("trained model missing compiled forests")
	}
	tf, pf := m.Forests()
	if tc.NumTrees() != tf.NumTrees() || tc.NumFeatures() != tf.NumFeatures() {
		t.Fatalf("time forest compiled shape %d/%d != %d/%d",
			tc.NumTrees(), tc.NumFeatures(), tf.NumTrees(), tf.NumFeatures())
	}
	if pc.NumTrees() != pf.NumTrees() || pc.NumFeatures() != pf.NumFeatures() {
		t.Fatalf("power forest compiled shape %d/%d != %d/%d",
			pc.NumTrees(), pc.NumFeatures(), pf.NumTrees(), pf.NumFeatures())
	}
	if tc.NumNodes() <= 0 {
		t.Fatal("empty compiled node pool")
	}
}

// TestPredictSpaceConcurrent hammers one model's batched sweep from
// many goroutines at once — the exact sharing pattern of the decision
// service, where every session's optimizer sweeps through the same
// snapshot's immutable plan. Each goroutine uses its own kernels and
// its own dst, and every row must be bit-identical to a serial sweep.
// Run under -race this pins the shared plan as read-only: no sweep
// writes anything another sweep reads.
func TestPredictSpaceConcurrent(t *testing.T) {
	m := quickRF(t)
	space := hw.DefaultSpace()
	const goroutines = 8
	const sweeps = 25

	// Serial reference per goroutine seed, computed up front.
	want := make([][]Estimate, goroutines)
	for g := 0; g < goroutines; g++ {
		rng := rand.New(rand.NewSource(int64(100 + g)))
		cs := kernel.Random("cc", rng).Counters()
		dst := make([]Estimate, space.Size())
		if !m.PredictSpace(cs, space, dst) {
			t.Fatal("PredictSpace returned false on a compiled model")
		}
		want[g] = dst
	}

	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			cs := kernel.Random("cc", rng).Counters()
			dst := make([]Estimate, space.Size())
			for s := 0; s < sweeps; s++ {
				if !m.PredictSpace(cs, space, dst) {
					errs[g] = fmt.Errorf("goroutine %d sweep %d: PredictSpace returned false", g, s)
					return
				}
				for r := range dst {
					if math.Float64bits(dst[r].TimeMS) != math.Float64bits(want[g][r].TimeMS) ||
						math.Float64bits(dst[r].GPUPowerW) != math.Float64bits(want[g][r].GPUPowerW) {
						errs[g] = fmt.Errorf("goroutine %d sweep %d row %d: %+v != serial %+v",
							g, s, r, dst[r], want[g][r])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
