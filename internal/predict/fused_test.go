package predict

import (
	"testing"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
)

// fusedCounterSets returns n distinct kernel counter sets for staging.
func fusedCounterSets(n int) []counters.Set {
	ks := benchmarkKernels()
	out := make([]counters.Set, n)
	for i := range out {
		out[i] = ks[i%len(ks)].Counters()
	}
	return out
}

// directSweep runs the in-process batched path for one kernel.
func directSweep(t *testing.T, m *RandomForest, cs counters.Set, space hw.Space) []Estimate {
	t.Helper()
	dst := make([]Estimate, space.Size())
	if !m.PredictSpace(cs, space, dst) {
		t.Fatal("direct PredictSpace returned false")
	}
	return dst
}

// TestFusedPlanEpochPartitions is the epoch-boundary property test: any
// partition of N requests into epochs must yield per-request estimates
// bit-identical to each request's direct sweep — the coordinator's
// collect window may cut anywhere without perturbing a single decision.
func TestFusedPlanEpochPartitions(t *testing.T) {
	m := trainedRF(t)
	space := hw.DefaultSpace()
	const nReq = 6
	sets := fusedCounterSets(nReq)
	want := make([][]Estimate, nReq)
	for i, cs := range sets {
		want[i] = directSweep(t, m, cs, space)
	}

	partitions := [][]int{
		{6},
		{1, 5},
		{5, 1},
		{2, 2, 2},
		{3, 1, 2},
		{1, 1, 1, 1, 1, 1},
		{4, 2},
	}
	for _, part := range partitions {
		plan := NewFusedPlan(m, space, nReq)
		if plan == nil {
			t.Fatal("NewFusedPlan returned nil for a compiled model")
		}
		got := make([][]Estimate, nReq)
		next := 0
		for _, sz := range part {
			dsts := make([][]Estimate, sz)
			for s := 0; s < sz; s++ {
				plan.Stage(s, sets[next+s])
				dsts[s] = make([]Estimate, space.Size())
			}
			plan.Execute(sz, dsts)
			for s := 0; s < sz; s++ {
				got[next+s] = dsts[s]
			}
			next += sz
		}
		for i := range want {
			for r := range want[i] {
				if got[i][r] != want[i][r] {
					t.Fatalf("partition %v request %d row %d: fused %+v != direct %+v",
						part, i, r, got[i][r], want[i][r])
				}
			}
		}
	}
}

// TestFusedPlanSlotIndependence checks a slot's result does not depend
// on what its epoch co-residents staged: the same request fused with
// different neighbours yields the same bytes.
func TestFusedPlanSlotIndependence(t *testing.T) {
	m := trainedRF(t)
	space := hw.DefaultSpace()
	sets := fusedCounterSets(4)
	plan := NewFusedPlan(m, space, 4)
	run := func(order []int) []Estimate {
		dsts := make([][]Estimate, len(order))
		for s, k := range order {
			plan.Stage(s, sets[k])
			dsts[s] = make([]Estimate, space.Size())
		}
		plan.Execute(len(order), dsts)
		for s, k := range order {
			if k == 0 {
				return dsts[s]
			}
		}
		t.Fatal("order must contain request 0")
		return nil
	}
	a := run([]int{0, 1, 2, 3})
	b := run([]int{3, 2, 0})
	c := run([]int{0})
	for r := range a {
		if a[r] != b[r] || a[r] != c[r] {
			t.Fatalf("row %d differs across co-resident sets: %+v / %+v / %+v", r, a[r], b[r], c[r])
		}
	}
}

// TestFusedPlanZeroAlloc backs the hotpath annotations on Stage and
// Execute: the steady-state fuse/scatter path must not allocate.
func TestFusedPlanZeroAlloc(t *testing.T) {
	m := trainedRF(t)
	space := hw.DefaultSpace()
	sets := fusedCounterSets(4)
	plan := NewFusedPlan(m, space, 4)
	dsts := make([][]Estimate, 4)
	for s := range dsts {
		dsts[s] = make([]Estimate, space.Size())
	}
	if n := testing.AllocsPerRun(10, func() {
		for s, cs := range sets {
			plan.Stage(s, cs)
		}
		plan.Execute(len(sets), dsts)
	}); n != 0 {
		t.Errorf("Stage+Execute allocated %v times per epoch, want 0", n)
	}
}

// TestNewFusedPlanDeclines covers the coordinator's decline conditions:
// no compiled path, empty space, or a zero slot budget.
func TestNewFusedPlanDeclines(t *testing.T) {
	m := trainedRF(t)
	if NewFusedPlan(nil, hw.DefaultSpace(), 4) != nil {
		t.Error("nil model accepted")
	}
	if NewFusedPlan(m, hw.Space{}, 4) != nil {
		t.Error("empty space accepted")
	}
	if NewFusedPlan(m, hw.DefaultSpace(), 0) != nil {
		t.Error("zero maxRequests accepted")
	}
	m.SetCompiled(false)
	defer m.SetCompiled(true)
	if NewFusedPlan(m, hw.DefaultSpace(), 4) != nil {
		t.Error("tree-walk model accepted")
	}
}

// syncSubmit serves requests inline on the submitting goroutine through
// a FusedPlan — the smallest possible coordinator, for unit-testing
// RemoteSweep without goroutines.
func syncSubmit(t *testing.T, m *RandomForest) SweepSubmit {
	t.Helper()
	var plan *FusedPlan
	return func(req *SweepRequest) bool {
		if plan == nil || !plan.Serves(req.Model, req.Space) {
			plan = NewFusedPlan(req.Model, req.Space, 1)
			if plan == nil {
				return false
			}
		}
		plan.Stage(0, req.CS)
		plan.Execute(1, [][]Estimate{req.Dst})
		req.OK = true
		req.Done <- struct{}{}
		return true
	}
}

// TestRemoteSweepMatchesDirect proves the full session-side path —
// submit, park, calibration — returns bytes identical to the direct
// Calibrated.PredictSpace, including after feedback shifts the ratios.
func TestRemoteSweepMatchesDirect(t *testing.T) {
	m := trainedRF(t)
	space := hw.DefaultSpace()
	k := kernel.NewBalanced("b", 1)
	cs := k.Counters()

	calDirect := NewCalibrated(m)
	calRemote := NewCalibrated(m)
	rs := NewRemoteSweep(calRemote, m, syncSubmit(t, m))

	check := func(stage string) {
		want := make([]Estimate, space.Size())
		if !calDirect.PredictSpace(cs, space, want) {
			t.Fatalf("%s: direct path returned false", stage)
		}
		got := make([]Estimate, space.Size())
		if !rs.PredictSpace(cs, space, got) {
			t.Fatalf("%s: remote sweep returned false", stage)
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("%s row %d: remote %+v != direct %+v", stage, r, got[r], want[r])
			}
		}
	}
	check("uncalibrated")
	truth := k.Evaluate(hw.FailSafe())
	calDirect.Feedback(cs, hw.FailSafe(), truth.TimeMS, truth.GPUW+truth.NBW)
	calRemote.Feedback(cs, hw.FailSafe(), truth.TimeMS, truth.GPUW+truth.NBW)
	check("after feedback")
}

// TestRemoteSweepFallsBack covers every rejection: a refused submit
// and a declined request both return the direct calibrated sweep's
// bytes, and a model without the compiled path reports false with dst
// untouched, so the optimizer's per-configuration fill starts clean.
func TestRemoteSweepFallsBack(t *testing.T) {
	m := trainedRF(t)
	space := hw.DefaultSpace()
	k := kernel.NewBalanced("b", 1)
	cs := k.Counters()
	cal := NewCalibrated(m)
	truth := k.Evaluate(hw.FailSafe())
	cal.Feedback(cs, hw.FailSafe(), truth.TimeMS, truth.GPUW+truth.NBW)
	want := make([]Estimate, space.Size())
	if !cal.PredictSpace(cs, space, want) {
		t.Fatal("direct path returned false")
	}

	for _, tc := range []struct {
		name   string
		submit SweepSubmit
	}{
		{"rejected", func(*SweepRequest) bool { return false }},
		{"declined", func(req *SweepRequest) bool {
			req.OK = false
			req.Done <- struct{}{}
			return true
		}},
	} {
		got := make([]Estimate, space.Size())
		if !NewRemoteSweep(cal, m, tc.submit).PredictSpace(cs, space, got) {
			t.Fatalf("%s: fallback reported false", tc.name)
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("%s row %d: fallback %+v != direct %+v", tc.name, r, got[r], want[r])
			}
		}
	}

	m.SetCompiled(false)
	defer m.SetCompiled(true)
	walk := NewRemoteSweep(NewCalibrated(m), m, func(*SweepRequest) bool {
		t.Fatal("tree-walk model must not submit")
		return false
	})
	poison := Estimate{TimeMS: -1, GPUPowerW: -1}
	dst := make([]Estimate, space.Size())
	for i := range dst {
		dst[i] = poison
	}
	if walk.PredictSpace(cs, space, dst) {
		t.Fatal("tree-walk model reported success")
	}
	for i := range dst {
		if dst[i] != poison {
			t.Fatalf("tree-walk: dst[%d] written on a false return", i)
		}
	}
}
