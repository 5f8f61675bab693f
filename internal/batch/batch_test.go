// Tests for the epoch coordinator. The load-bearing one is the
// concurrent bit-exactness test: many goroutines routing sweeps through
// one coordinator must each get exactly the bytes their direct
// PredictSpace would produce, under -race. The rest defend the
// machinery: drain-on-Stop never strands a parked session, saturation
// rejects instead of blocking, unservable requests decline cleanly.
package batch_test

import (
	"sync"
	"testing"
	"time"

	"mpcdvfs/internal/batch"
	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/kernel"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/predict"
)

var (
	rfOnce  sync.Once
	rfModel *predict.RandomForest
	rfErr   error
)

// trainedRF trains one small forest per test binary.
func trainedRF(t *testing.T) *predict.RandomForest {
	t.Helper()
	rfOnce.Do(func() {
		opt := predict.DefaultTrainOptions(77)
		opt.NumKernels = 40 // keep unit tests fast
		rfModel, rfErr = predict.TrainRandomForest(opt)
	})
	if rfErr != nil {
		t.Fatal(rfErr)
	}
	return rfModel
}

func testKernels() []kernel.Kernel {
	return []kernel.Kernel{
		kernel.NewComputeBound("cb", 1),
		kernel.NewMemoryBound("mb", 1),
		kernel.NewPeak("pk", 1),
		kernel.NewUnscalable("us", 1),
		kernel.NewBalanced("ba", 1),
		kernel.NewComputeBound("cb2", 2.5),
	}
}

// newRequest builds a reusable parked-submitter request.
func newRequest(m *predict.RandomForest, space hw.Space, cs counters.Set) *predict.SweepRequest {
	return &predict.SweepRequest{
		Model: m,
		Space: space,
		CS:    cs,
		Dst:   make([]predict.Estimate, space.Size()),
		Done:  make(chan struct{}, 1),
	}
}

// TestConcurrentSweepsBitExact is the determinism contract under
// contention: 6 sessions × 8 decisions race through one coordinator
// (tiny window, so epochs cut at arbitrary request boundaries), and
// every result must be bit-identical to the direct batched path. The
// sessions use RemoteSweep — the exact session-side type the serving
// stack wires — whose submit-rejected decisions fall back to the direct
// path.
func TestConcurrentSweepsBitExact(t *testing.T) {
	m := trainedRF(t)
	space := hw.DefaultSpace()
	ks := testKernels()

	want := make([][]predict.Estimate, len(ks))
	for i, k := range ks {
		want[i] = make([]predict.Estimate, space.Size())
		if !m.PredictSpace(k.Counters(), space, want[i]) {
			t.Fatal("direct PredictSpace returned false")
		}
	}

	reg := metrics.New()
	c := batch.New(batch.Config{Window: 50 * time.Microsecond, MaxFuse: 4, Metrics: reg})
	defer c.Stop()

	const decisions = 8
	var wg sync.WaitGroup
	for i, k := range ks {
		wg.Add(1)
		go func(i int, k kernel.Kernel) {
			defer wg.Done()
			rs := predict.NewRemoteSweep(predict.NewCalibrated(m), m, c.Submit)
			cs := k.Counters()
			dst := make([]predict.Estimate, space.Size())
			for d := 0; d < decisions; d++ {
				for j := range dst {
					dst[j] = predict.Estimate{TimeMS: -1}
				}
				if !rs.PredictSpace(cs, space, dst) {
					t.Error("PredictSpace declined on a compiled model")
					return
				}
				for j := range dst {
					if dst[j] != want[i][j] {
						t.Errorf("session %d decision %d row %d: got %+v want %+v",
							i, d, j, dst[j], want[i][j])
						return
					}
				}
			}
		}(i, k)
	}
	wg.Wait()
	st := c.Stats()
	if st.Fused == 0 || st.Epochs == 0 {
		t.Fatalf("coordinator served nothing: %+v", st)
	}
	if st.Fused+st.Rejected != uint64(len(ks)*decisions) {
		t.Fatalf("fused %d + rejected %d != %d submitted", st.Fused, st.Rejected, len(ks)*decisions)
	}
}

// TestStopDrainsAcceptedRequests parks three submitters inside one
// still-collecting epoch (a very long window), then Stops: every
// accepted request must still complete with correct results, and Stop
// must return — the no-stranded-session half of the Shutdown contract.
func TestStopDrainsAcceptedRequests(t *testing.T) {
	m := trainedRF(t)
	space := hw.DefaultSpace()
	ks := testKernels()[:3]
	c := batch.New(batch.Config{Window: time.Minute, MaxFuse: 8})

	reqs := make([]*predict.SweepRequest, len(ks))
	for i, k := range ks {
		reqs[i] = newRequest(m, space, k.Counters())
		if !c.Submit(reqs[i]) {
			t.Fatalf("submit %d rejected by an idle coordinator", i)
		}
	}
	done := make(chan struct{})
	go func() {
		c.Stop()
		close(done)
	}()
	for i, req := range reqs {
		select {
		case <-req.Done:
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d stranded after Stop", i)
		}
		if !req.OK {
			t.Fatalf("request %d declined on drain", i)
		}
		want := make([]predict.Estimate, space.Size())
		m.PredictSpace(ks[i].Counters(), space, want)
		for r := range want {
			if req.Dst[r] != want[r] {
				t.Fatalf("request %d row %d: drained result %+v != direct %+v",
					i, r, req.Dst[r], want[r])
			}
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop deadlocked")
	}
	if c.Submit(newRequest(m, space, ks[0].Counters())) {
		t.Fatal("stopped coordinator accepted a submit")
	}
	c.Stop() // idempotent
}

// TestSaturationRejectsWithoutBlocking hammers a deliberately tiny
// coordinator (queue 1, fuse 1) with far more concurrent submitters
// than it can hold. Submit must never block: every call returns, every
// accepted request completes, every rejected one is counted, and Stop
// afterwards returns promptly.
func TestSaturationRejectsWithoutBlocking(t *testing.T) {
	m := trainedRF(t)
	space := hw.DefaultSpace()
	cs := kernel.NewBalanced("ba", 1).Counters()
	c := batch.New(batch.Config{Window: time.Microsecond, MaxFuse: 1, Queue: 1})

	const submitters = 16
	var accepted, rejected, served int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := newRequest(m, space, cs)
			for d := 0; d < 4; d++ {
				req.OK = false
				if !c.Submit(req) {
					mu.Lock()
					rejected++
					mu.Unlock()
					continue
				}
				<-req.Done
				mu.Lock()
				accepted++
				if req.OK {
					served++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if uint64(rejected) != st.Rejected {
		t.Errorf("rejected: callers saw %d, stats say %d", rejected, st.Rejected)
	}
	if served != accepted {
		t.Errorf("%d accepted but only %d served", accepted, served)
	}
	if accepted == 0 {
		t.Error("nothing accepted — queue never drained")
	}
	doneStop := make(chan struct{})
	go func() {
		c.Stop()
		close(doneStop)
	}()
	select {
	case <-doneStop:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop deadlocked after saturation")
	}
}

// TestUnservableRequestsDecline submits requests the coordinator cannot
// plan for (tree-walk model: no compiled forests) and checks they are
// declined — OK=false, Done signalled, counted — rather than stranded
// or mis-served.
func TestUnservableRequestsDecline(t *testing.T) {
	m := trainedRF(t)
	space := hw.DefaultSpace()
	cs := kernel.NewBalanced("ba", 1).Counters()
	c := batch.New(batch.Config{Window: 50 * time.Microsecond})
	defer c.Stop()

	m.SetCompiled(false)
	defer m.SetCompiled(true)
	req := newRequest(m, space, cs)
	if !c.Submit(req) {
		t.Fatal("submit rejected")
	}
	select {
	case <-req.Done:
	case <-time.After(10 * time.Second):
		t.Fatal("declined request never signalled")
	}
	if req.OK {
		t.Fatal("unservable request reported OK")
	}
	if st := c.Stats(); st.Declined != 1 {
		t.Fatalf("declined = %d, want 1", st.Declined)
	}
}

// TestMixedSpacesGroupCorrectly fuses one epoch holding requests for
// two different spaces: the coordinator must split them into per-space
// groups, each bit-exact against its own direct sweep.
func TestMixedSpacesGroupCorrectly(t *testing.T) {
	m := trainedRF(t)
	big := hw.DefaultSpace()
	small := hw.Space{CPUs: big.CPUs[:1], NBs: big.NBs[:1], GPUs: big.GPUs, CUs: big.CUs}
	cs := kernel.NewPeak("pk", 1).Counters()
	c := batch.New(batch.Config{Window: 20 * time.Millisecond, MaxFuse: 8})
	defer c.Stop()

	reqs := []*predict.SweepRequest{
		newRequest(m, big, cs),
		newRequest(m, small, cs),
		newRequest(m, big, cs),
	}
	for i, req := range reqs {
		if !c.Submit(req) {
			t.Fatalf("submit %d rejected", i)
		}
	}
	for i, req := range reqs {
		select {
		case <-req.Done:
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d stranded", i)
		}
		if !req.OK {
			t.Fatalf("request %d declined", i)
		}
		want := make([]predict.Estimate, req.Space.Size())
		m.PredictSpace(cs, req.Space, want)
		for r := range want {
			if req.Dst[r] != want[r] {
				t.Fatalf("request %d row %d: %+v != %+v", i, r, req.Dst[r], want[r])
			}
		}
	}
}
