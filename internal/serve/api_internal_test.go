package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/sim"
)

// TestObservationCheckZeroAlloc pins the observe handler's input check
// at zero allocations on a valid observation: the guard costs a served
// request nothing.
func TestObservationCheckZeroAlloc(t *testing.T) {
	o := ObservationWire{Counters: make([]float64, counters.NumCounters), Config: toConfigWire(hw.FailSafe())}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := o.check(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("check allocates %v times on a valid observation, want 0", allocs)
	}
}

// TestObservationCheckRejectsNonFinite covers the values JSON cannot
// carry but a Go caller of check can: NaN and ±Inf in a counter or a
// measurement are rejected like negative ones.
func TestObservationCheckRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, edit := range []func(*ObservationWire){
			func(o *ObservationWire) { o.Counters[0] = v },
			func(o *ObservationWire) { o.Insts = v },
			func(o *ObservationWire) { o.TimeMS = v },
			func(o *ObservationWire) { o.GPUPowerW = v },
			func(o *ObservationWire) { o.CPUPowerW = v },
			func(o *ObservationWire) { o.OverheadMS = v },
		} {
			o := ObservationWire{Counters: make([]float64, counters.NumCounters), Config: toConfigWire(hw.FailSafe())}
			edit(&o)
			if o.check() == nil {
				t.Fatalf("check accepted %+v", o)
			}
		}
	}
}

// TestDecideReplyWireForm pins the decide reply's two forms. A finite
// estimate encodes to the bytes a reply with plain float64 estimate
// fields always had; an estimate holding NaN or ±Inf in either value —
// which a JSON number cannot — encodes as strings, and both forms
// decode to the decision's values, bit for bit where finite.
func TestDecideReplyWireForm(t *testing.T) {
	type plainEstimate struct {
		TimeMS    float64 `json:"time_ms"`
		GPUPowerW float64 `json:"gpu_power_w"`
	}
	type plainReply struct {
		Config      ConfigWire    `json:"config"`
		Est         plainEstimate `json:"est"`
		Evals       int           `json:"evals"`
		SearchIters int           `json:"search_iters"`
		Horizon     int           `json:"horizon"`
		Fallback    string        `json:"fallback,omitempty"`
		SnapshotGen uint64        `json:"snapshot_gen"`
	}
	vals := []float64{0, 1e-7, 3.141592653589793, 41.25, 1e21, 1e308, math.MaxFloat64, 5e-324, math.Copysign(0, -1)}
	for _, tm := range vals {
		for _, p := range vals[:4] {
			d := sim.Decision{Config: hw.FailSafe(), Evals: 17, SearchIters: 3, Horizon: 5, PredTimeMS: tm, PredGPUPowerW: p}
			got, err := json.Marshal(toDecideResponse(d, 2).wire())
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(plainReply{Config: toConfigWire(d.Config), Est: plainEstimate{tm, p}, Evals: 17, SearchIters: 3, Horizon: 5, SnapshotGen: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("finite estimate (%v, %v): reply %s, plain float64 fields %s", tm, p, got, want)
			}
		}
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, tm := range append(special, 2.5, 1e-9) {
		for _, p := range append(special, 30.125) {
			d := sim.Decision{Config: hw.FailSafe(), PredTimeMS: tm, PredGPUPowerW: p}
			b, err := json.Marshal(toDecideResponse(d, 1).wire())
			if err != nil {
				t.Fatalf("estimate (%v, %v): %v", tm, p, err)
			}
			var r DecideResponse
			if err := json.Unmarshal(b, &r); err != nil {
				t.Fatalf("estimate (%v, %v): reply %s does not decode: %v", tm, p, b, err)
			}
			back := r.decision()
			same := func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
			}
			if !same(back.PredTimeMS, tm) || !same(back.PredGPUPowerW, p) {
				t.Fatalf("estimate (%v, %v): reply %s decodes to (%v, %v)", tm, p, b, back.PredTimeMS, back.PredGPUPowerW)
			}
			if back.Config != d.Config {
				t.Fatalf("reply %s decodes to config %v, want %v", b, back.Config, d.Config)
			}
		}
	}
}
