package serve

import (
	"math"
	"testing"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
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
