package serve

import (
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
