// Package hw models the software-visible DVFS hardware of the AMD
// A10-7850K APU studied in the paper (Table I): CPU P-states, northbridge
// (NB) states, GPU DPM states, and the number of active GPU compute units
// (CUs). It defines the hardware configuration type, the searchable
// configuration space, and the electrical coupling rules the paper relies
// on (the GPU and NB share a voltage rail; NB states pin memory bus
// frequency).
package hw

import "fmt"

// CPUPState is a CPU performance state. P1 is the fastest (3.9 GHz,
// 1.325 V) and P7 the slowest (1.7 GHz, 0.8875 V), exactly as in Table I
// of the paper. The zero value is P1.
type CPUPState int8

// CPU P-states from Table I.
const (
	P1 CPUPState = iota
	P2
	P3
	P4
	P5
	P6
	P7
	NumCPUStates = 7
)

// cpuTable holds (voltage V, frequency GHz) per P-state, from Table I.
var cpuTable = [NumCPUStates]struct{ volt, freq float64 }{
	{1.3250, 3.9}, // P1
	{1.3125, 3.8}, // P2
	{1.2625, 3.7}, // P3
	{1.2250, 3.5}, // P4
	{1.0625, 3.0}, // P5
	{0.9750, 2.4}, // P6
	{0.8875, 1.7}, // P7
}

// Voltage returns the CPU core voltage in volts.
func (p CPUPState) Voltage() float64 { return cpuTable[p].volt }

// FreqGHz returns the CPU core frequency in GHz.
func (p CPUPState) FreqGHz() float64 { return cpuTable[p].freq }

// Valid reports whether p is one of the seven Table I states.
func (p CPUPState) Valid() bool { return p >= P1 && p <= P7 }

func (p CPUPState) String() string {
	if !p.Valid() {
		return fmt.Sprintf("P?(%d)", int8(p))
	}
	return fmt.Sprintf("P%d", int(p)+1)
}

// NBState is a northbridge DVFS state. NB0 is the fastest. Each NB state
// maps to a fixed memory bus frequency (Table I); NB0–NB2 share the same
// 800 MHz DRAM clock, which is why memory-bound kernel performance
// saturates from NB2 onward (paper §II-C).
type NBState int8

// NB states from Table I.
const (
	NB0 NBState = iota
	NB1
	NB2
	NB3
	NumNBStates = 4
)

// nbTable holds (NB frequency GHz, memory frequency MHz) from Table I,
// plus the minimum rail voltage the NB state demands. The paper does not
// publish NB voltages; these follow the same descending curve as the GPU
// DPM voltages so that high NB states prevent lowering the shared rail,
// the coupling effect described in §II-A.
var nbTable = [NumNBStates]struct {
	freq    float64 // GHz
	memMHz  float64
	minVolt float64
}{
	{1.8, 800, 1.1875}, // NB0
	{1.6, 800, 1.1250}, // NB1
	{1.4, 800, 1.0500}, // NB2
	{1.1, 333, 0.9500}, // NB3
}

// FreqGHz returns the northbridge frequency in GHz.
func (n NBState) FreqGHz() float64 { return nbTable[n].freq }

// MemFreqMHz returns the memory bus frequency in MHz.
func (n NBState) MemFreqMHz() float64 { return nbTable[n].memMHz }

// MemBWGBs returns the peak DRAM bandwidth in GB/s: dual-channel 128-bit
// DDR3 at the state's memory clock (800 MHz -> 25.6 GB/s; 333 MHz ->
// 10.656 GB/s).
func (n NBState) MemBWGBs() float64 { return nbTable[n].memMHz * 1e6 * 16 * 2 / 1e9 }

// MinVoltage returns the minimum shared-rail voltage this NB state
// requires.
func (n NBState) MinVoltage() float64 { return nbTable[n].minVolt }

// Valid reports whether n is one of the four Table I states.
func (n NBState) Valid() bool { return n >= NB0 && n <= NB3 }

func (n NBState) String() string {
	if !n.Valid() {
		return fmt.Sprintf("NB?(%d)", int8(n))
	}
	return fmt.Sprintf("NB%d", int(n))
}

// GPUState is a GPU DPM (dynamic power management) state. DPM0 is the
// slowest (351 MHz, 0.95 V) and DPM4 the fastest (720 MHz, 1.225 V), as in
// Table I.
type GPUState int8

// GPU DPM states from Table I.
const (
	DPM0 GPUState = iota
	DPM1
	DPM2
	DPM3
	DPM4
	NumGPUStates = 5
)

// gpuTable holds (voltage V, frequency MHz) per DPM state, from Table I.
var gpuTable = [NumGPUStates]struct{ volt, freq float64 }{
	{0.9500, 351}, // DPM0
	{1.0500, 450}, // DPM1
	{1.1250, 553}, // DPM2
	{1.1875, 654}, // DPM3
	{1.2250, 720}, // DPM4
}

// Voltage returns the minimum rail voltage the GPU state requires.
func (g GPUState) Voltage() float64 { return gpuTable[g].volt }

// FreqMHz returns the GPU core frequency in MHz.
func (g GPUState) FreqMHz() float64 { return gpuTable[g].freq }

// FreqGHz returns the GPU core frequency in GHz.
func (g GPUState) FreqGHz() float64 { return gpuTable[g].freq / 1000 }

// Valid reports whether g is one of the five Table I states.
func (g GPUState) Valid() bool { return g >= DPM0 && g <= DPM4 }

func (g GPUState) String() string {
	if !g.Valid() {
		return fmt.Sprintf("DPM?(%d)", int8(g))
	}
	return fmt.Sprintf("DPM%d", int(g))
}

// MinCUs and MaxCUs bound the number of active GPU compute units. The
// paper varies CUs from 2 to 8 in steps of 2.
const (
	MinCUs  = 2
	MaxCUs  = 8
	CUStep  = 2
	NumCUs  = 4
	TDPWatt = 95 // A10-7850K thermal design power
)

// Config is one hardware configuration: the tuple the optimizer picks for
// every kernel invocation.
type Config struct {
	CPU CPUPState
	NB  NBState
	GPU GPUState
	CUs int8
}

// Valid reports whether every field holds a legal Table I value.
func (c Config) Valid() bool {
	return c.CPU.Valid() && c.NB.Valid() && c.GPU.Valid() &&
		c.CUs >= MinCUs && c.CUs <= MaxCUs && c.CUs%CUStep == 0
}

// RailVoltage returns the voltage of the shared GPU/NB rail: the maximum
// of what the GPU DPM state and the NB state each demand. A high NB state
// can therefore prevent the GPU voltage from dropping with its frequency
// (paper §II-A), and vice versa.
func (c Config) RailVoltage() float64 {
	v := c.GPU.Voltage()
	if nv := c.NB.MinVoltage(); nv > v {
		v = nv
	}
	return v
}

func (c Config) String() string {
	return fmt.Sprintf("[%s, %s, %s, %d CUs]", c.CPU, c.NB, c.GPU, c.CUs)
}

// FailSafe is the empirically determined fail-safe configuration the
// paper's optimizer falls back to when it cannot meet the performance
// target: [P7, NB2, DPM4, 8 CUs].
func FailSafe() Config { return Config{CPU: P7, NB: NB2, GPU: DPM4, CUs: MaxCUs} }

// MaxPerf is the highest-throughput configuration for a GPU kernel:
// fastest GPU and NB, all CUs, fastest CPU.
func MaxPerf() Config { return Config{CPU: P1, NB: NB0, GPU: DPM4, CUs: MaxCUs} }

// Space is an enumerable set of hardware configurations: the Cartesian
// product of per-knob state lists (the set S of Eq. 1).
type Space struct {
	CPUs []CPUPState
	NBs  []NBState
	GPUs []GPUState
	CUs  []int8
}

// DefaultSpace returns the 336-configuration space the paper captured on
// hardware: all 7 CPU P-states × 4 NB states × 3 of the 5 GPU DPM states
// (DPM0, DPM2, DPM4) × CUs {2,4,6,8}.
func DefaultSpace() Space {
	return Space{
		CPUs: []CPUPState{P1, P2, P3, P4, P5, P6, P7},
		NBs:  []NBState{NB0, NB1, NB2, NB3},
		GPUs: []GPUState{DPM0, DPM2, DPM4},
		CUs:  []int8{2, 4, 6, 8},
	}
}

// FullSpace returns the complete 560-configuration space with all five
// GPU DPM states.
func FullSpace() Space {
	s := DefaultSpace()
	s.GPUs = []GPUState{DPM0, DPM1, DPM2, DPM3, DPM4}
	return s
}

// Size returns the number of configurations in the space.
func (s Space) Size() int { return len(s.CPUs) * len(s.NBs) * len(s.GPUs) * len(s.CUs) }

// Equal reports whether the two spaces enumerate exactly the same
// configurations in the same At order (identical per-knob state lists,
// element for element). Callers that precompute per-configuration state
// — e.g. the batched predictor's sweep plan — use this to detect when a
// cached layout can be reused.
func (s Space) Equal(o Space) bool {
	if len(s.CPUs) != len(o.CPUs) || len(s.NBs) != len(o.NBs) ||
		len(s.GPUs) != len(o.GPUs) || len(s.CUs) != len(o.CUs) {
		return false
	}
	for i, v := range s.CPUs {
		if o.CPUs[i] != v {
			return false
		}
	}
	for i, v := range s.NBs {
		if o.NBs[i] != v {
			return false
		}
	}
	for i, v := range s.GPUs {
		if o.GPUs[i] != v {
			return false
		}
	}
	for i, v := range s.CUs {
		if o.CUs[i] != v {
			return false
		}
	}
	return true
}

// KnobStates returns the per-knob cardinalities |cpu|, |nb|, |gpu|, |cu|.
// Their sum is the per-kernel evaluation cost of greedy hill climbing; the
// product is the cost of an exhaustive sweep (paper §IV-A1).
func (s Space) KnobStates() (cpu, nb, gpu, cu int) {
	return len(s.CPUs), len(s.NBs), len(s.GPUs), len(s.CUs)
}

// At returns the i-th configuration in row-major (CPU, NB, GPU, CU) order.
// It panics if i is out of range.
func (s Space) At(i int) Config {
	if i < 0 || i >= s.Size() {
		panic(fmt.Sprintf("hw: Space.At(%d) out of range [0,%d)", i, s.Size()))
	}
	nc := len(s.CUs)
	ng := len(s.GPUs)
	nn := len(s.NBs)
	cu := s.CUs[i%nc]
	i /= nc
	g := s.GPUs[i%ng]
	i /= ng
	n := s.NBs[i%nn]
	i /= nn
	return Config{CPU: s.CPUs[i], NB: n, GPU: g, CUs: cu}
}

// Index returns the position of c in the space's At ordering, or -1 if c
// is not in the space.
func (s Space) Index(c Config) int {
	ci := indexCPU(s.CPUs, c.CPU)
	ni := indexNB(s.NBs, c.NB)
	gi := indexGPU(s.GPUs, c.GPU)
	ui := indexCU(s.CUs, c.CUs)
	if ci < 0 || ni < 0 || gi < 0 || ui < 0 {
		return -1
	}
	return ((ci*len(s.NBs)+ni)*len(s.GPUs)+gi)*len(s.CUs) + ui
}

// Contains reports whether c is a member of the space.
func (s Space) Contains(c Config) bool { return s.Index(c) >= 0 }

// ForEach calls fn for every configuration in At order.
func (s Space) ForEach(fn func(Config)) {
	for _, p := range s.CPUs {
		for _, n := range s.NBs {
			for _, g := range s.GPUs {
				for _, cu := range s.CUs {
					fn(Config{CPU: p, NB: n, GPU: g, CUs: cu})
				}
			}
		}
	}
}

// Configs returns all configurations in At order as a slice.
func (s Space) Configs() []Config {
	out := make([]Config, 0, s.Size())
	s.ForEach(func(c Config) { out = append(out, c) })
	return out
}

func indexCPU(xs []CPUPState, x CPUPState) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func indexNB(xs []NBState, x NBState) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func indexGPU(xs []GPUState, x GPUState) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func indexCU(xs []int8, x int8) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
