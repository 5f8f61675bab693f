package serve

import (
	"fmt"
	"math"
	"strconv"

	"mpcdvfs/internal/counters"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/sim"
)

// Wire types of the /v1 JSON API. Numbers ride as JSON floats:
// encoding/json emits the shortest representation that parses back to
// the identical float64, so a value survives the client→server→client
// round trip bit-for-bit — which is what lets a served session replay
// byte-identically to an in-process one (calibration feedback sees the
// exact measurements, not approximations).

// TargetWire is sim.Target on the wire.
type TargetWire struct {
	TotalInsts  float64 `json:"total_insts"`
	TotalTimeMS float64 `json:"total_time_ms"`
}

// SessionRequest opens a session: one client application's decision
// stream, with the run metadata a policy's Begin needs.
type SessionRequest struct {
	App        string     `json:"app"`
	NumKernels int        `json:"num_kernels"`
	Target     TargetWire `json:"target"`
	FirstRun   bool       `json:"first_run"`
}

// SessionResponse returns the server-assigned session id, the policy
// that will serve it, and the model snapshot generation it is pinned to.
type SessionResponse struct {
	SessionID   string `json:"session_id"`
	Policy      string `json:"policy"`
	SnapshotGen uint64 `json:"snapshot_gen"`
}

// ConfigWire is hw.Config on the wire.
type ConfigWire struct {
	CPU int8 `json:"cpu"`
	NB  int8 `json:"nb"`
	GPU int8 `json:"gpu"`
	CUs int8 `json:"cus"`
}

func toConfigWire(c hw.Config) ConfigWire {
	return ConfigWire{CPU: int8(c.CPU), NB: int8(c.NB), GPU: int8(c.GPU), CUs: c.CUs}
}

func (w ConfigWire) config() hw.Config {
	return hw.Config{CPU: hw.CPUPState(w.CPU), NB: hw.NBState(w.NB), GPU: hw.GPUState(w.GPU), CUs: w.CUs}
}

// EstimateWire is the predictor's estimate for the chosen
// configuration.
type EstimateWire struct {
	TimeMS    Float `json:"time_ms"`
	GPUPowerW Float `json:"gpu_power_w"`
}

// finite reports whether both values fit a JSON number (NaN fails the
// comparison).
func (e EstimateWire) finite() bool {
	return math.Abs(float64(e.TimeMS)) <= math.MaxFloat64 && math.Abs(float64(e.GPUPowerW)) <= math.MaxFloat64
}

// Float is an estimate value on the wire. encoding/json writes a finite
// one as a JSON number, so a reply whose estimate is finite keeps the
// bytes it always had. A JSON number cannot hold NaN or ±Inf, which the
// model can predict — a kernel whose counters overflow its work volume
// is priced at +Inf — so a reply whose estimate holds one writes both
// values as strings strconv.FormatFloat makes ("+Inf", "NaN", "41.25";
// DESIGN §11). UnmarshalJSON reads either form.
type Float float64

// UnmarshalJSON implements json.Unmarshaler: a JSON number, or a string
// strconv.ParseFloat reads. A null leaves f as it is, as it leaves a
// float64.
func (f *Float) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	if n := len(b); n >= 2 && b[0] == '"' && b[n-1] == '"' {
		b = b[1 : n-1]
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("estimate value %s: %w", b, err)
	}
	*f = Float(v)
	return nil
}

// estimateText is EstimateWire with both values as strings.
type estimateText struct {
	TimeMS    string `json:"time_ms"`
	GPUPowerW string `json:"gpu_power_w"`
}

// DecideRequest asks for the configuration decision of kernel
// invocation Index (0-based) in the session's run.
type DecideRequest struct {
	SessionID string `json:"session_id"`
	Index     int    `json:"index"`
}

// DecideResponse carries the policy's decision plus its observability
// metadata — everything sim.Decision holds, so a remote client can
// stand in for the policy in a sim.Engine run.
type DecideResponse struct {
	Config      ConfigWire   `json:"config"`
	Est         EstimateWire `json:"est"`
	Evals       int          `json:"evals"`
	SearchIters int          `json:"search_iters"`
	Horizon     int          `json:"horizon"`
	Fallback    string       `json:"fallback,omitempty"`
	SnapshotGen uint64       `json:"snapshot_gen"`
}

func toDecideResponse(d sim.Decision, gen uint64) DecideResponse {
	return DecideResponse{
		Config:      toConfigWire(d.Config),
		Est:         EstimateWire{TimeMS: Float(d.PredTimeMS), GPUPowerW: Float(d.PredGPUPowerW)},
		Evals:       d.Evals,
		SearchIters: d.SearchIters,
		Horizon:     d.Horizon,
		Fallback:    d.Fallback,
		SnapshotGen: gen,
	}
}

func (r DecideResponse) decision() sim.Decision {
	return sim.Decision{
		Config:        r.Config.config(),
		Evals:         r.Evals,
		SearchIters:   r.SearchIters,
		Horizon:       r.Horizon,
		Fallback:      r.Fallback,
		PredTimeMS:    float64(r.Est.TimeMS),
		PredGPUPowerW: float64(r.Est.GPUPowerW),
	}
}

// wire returns r as it goes on the wire: r itself when its estimate is
// finite, and otherwise r with the estimate's values as strings (see
// Float), which its Est field shadows.
func (r DecideResponse) wire() any {
	if r.Est.finite() {
		return r
	}
	text := func(v Float) string { return strconv.FormatFloat(float64(v), 'g', -1, 64) }
	return struct {
		DecideResponse
		Est estimateText `json:"est"`
	}{r, estimateText{TimeMS: text(r.Est.TimeMS), GPUPowerW: text(r.Est.GPUPowerW)}}
}

// ObservationWire is sim.Observation on the wire — the measured outcome
// the client feeds back after running a kernel at the decided
// configuration.
type ObservationWire struct {
	Index      int        `json:"index"`
	Counters   []float64  `json:"counters"`
	Insts      float64    `json:"insts"`
	TimeMS     float64    `json:"time_ms"`
	GPUPowerW  float64    `json:"gpu_power_w"`
	CPUPowerW  float64    `json:"cpu_power_w"`
	Config     ConfigWire `json:"config"`
	OverheadMS float64    `json:"overhead_ms"`
	TempC      float64    `json:"temp_c"`
}

func toObservationWire(o sim.Observation) ObservationWire {
	return ObservationWire{
		Index:      o.Index,
		Counters:   append([]float64(nil), o.Counters[:]...),
		Insts:      o.Insts,
		TimeMS:     o.TimeMS,
		GPUPowerW:  o.GPUPowerW,
		CPUPowerW:  o.CPUPowerW,
		Config:     toConfigWire(o.Config),
		OverheadMS: o.OverheadMS,
		TempC:      o.TempC,
	}
}

// check reports why the observation cannot reach a policy, or nil when
// it can: it must carry exactly the counters.NumCounters Table III
// counters; every counter and the instruction count, time, powers and
// overhead must be finite and non-negative; and its configuration must
// lie inside the hw tables (the policy's feedback evaluates the model
// at that configuration). The index is checked against the session by
// the handler. It allocates nothing on a valid observation.
func (w ObservationWire) check() error {
	if len(w.Counters) != counters.NumCounters {
		return fmt.Errorf("observation carries %d counters, want %d", len(w.Counters), counters.NumCounters)
	}
	for i, v := range w.Counters {
		if !measurement(v) {
			return fmt.Errorf("counter %s is %v, want a finite non-negative value", counters.Names[i], v)
		}
	}
	for i, v := range [...]float64{w.Insts, w.TimeMS, w.GPUPowerW, w.CPUPowerW, w.OverheadMS} {
		if !measurement(v) {
			return fmt.Errorf("%s is %v, want a finite non-negative value", measuredFields[i], v)
		}
	}
	if !w.Config.config().Valid() {
		return fmt.Errorf("observation config %+v lies outside the hardware tables", w.Config)
	}
	return nil
}

// measuredFields names check's measurements in its order.
var measuredFields = [...]string{"insts", "time_ms", "gpu_power_w", "cpu_power_w", "overhead_ms"}

// measurement reports whether v can be a measured quantity: finite and
// non-negative (NaN fails the comparison).
func measurement(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

func (w ObservationWire) observation() sim.Observation {
	var cs counters.Set
	copy(cs[:], w.Counters)
	return sim.Observation{
		Index:      w.Index,
		Counters:   cs,
		Insts:      w.Insts,
		TimeMS:     w.TimeMS,
		GPUPowerW:  w.GPUPowerW,
		CPUPowerW:  w.CPUPowerW,
		Config:     w.Config.config(),
		OverheadMS: w.OverheadMS,
		TempC:      w.TempC,
	}
}

// ObserveRequest feeds one observation into the session's policy.
type ObserveRequest struct {
	SessionID   string          `json:"session_id"`
	Observation ObservationWire `json:"observation"`
}

// CloseRequest drains and closes a session.
type CloseRequest struct {
	SessionID string `json:"session_id"`
}

// ReloadRequest swaps the serving model for the one Config.Train
// builds. Path is refused: a body that names one gets 400 and the
// serving generation does not change.
type ReloadRequest struct {
	Path string `json:"path,omitempty"`
}

// ReloadResponse reports the newly installed snapshot.
type ReloadResponse struct {
	SnapshotGen uint64 `json:"snapshot_gen"`
	Model       string `json:"model"`
}

// OKResponse is the generic acknowledgement body.
type OKResponse struct {
	OK bool `json:"ok"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}
