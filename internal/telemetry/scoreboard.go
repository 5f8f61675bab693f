package telemetry

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/obs"
)

// minDriftSamples is the fewest window samples before a cell may be
// flagged as drifted: a couple of outliers at session start must not
// trip the gate a future continuous trainer promotes against.
const minDriftSamples = 8

// Baseline is a model generation's training-time error level, the
// reference drift detection compares rolling MAPE against. Values are
// fractions (0.08 = 8%).
type Baseline struct {
	TimeMAPE  float64 `json:"time_mape"`
	PowerMAPE float64 `json:"power_mape"`
}

// errWindow is a rolling window of signed relative errors with
// incrementally maintained sums, so Observe is O(1) and MAPE/bias are
// reads.
type errWindow struct {
	vals   []float64
	pos, n int
	sum    float64 // Σ signed error over the window
	sumAbs float64 // Σ |error| over the window
}

func (w *errWindow) push(v float64) {
	if w.n == len(w.vals) {
		old := w.vals[w.pos]
		w.sum -= old
		if old < 0 {
			w.sumAbs += old
		} else {
			w.sumAbs -= old
		}
	} else {
		w.n++
	}
	w.vals[w.pos] = v
	w.pos++
	if w.pos == len(w.vals) {
		w.pos = 0
	}
	w.sum += v
	if v < 0 {
		w.sumAbs -= v
	} else {
		w.sumAbs += v
	}
}

// mape returns the window's mean absolute relative error (fraction).
func (w *errWindow) mape() float64 {
	if w.n == 0 {
		return 0
	}
	return w.sumAbs / float64(w.n)
}

// bias returns the window's mean signed relative error (fraction;
// positive = over-prediction).
func (w *errWindow) bias() float64 {
	if w.n == 0 {
		return 0
	}
	return w.sum / float64(w.n)
}

type cellKey struct {
	gen uint64
	app string
}

type cell struct {
	count       uint64
	time, power errWindow
	wasDrifted  bool // last drift evaluation, for rising-edge hooks
}

// Scoreboard tracks per-(model generation, app) prediction quality
// from served Observe ground truth. Safe for concurrent use from many
// sessions.
type Scoreboard struct {
	window int
	factor float64

	mu      sync.Mutex
	cells   map[cellKey]*cell
	order   []cellKey
	base    map[uint64]Baseline
	onDrift func(gen uint64, app string)

	instr atomic.Pointer[scoreInstr]
}

type scoreInstr struct {
	observations *metrics.CounterVec
	timeMAPE     *metrics.GaugeVec
	powerMAPE    *metrics.GaugeVec
	timeBias     *metrics.GaugeVec
	drift        *metrics.GaugeVec
}

// NewScoreboard returns a scoreboard with the given positive rolling
// window per cell and drift factor (rolling MAPE > factor × baseline
// MAPE flags drift).
func NewScoreboard(window int, driftFactor float64) *Scoreboard {
	return &Scoreboard{
		window: window,
		factor: driftFactor,
		cells:  map[cellKey]*cell{},
		base:   map[uint64]Baseline{},
	}
}

// SetBaseline records generation gen's training-time MAPE levels
// (fractions). Drift detection for gen's cells compares against them.
func (b *Scoreboard) SetBaseline(gen uint64, timeMAPE, powerMAPE float64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.base[gen] = Baseline{TimeMAPE: timeMAPE, PowerMAPE: powerMAPE}
}

// SetDriftHook registers fn to be called on a cell's drift rising edge:
// the Observe that flips a (generation, app) cell from healthy to
// drifted, and only that one — a cell that stays drifted does not
// re-fire until it recovers first. The hook runs outside the scoreboard
// lock, on the observing session's goroutine, so it must be cheap and
// non-blocking (the continuous trainer's NotifyDrift is: it sets a flag
// and nudges a channel). Call before traffic; a nil fn clears the hook.
func (b *Scoreboard) SetDriftHook(fn func(gen uint64, app string)) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.onDrift = fn
}

// Instrument mirrors the scoreboard into reg as the mpcdvfs_model_*
// families, labelled by generation and app.
func (b *Scoreboard) Instrument(reg *metrics.Registry) {
	if b == nil {
		return
	}
	in := &scoreInstr{
		observations: reg.Counter("mpcdvfs_model_observations_total",
			"Ground-truth observations scored against a model generation.", "gen", "app"),
		timeMAPE: reg.Gauge("mpcdvfs_model_time_mape",
			"Rolling mean absolute relative time-prediction error (fraction).", "gen", "app"),
		powerMAPE: reg.Gauge("mpcdvfs_model_power_mape",
			"Rolling mean absolute relative power-prediction error (fraction).", "gen", "app"),
		timeBias: reg.Gauge("mpcdvfs_model_time_bias",
			"Rolling mean signed relative time-prediction error (positive = over-prediction).", "gen", "app"),
		drift: reg.Gauge("mpcdvfs_model_drift",
			"1 when the cell's rolling MAPE exceeds the drift factor times its generation's baseline.", "gen", "app"),
	}
	b.instr.Store(in)
}

// Observe scores one kernel's predicted-vs-measured outcome against
// generation gen for app. Non-positive measurements are skipped (no
// meaningful relative error exists).
func (b *Scoreboard) Observe(gen uint64, app string, predTimeMS, measTimeMS, predPowerW, measPowerW float64) {
	if b == nil || measTimeMS <= 0 || measPowerW <= 0 {
		return
	}
	te := (predTimeMS - measTimeMS) / measTimeMS
	pe := (predPowerW - measPowerW) / measPowerW

	key := cellKey{gen: gen, app: app}
	b.mu.Lock()
	c, ok := b.cells[key]
	if !ok {
		c = &cell{
			time:  errWindow{vals: make([]float64, b.window)},
			power: errWindow{vals: make([]float64, b.window)},
		}
		b.cells[key] = c
		b.order = append(b.order, key)
	}
	c.count++
	c.time.push(te)
	c.power.push(pe)
	tm, pm, tb := c.time.mape(), c.power.mape(), c.time.bias()
	drifted := b.driftedLocked(key.gen, c)
	rising := drifted && !c.wasDrifted
	c.wasDrifted = drifted
	hook := b.onDrift
	b.mu.Unlock()

	if rising && hook != nil {
		hook(gen, app)
	}
	if in := b.instr.Load(); in != nil {
		g := strconv.FormatUint(gen, 10)
		in.observations.With(g, app).Inc()
		in.timeMAPE.With(g, app).Set(tm)
		in.powerMAPE.With(g, app).Set(pm)
		in.timeBias.With(g, app).Set(tb)
		v := 0.0
		if drifted {
			v = 1
		}
		in.drift.With(g, app).Set(v)
	}
}

// Sink returns the observer that scores model-error events against
// generation gen, each in the cell of its event's app: the scoreboard
// reads the same estimate and measurement the prediction-error
// histogram does.
func (b *Scoreboard) Sink(gen uint64) obs.Observer {
	return scoreSink{b: b, gen: gen}
}

type scoreSink struct {
	obs.Nop
	b   *Scoreboard
	gen uint64
}

// OnModelError implements obs.Observer.
func (s scoreSink) OnModelError(e obs.ModelErrorEvent) {
	s.b.Observe(s.gen, e.App, e.PredictedTimeMS, e.MeasuredTimeMS, e.PredictedPowerW, e.MeasuredPowerW)
}

// driftedLocked evaluates the drift rule for one cell; a generation
// without a baseline never drifts. Caller holds mu.
func (b *Scoreboard) driftedLocked(gen uint64, c *cell) bool {
	base := b.base[gen]
	if c.time.n < minDriftSamples {
		return false
	}
	if base.TimeMAPE > 0 && c.time.mape() > b.factor*base.TimeMAPE {
		return true
	}
	if base.PowerMAPE > 0 && c.power.mape() > b.factor*base.PowerMAPE {
		return true
	}
	return false
}

// CellSnapshot is one (generation, app) row of the scoreboard.
type CellSnapshot struct {
	Gen          uint64  `json:"gen"`
	App          string  `json:"app"`
	Observations uint64  `json:"observations"`
	WindowFill   int     `json:"window_fill"` // samples currently in the rolling window
	TimeMAPE     float64 `json:"time_mape"`   // fraction
	PowerMAPE    float64 `json:"power_mape"`
	TimeBias     float64 `json:"time_bias"` // signed fraction
	PowerBias    float64 `json:"power_bias"`
	Drifted      bool    `json:"drifted"`
	// Baseline is the training-time reference drift compares against
	// (zero when none is configured for the generation).
	Baseline Baseline `json:"baseline"`
}

// Snapshot returns every cell, sorted by generation then app.
func (b *Scoreboard) Snapshot() []CellSnapshot {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]CellSnapshot, 0, len(b.order))
	for _, key := range b.order {
		c := b.cells[key]
		out = append(out, CellSnapshot{
			Gen:          key.gen,
			App:          key.app,
			Observations: c.count,
			WindowFill:   c.time.n,
			TimeMAPE:     c.time.mape(),
			PowerMAPE:    c.power.mape(),
			TimeBias:     c.time.bias(),
			PowerBias:    c.power.bias(),
			Drifted:      b.driftedLocked(key.gen, c),
			Baseline:     b.base[key.gen],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Gen != out[j].Gen {
			return out[i].Gen < out[j].Gen
		}
		return out[i].App < out[j].App
	})
	return out
}
