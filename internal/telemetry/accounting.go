package telemetry

import (
	"sort"
	"sync"

	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/obs"
)

// maxSessionAccounts bounds the per-session accounting map: a
// long-lived server churns through many short sessions (one per client
// replay), and accounting is a debug surface, not a billing system.
// When the bound is hit, the oldest session's row is evicted; its
// energy totals stay in the per-config buckets.
const maxSessionAccounts = 256

type sessionAcct struct {
	decisions    uint64
	observations uint64
	fallbacks    uint64
	predictedMJ  float64
	measuredMJ   float64
}

type energyAcct struct {
	observations uint64
	predictedMJ  float64
	measuredMJ   float64
}

// Accounting is the cumulative energy and decision ledger of a serving
// process, a pure sink of the served event stream (Sink). Safe for
// concurrent use from many sessions.
type Accounting struct {
	mu       sync.Mutex
	sessions map[string]*sessionAcct
	order    []string // session insertion order, for eviction
	configs  map[hw.Config]*energyAcct
	horizons map[int]uint64
}

// NewAccounting returns an empty ledger.
func NewAccounting() *Accounting {
	return &Accounting{
		sessions: map[string]*sessionAcct{},
		configs:  map[hw.Config]*energyAcct{},
		horizons: map[int]uint64{},
	}
}

// session returns (creating if needed) the row for id. Caller holds mu.
func (a *Accounting) session(id string) *sessionAcct {
	s, ok := a.sessions[id]
	if !ok {
		if len(a.sessions) >= maxSessionAccounts {
			oldest := a.order[0]
			a.order = a.order[1:]
			delete(a.sessions, oldest)
		}
		s = &sessionAcct{}
		a.sessions[id] = s
		a.order = append(a.order, id)
	}
	return s
}

// Sink returns the observer that books session sessionID's events into
// the ledger: each decision with its horizon, each fallback, and each
// model-error event as one observation whose predicted and measured
// GPU+NB energy (power × time, the domain the predictor models) land in
// the session's row and in the executed configuration's bucket.
func (a *Accounting) Sink(sessionID string) obs.Observer {
	return ledgerSink{a: a, id: sessionID}
}

type ledgerSink struct {
	obs.Nop
	a  *Accounting
	id string
}

// OnDecision implements obs.Observer.
func (l ledgerSink) OnDecision(e obs.DecisionEvent) {
	l.a.mu.Lock()
	l.a.session(l.id).decisions++
	l.a.horizons[e.Horizon]++
	l.a.mu.Unlock()
}

// OnFallback implements obs.Observer.
func (l ledgerSink) OnFallback(obs.FallbackEvent) {
	l.a.mu.Lock()
	l.a.session(l.id).fallbacks++
	l.a.mu.Unlock()
}

// OnModelError implements obs.Observer.
func (l ledgerSink) OnModelError(e obs.ModelErrorEvent) {
	predMJ := e.PredictedPowerW * e.PredictedTimeMS
	measMJ := e.MeasuredPowerW * e.MeasuredTimeMS
	l.a.mu.Lock()
	s := l.a.session(l.id)
	s.observations++
	s.predictedMJ += predMJ
	s.measuredMJ += measMJ
	c, ok := l.a.configs[e.Config]
	if !ok {
		c = &energyAcct{}
		l.a.configs[e.Config] = c
	}
	c.observations++
	c.predictedMJ += predMJ
	c.measuredMJ += measMJ
	l.a.mu.Unlock()
}

// SessionSummary is one session's ledger row.
type SessionSummary struct {
	SessionID         string  `json:"session_id"`
	Decisions         uint64  `json:"decisions"`
	Observations      uint64  `json:"observations"`
	Fallbacks         uint64  `json:"fallbacks"`
	PredictedEnergyMJ float64 `json:"predicted_energy_mj"`
	MeasuredEnergyMJ  float64 `json:"measured_energy_mj"`
}

// ConfigEnergy is one configuration bucket's energy ledger.
type ConfigEnergy struct {
	Config            string  `json:"config"`
	Observations      uint64  `json:"observations"`
	PredictedEnergyMJ float64 `json:"predicted_energy_mj"`
	MeasuredEnergyMJ  float64 `json:"measured_energy_mj"`
}

// Snapshot is the ledger at one instant.
type Snapshot struct {
	Sessions []SessionSummary `json:"sessions"`
	Configs  []ConfigEnergy   `json:"configs"`
	// Horizons histograms served horizon lengths (key = length).
	Horizons map[int]uint64 `json:"horizons"`
}

// Snapshot returns the ledger's current state, sessions and config
// buckets sorted by key.
func (a *Accounting) Snapshot() Snapshot {
	if a == nil {
		return Snapshot{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	snap := Snapshot{
		Sessions: make([]SessionSummary, 0, len(a.sessions)),
		Configs:  make([]ConfigEnergy, 0, len(a.configs)),
		Horizons: make(map[int]uint64, len(a.horizons)),
	}
	for _, id := range a.order {
		s := a.sessions[id]
		snap.Sessions = append(snap.Sessions, SessionSummary{
			SessionID:         id,
			Decisions:         s.decisions,
			Observations:      s.observations,
			Fallbacks:         s.fallbacks,
			PredictedEnergyMJ: s.predictedMJ,
			MeasuredEnergyMJ:  s.measuredMJ,
		})
	}
	sort.Slice(snap.Sessions, func(i, j int) bool {
		return snap.Sessions[i].SessionID < snap.Sessions[j].SessionID
	})
	keys := make([]hw.Config, 0, len(a.configs))
	for cfg := range a.configs {
		keys = append(keys, cfg)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, cfg := range keys {
		c := a.configs[cfg]
		snap.Configs = append(snap.Configs, ConfigEnergy{
			Config:            cfg.String(),
			Observations:      c.observations,
			PredictedEnergyMJ: c.predictedMJ,
			MeasuredEnergyMJ:  c.measuredMJ,
		})
	}
	for k, v := range a.horizons {
		snap.Horizons[k] = v
	}
	return snap
}
