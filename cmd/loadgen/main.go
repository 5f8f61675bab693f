// Command loadgen is the closed-loop load harness for the mpcserve
// decision API. It drives N concurrent sessions, each a full simulator
// replay (sim.Engine) whose policy is a serve.Client, so every decision
// round-trips the wire exactly as a real client application's would:
// decide kernel i, run it, observe the outcome, decide kernel i+1.
//
// Closed-loop means each session has at most one request in flight —
// offered load scales with session count, not with an open-loop arrival
// rate, which keeps the measured latencies honest under backpressure
// (429 retry waits are counted as client-visible latency).
//
// By default loadgen self-hosts an in-process server (training the
// Random Forest once) so the whole measurement is one command; point
// -addr at a running mpcserve to measure over real sockets instead.
//
// Usage:
//
//	loadgen                              # self-host, levels 1,2,4,8
//	loadgen -levels 2 -replays 1         # quick smoke
//	loadgen -addr http://localhost:9090  # against a live mpcserve
//	loadgen -out BENCH_serve.json        # write the report
//	loadgen -drift                       # degrade the model after the
//	                                     # first level and report the
//	                                     # learning loop's recovery
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mpcdvfs"
	"mpcdvfs/internal/cli"
	"mpcdvfs/internal/learn"
	"mpcdvfs/internal/par"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/telemetry"
)

// phaseStat is one span name's aggregate over a concurrency level —
// where the server actually spent a decision's wall time.
type phaseStat struct {
	Count   int     `json:"count"`
	AvgUS   float64 `json:"avg_us"`
	TotalMS float64 `json:"total_ms"`
}

// levelReport is one concurrency level's measurement.
type levelReport struct {
	Sessions      int                  `json:"sessions"`
	Replays       int                  `json:"replays_per_session"`
	Decisions     int                  `json:"decisions"`
	WallS         float64              `json:"wall_s"`
	ThroughputDPS float64              `json:"throughput_decisions_per_s"`
	P50MS         float64              `json:"p50_ms"`
	P99MS         float64              `json:"p99_ms"`
	P999MS        float64              `json:"p999_ms"`
	Retries429    int                  `json:"retries_429"`
	SnapshotGen   uint64               `json:"snapshot_gen,omitempty"` // -drift only: generation serving new sessions at level end
	Phases        map[string]phaseStat `json:"phase_breakdown,omitempty"`
}

// cpuSweepEntry is one GOMAXPROCS setting's full session-level sweep:
// the scaling curve is read across entries at a fixed session count.
// SpeedupVs1 is the throughput of this entry's highest session level
// over the 1-core entry's (present only when the sweep includes 1).
type cpuSweepEntry struct {
	GOMAXPROCS int           `json:"gomaxprocs"`
	Levels     []levelReport `json:"levels"`
	SpeedupVs1 float64       `json:"throughput_speedup_vs_1core,omitempty"`
}

// report is the BENCH_serve.json schema.
type report struct {
	App        string          `json:"app"`
	Policy     string          `json:"policy"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"num_cpu"`
	SelfHosted bool            `json:"self_hosted"`
	DriftMode  bool            `json:"drift_mode,omitempty"`
	ZipfS      float64         `json:"zipf_s,omitempty"`  // -zipf: skew exponent of the app-popularity draw
	AppMix     map[string]int  `json:"app_mix,omitempty"` // -zipf: sessions assigned per app across the run
	Note       string          `json:"note"`
	Levels     []levelReport   `json:"levels"`
	CPUSweep   []cpuSweepEntry `json:"cpu_sweep,omitempty"` // -cpus sweep: one entry per GOMAXPROCS setting
	Learn      *learn.Status   `json:"learn,omitempty"`     // -drift only: trainer state after the sweep
}

// options carries the parsed flags.
type options struct {
	addr        string
	appName     string
	levelsFlag  string
	cpusFlag    string
	replays     int
	polName     string
	polSet      bool // -policy was given on the command line
	seed        int64
	traceSample int
	drift       bool
	zipfS       float64
	out         string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "", "base URL of a running mpcserve (empty: self-host an in-process server)")
	flag.StringVar(&o.appName, "app", "Spmv", "benchmark application each session replays (ignored under -zipf)")
	flag.StringVar(&o.levelsFlag, "levels", "1,2,4,8", "comma-separated concurrent session counts to sweep")
	flag.IntVar(&o.replays, "replays", 2, "replays per session at each level (each replay is one full session)")
	flag.StringVar(&o.polName, "policy", "mpc", "self-host policy: ppk | mpc (with -addr: the policy the server must serve)")
	flag.Int64Var(&o.seed, "seed", 1, "self-host Random Forest training seed (also seeds the -zipf app draw)")
	flag.IntVar(&o.traceSample, "trace-sample", 0, "trace 1 in N decisions as spans and report per-phase latency breakdowns from /debug/trace (0 = off; tracing never changes decisions)")
	flag.BoolVar(&o.drift, "drift", false, "self-host only: swap in a model with 80% injected error after the first level, run the continuous trainer, and report the learning loop's recovery")
	flag.Float64Var(&o.zipfS, "zipf", 0, "Zipf-skew the per-session app draw over the whole benchmark suite with this exponent (> 1; 0 = every session replays -app); seeded and deterministic, recorded in the report header")
	flag.StringVar(&o.cpusFlag, "cpus", "auto", "comma-separated GOMAXPROCS settings to sweep the whole run across (\"auto\": 1,2,4,8 capped at NumCPU; the top-level levels are recorded at the highest setting)")
	flag.StringVar(&o.out, "out", "", "write the JSON report to this file (default: stdout summary only)")
	logLevel := flag.String("log-level", "warn", "log level: debug | info | warn | error")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) { o.polSet = o.polSet || f.Name == "policy" })

	if err := cli.InitLogging(*logLevel); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		slog.Error("loadgen failed", "err", err)
		os.Exit(1)
	}
}

// sessApp is one session's assigned workload: the app it replays and
// the Turbo Core baseline target its tracker holds to.
type sessApp struct {
	app    *mpcdvfs.App
	target mpcdvfs.Target
}

func run(o options) error {
	levels, err := parseLevels(o.levelsFlag)
	if err != nil {
		return err
	}
	cpus, err := parseCPUs(o.cpusFlag)
	if err != nil {
		return err
	}
	if o.drift && len(cpus) > 1 {
		return fmt.Errorf("-drift sweeps one GOMAXPROCS setting only (its levels are a before/after story, not a scaling curve); pass -cpus with a single value")
	}
	if o.drift && o.zipfS != 0 {
		return fmt.Errorf("-zipf and -drift don't compose: the drift scoreboard baseline is anchored on one app's error")
	}
	if o.zipfS != 0 && o.zipfS <= 1 {
		return fmt.Errorf("-zipf wants an exponent > 1 (got %g)", o.zipfS)
	}

	// The harness needs a local simulator either way: self-hosting shares
	// it with the server's policies, and every session's closed loop runs
	// kernels through it.
	sys := mpcdvfs.NewSystem()

	// Workload catalogue: uniform mode pins every session to -app; Zipf
	// mode draws each session's app from the full suite with skewed
	// popularity. Baselines are computed once per distinct app.
	catalog, mix, err := buildCatalog(sys, o)
	if err != nil {
		return err
	}

	base := o.addr
	selfHosted := o.addr == ""
	if o.drift && !selfHosted {
		return fmt.Errorf("-drift needs the self-hosted server (it degrades the in-process model)")
	}
	policy := o.polName
	if !selfHosted {
		// The report names the policy the server serves, which only a
		// session reveals; a -policy the server does not serve is an
		// error before any level runs.
		if policy, err = serverPolicy(base, catalog); err != nil {
			return err
		}
		if o.polSet && o.polName != policy {
			return fmt.Errorf("-policy %s, but the server at %s serves %s", o.polName, base, policy)
		}
	}
	var h *hosted
	if selfHosted {
		h, err = selfHost(sys, o)
		if err != nil {
			return err
		}
		defer func() {
			if h.trainer != nil {
				h.trainer.Stop()
			}
			h.decider.Shutdown()
			h.ts.Close()
		}()
		base = h.ts.URL
		fmt.Printf("self-hosted decision server at %s (policy %s)\n", base, o.polName)
	}

	rep := report{
		App:        o.appName,
		Policy:     policy,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		SelfHosted: selfHosted,
		DriftMode:  o.drift,
		ZipfS:      o.zipfS,
		AppMix:     mix,
		Note: "closed-loop: one in-flight decision per session; latencies include 429 retry waits. " +
			"Throughput scaling with session count requires spare cores — on a single-CPU host the " +
			"sessions time-share one core and aggregate throughput stays flat by construction. " +
			"cpu_sweep (when present) re-runs the whole grid at each GOMAXPROCS setting; read the " +
			"scaling curve across entries at a fixed session count.",
	}
	if o.zipfS != 0 {
		rep.App = "zipf-mix"
	}

	// runAt draws one concurrency level's workload, runs it and, under
	// -trace-sample, attaches the phase breakdown of the spans the level
	// added to the ring. The span-ID watermark carries across
	// GOMAXPROCS settings, so no level's breakdown mixes in another's.
	var lastSpanID uint64
	runAt := func(n int) (levelReport, error) {
		assign, err := catalog.assign(n, o)
		if err != nil {
			return levelReport{}, err
		}
		lr, err := runLevel(sys, assign, base, o.replays)
		if err != nil || o.traceSample == 0 {
			return lr, err
		}
		phases, maxID, err := phaseBreakdown(base, lastSpanID)
		if err != nil {
			slog.Warn("phase breakdown unavailable", "err", err)
		} else {
			lr.Phases, lastSpanID = phases, maxID
		}
		return lr, nil
	}
	printLevel := func(lr levelReport) {
		fmt.Printf("sessions=%d decisions=%d wall=%.2fs throughput=%.1f dec/s p50=%.3fms p99=%.3fms p999=%.3fms\n",
			lr.Sessions, lr.Decisions, lr.WallS, lr.ThroughputDPS, lr.P50MS, lr.P99MS, lr.P999MS)
		printPhases(lr.Phases)
	}

	// GOMAXPROCS scaling sweep: every setting below the primary runs the
	// full session grid first; the primary (highest) setting runs last,
	// and its sweep doubles as the report's top-level levels. On a
	// single-CPU host -cpus auto detects one setting and no sweep
	// happens — the curve needs cores, not goroutines.
	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)
	for _, c := range cpus[:len(cpus)-1] {
		runtime.GOMAXPROCS(c)
		fmt.Printf("gomaxprocs=%d\n", c)
		var lrs []levelReport
		for _, n := range levels {
			lr, err := runAt(n)
			if err != nil {
				return err
			}
			printLevel(lr)
			lrs = append(lrs, lr)
		}
		rep.CPUSweep = append(rep.CPUSweep, cpuSweepEntry{GOMAXPROCS: c, Levels: lrs})
	}
	primary := cpus[len(cpus)-1]
	runtime.GOMAXPROCS(primary)
	rep.GOMAXPROCS = primary
	if len(cpus) > 1 {
		fmt.Printf("gomaxprocs=%d\n", primary)
	}

	for li, n := range levels {
		lr, err := runAt(n)
		if err != nil {
			return err
		}
		if o.drift {
			lr.SnapshotGen = h.decider.CurrentSnapshot().Gen
		}
		rep.Levels = append(rep.Levels, lr)
		printLevel(lr)
		if o.drift && li == 0 {
			injectDrift(h, o.appName, o.seed)
		}
	}

	if len(cpus) > 1 {
		rep.CPUSweep = append(rep.CPUSweep, cpuSweepEntry{GOMAXPROCS: primary, Levels: rep.Levels})
		if rep.CPUSweep[0].GOMAXPROCS == 1 {
			if base1 := lastThroughput(rep.CPUSweep[0].Levels); base1 > 0 {
				for i := range rep.CPUSweep {
					rep.CPUSweep[i].SpeedupVs1 = lastThroughput(rep.CPUSweep[i].Levels) / base1
				}
				top := rep.CPUSweep[len(rep.CPUSweep)-1]
				fmt.Printf("cpu sweep: %d-core throughput %.2fx the 1-core run at %d sessions\n",
					top.GOMAXPROCS, top.SpeedupVs1, levels[len(levels)-1])
			}
		}
	}

	if o.drift {
		// Every post-injection level replayed against the degraded
		// generation; make sure at least one training round ran on what
		// the sweep observed before reporting.
		if h.trainer.Status().Rounds == 0 {
			if _, err := h.trainer.TrainOnce(); err != nil {
				slog.Warn("final training round failed", "err", err)
			}
		}
		st := h.trainer.Status()
		rep.Learn = &st
		fmt.Printf("learn: drift_signals=%d rounds=%d promoted=%d rejected=%d last=%s holdout_time_mape=%.4f gen=%d\n",
			st.DriftSignals, st.Rounds, st.Promoted, st.Rejected, st.LastOutcome,
			st.LastTimeMAPE, h.decider.CurrentSnapshot().Gen)
	}

	if o.out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", o.out)
	}
	return nil
}

// workloadCatalog owns the candidate app set and the lazily computed
// per-app baseline targets. Uniform mode has one candidate (-app); Zipf
// mode draws from the whole benchmark suite.
type workloadCatalog struct {
	sys     *mpcdvfs.System
	apps    []mpcdvfs.App
	targets map[string]mpcdvfs.Target
	uniform bool
	mix     map[string]int
}

// buildCatalog resolves the candidate app set for the run. The returned
// mix map (Zipf mode only) is shared with the report and accumulates
// session counts per app as levels are assigned.
func buildCatalog(sys *mpcdvfs.System, o options) (*workloadCatalog, map[string]int, error) {
	c := &workloadCatalog{sys: sys, targets: make(map[string]mpcdvfs.Target)}
	if o.zipfS == 0 {
		app, err := mpcdvfs.BenchmarkByName(o.appName)
		if err != nil {
			return nil, nil, err
		}
		c.apps = []mpcdvfs.App{app}
		c.uniform = true
		return c, nil, nil
	}
	c.apps = mpcdvfs.Benchmarks()
	c.mix = make(map[string]int)
	return c, c.mix, nil
}

// assign draws one (app, target) per session for a level. The Zipf draw
// is seeded from (-seed, level) so a level's assignment is identical
// across repeat runs and GOMAXPROCS settings. Baselines are computed
// once per distinct app and cached.
func (c *workloadCatalog) assign(n int, o options) ([]sessApp, error) {
	idx := make([]int, n)
	if !c.uniform {
		z := rand.NewZipf(rand.New(rand.NewSource(o.seed<<16^int64(n))), o.zipfS, 1, uint64(len(c.apps)-1))
		for i := range idx {
			idx[i] = int(z.Uint64())
		}
	}
	out := make([]sessApp, n)
	for i, k := range idx {
		app := &c.apps[k]
		t, err := c.target(app)
		if err != nil {
			return nil, err
		}
		out[i] = sessApp{app: app, target: t}
		if c.mix != nil {
			c.mix[app.Name]++
		}
	}
	return out, nil
}

// target returns app's Turbo Core baseline target, computing it on the
// app's first use.
func (c *workloadCatalog) target(app *mpcdvfs.App) (mpcdvfs.Target, error) {
	if t, ok := c.targets[app.Name]; ok {
		return t, nil
	}
	_, t, err := c.sys.Baseline(app)
	if err != nil {
		return mpcdvfs.Target{}, err
	}
	c.targets[app.Name] = t
	return t, nil
}

// serverPolicy opens one session on the server at base for the
// catalog's first app, closes it before it decides anything, and
// returns the name of the policy the server served it.
func serverPolicy(base string, c *workloadCatalog) (string, error) {
	app := &c.apps[0]
	t, err := c.target(app)
	if err != nil {
		return "", err
	}
	cl := serve.NewClient(base)
	cl.Begin(sim.RunInfo{AppName: app.Name, NumKernels: app.Len(), Target: t, FirstRun: true})
	if err := cl.Close(); err != nil {
		return "", fmt.Errorf("opening a session to learn the server's policy: %w", err)
	}
	return cl.Name(), nil
}

// runLevel sweeps one concurrency level: each assigned session runs its
// replays concurrently, through its own serve.Client.
func runLevel(sys *mpcdvfs.System, assign []sessApp, base string, replays int) (levelReport, error) {
	n := len(assign)
	lats := make([][]time.Duration, n)
	errs := make([]error, n)
	retries := make([]int, n)
	start := time.Now()
	par.ForEach(n, n, func(i int) {
		c := serve.NewClient(base)
		c.OnDecideLatency = func(d time.Duration) { lats[i] = append(lats[i], d) }
		for r := 0; r < replays; r++ {
			if _, err := sys.Run(assign[i].app, c, assign[i].target, r == 0); err != nil {
				errs[i] = err
				return
			}
			if err := c.Close(); err != nil {
				errs[i] = err
				return
			}
		}
		retries[i] = c.Retries429
	})
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return levelReport{}, fmt.Errorf("session %d/%d: %w", i+1, n, err)
		}
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	lr := levelReport{
		Sessions:      n,
		Replays:       replays,
		Decisions:     len(all),
		WallS:         wall.Seconds(),
		ThroughputDPS: float64(len(all)) / wall.Seconds(),
		P50MS:         quantileMS(all, 0.50),
		P99MS:         quantileMS(all, 0.99),
		P999MS:        quantileMS(all, 0.999),
	}
	for _, r := range retries {
		lr.Retries429 += r
	}
	return lr, nil
}

// hosted is the self-hosted server bundle: the HTTP front, the decision
// server, the model it was built around, and — depending on flags — the
// hub and trainer closing the learning loop.
type hosted struct {
	ts      *httptest.Server
	decider *serve.Server
	model   predict.Model
	hub     *telemetry.Hub
	trainer *learn.Trainer
}

// selfHost builds an in-process decision server over httptest, with the
// same per-session policy stack mpcserve serves. Under drift it also
// wires the continuous trainer the way mpcserve -learn does, so the
// sweep exercises the full observe → reservoir → retrain → promote loop.
func selfHost(sys *mpcdvfs.System, o options) (*hosted, error) {
	var newPolicy func(predict.Model) sim.Policy
	switch o.polName {
	case "mpc":
		newPolicy = func(m predict.Model) sim.Policy { return sys.NewMPC(m) }
	case "ppk":
		newPolicy = func(m predict.Model) sim.Policy { return sys.NewPPK(m) }
	default:
		return nil, fmt.Errorf("unknown -policy %q (want mpc or ppk)", o.polName)
	}
	slog.Info("training Random Forest predictor for the self-hosted server", "seed", o.seed)
	model, err := mpcdvfs.TrainRandomForest(mpcdvfs.DefaultTrainOptions(o.seed))
	if err != nil {
		return nil, err
	}
	var hub *telemetry.Hub
	if o.traceSample > 0 {
		// A deep ring so a whole concurrency level's spans survive until
		// the post-level /debug/trace fetch.
		hub = telemetry.NewHub(telemetry.Options{Sample: o.traceSample, RingSize: 1 << 16})
	} else if o.drift {
		// Drift detection needs the scoreboard even with tracing off.
		hub = telemetry.NewHub(telemetry.Options{Sample: 0})
	}
	var trainer *learn.Trainer
	if o.drift {
		trainer = learn.New(learn.Config{
			Seed:        o.seed,
			HoldoutFrac: 0.25,
			Gate:        learn.Gate{MaxTimeMAPE: 0.25, MaxPowerMAPE: 0.25},
			// Promotion baselines come from holdout MAPE, which understates
			// live error on optimizer-chosen configs; slack keeps a freshly
			// promoted generation from flapping straight back to drifted.
			BaselineSlack: 3,
		})
	}
	decider, err := serve.New(serve.Config{
		Model:     model,
		Tag:       "loadgen seed=" + strconv.FormatInt(o.seed, 10),
		NewPolicy: newPolicy,
		Telemetry: hub,
		Learn:     trainer,
	})
	if err != nil {
		return nil, err
	}
	if trainer != nil {
		// A long period: rounds during the sweep are drift-triggered.
		trainer.Start(time.Hour)
	}
	return &hosted{
		ts:      httptest.NewServer(decider.Handler()),
		decider: decider,
		model:   model,
		hub:     hub,
		trainer: trainer,
	}, nil
}

// driftError is the mean absolute relative error -drift injects into
// the degraded model generation.
const driftError = 0.8

// injectDrift installs an error-injected model generation and anchors
// its scoreboard baseline at the healthy first level's error, so the
// remaining levels replay against a predictor the drift gate must flag.
func injectDrift(h *hosted, appName string, seed int64) {
	healthy := h.hub.Scoreboard.Snapshot()
	gen := h.decider.Install(predict.NewWithError(h.model, driftError, driftError, seed), "drift-injected")
	for _, c := range healthy {
		if c.App == appName {
			h.hub.Scoreboard.SetBaseline(gen, c.TimeMAPE+0.01, c.PowerMAPE+0.01)
			break
		}
	}
	fmt.Printf("drift injected: generation %d serves with ±%.0f%% model error\n", gen, driftError*100)
}

// phaseBreakdown fetches the server's span ring and aggregates spans
// newer than afterID by name — the per-phase decomposition of decision
// latency (config search, featurization, forest inference).
// Span IDs are monotonic per tracer, so the afterID watermark isolates
// each concurrency level's spans. Ring wrap can drop a level's oldest
// spans; counts then undercount rather than mix levels.
func phaseBreakdown(base string, afterID uint64) (map[string]phaseStat, uint64, error) {
	resp, err := http.Get(base + "/debug/trace")
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("/debug/trace: %s (is the server running with -trace-sample?)", resp.Status)
	}
	recs, err := telemetry.ReadSpansJSONL(strings.NewReader(string(body)))
	if err != nil {
		return nil, 0, err
	}
	type acc struct {
		count int
		ns    int64
	}
	sums := map[string]*acc{}
	maxID := afterID
	for _, r := range recs {
		if r.SpanID > maxID {
			maxID = r.SpanID
		}
		if r.SpanID <= afterID {
			continue
		}
		a := sums[r.Name]
		if a == nil {
			a = &acc{}
			sums[r.Name] = a
		}
		a.count++
		a.ns += r.DurNS
	}
	phases := make(map[string]phaseStat, len(sums))
	for name, a := range sums {
		phases[name] = phaseStat{
			Count:   a.count,
			AvgUS:   float64(a.ns) / float64(a.count) / 1e3,
			TotalMS: float64(a.ns) / 1e6,
		}
	}
	return phases, maxID, nil
}

// printPhases renders a level's phase breakdown in stable name order.
func printPhases(phases map[string]phaseStat) {
	if len(phases) == 0 {
		return
	}
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("  phases:")
	for _, name := range names {
		p := phases[name]
		fmt.Printf(" %s n=%d avg=%.1fus", strings.TrimPrefix(name, "mpcdvfs_"), p.Count, p.AvgUS)
	}
	fmt.Println()
}

// quantileMS reads quantile q from a sorted latency slice, in ms.
func quantileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// lastThroughput returns the highest-session-level throughput of one
// sweep, the point the cross-GOMAXPROCS speedups are computed at.
func lastThroughput(levels []levelReport) float64 {
	if len(levels) == 0 {
		return 0
	}
	return levels[len(levels)-1].ThroughputDPS
}

// parseCPUs parses the -cpus flag: "auto" detects the host — powers of
// two up to min(NumCPU, 8), so a single-CPU host degenerates to one
// setting and the sweep disappears — otherwise an explicit
// comma-separated list, sorted ascending.
func parseCPUs(s string) ([]int, error) {
	if strings.TrimSpace(s) == "auto" {
		var out []int
		for c := 1; c <= runtime.NumCPU() && c <= 8; c *= 2 {
			out = append(out, c)
		}
		return out, nil
	}
	out, err := parseLevels(s)
	if err != nil {
		return nil, fmt.Errorf("-cpus: want \"auto\" or positive integers: %w", err)
	}
	sort.Ints(out)
	return out, nil
}

// parseLevels parses the -levels flag.
func parseLevels(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -levels entry %q (want positive integers)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-levels is empty")
	}
	return out, nil
}
