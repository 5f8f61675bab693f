// Command mpcserve runs the MPC runtime as a long-lived observable
// service with two faces: a replay loop that continuously re-runs
// benchmark workloads under a policy (the original mode), and a
// concurrent decision API that serves per-kernel configuration
// decisions to remote clients over HTTP, one session per client
// application (internal/serve).
//
// Endpoints (on -addr):
//
//	/metrics            mpcdvfs_* counters, gauges and histograms
//	/health             liveness probe
//	/debug/pprof/       live CPU/heap profiles of the serving process
//	/debug/mpc          serving introspection: sessions, scoreboard,
//	                    energy ledger, recent spans (JSON; ?format=html)
//	/debug/models       per-generation model-quality scoreboard
//	/debug/learn        continuous-trainer status (-learn; ?format=samples
//	                    dumps the reservoir as JSONL)
//	/debug/trace        span ring as JSONL (decision-path phase timings)
//	/v1/session         open a decision session (POST)
//	/v1/decide          decide one kernel invocation (POST)
//	/v1/observe         feed back a measured kernel outcome (POST)
//	/v1/session/close   drain and close a session (POST)
//	/reload             hot-swap the serving model (POST {}: re-reads
//	                    -model when given, else retrains from -seed)
//
// The decision API needs a shared predictor, so it is served for the
// RF-backed policies (mpc, ppk) and disabled under -oracle or
// -policy=turbo-core, whose predictors are per-app or absent.
//
// Usage:
//
//	mpcserve                        # replay all benchmarks + serve API
//	mpcserve -replay=false          # decision API only
//	mpcserve -oracle -apps Spmv     # perfect predictor, replay only
//	curl localhost:9090/metrics
//	curl -d '{"app":"x","num_kernels":8,"target":{"total_insts":1e9,"total_time_ms":100}}' localhost:9090/v1/session
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mpcdvfs"
	"mpcdvfs/internal/cli"
	"mpcdvfs/internal/learn"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/par"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/sim"
	"mpcdvfs/internal/telemetry"
)

type options struct {
	addr        string
	apps        string
	policy      string
	oracle      bool
	modelPath   string
	seed        int64
	interval    time.Duration
	traceOut    string
	replay      bool
	traceSample int

	learn         bool
	learnInterval time.Duration
	learnMaxMAPE  float64
	learnMinObs   int
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":9090", "HTTP listen address for the decision API, /metrics, /health and /debug/pprof")
	flag.StringVar(&o.apps, "apps", "", "comma-separated benchmarks to replay (default: all)")
	flag.StringVar(&o.policy, "policy", "mpc", "policy: turbo-core | ppk | mpc")
	flag.BoolVar(&o.oracle, "oracle", false, "use a perfect predictor instead of the Random Forest (disables the decision API)")
	flag.StringVar(&o.modelPath, "model", "", "load a model trained with cmd/train instead of training in-process")
	flag.Int64Var(&o.seed, "seed", 1, "Random Forest training seed")
	flag.DurationVar(&o.interval, "interval", 100*time.Millisecond, "pause between workload replays")
	flag.StringVar(&o.traceOut, "trace-out", "", "stream runtime events as JSONL to this file (tailable)")
	workers := flag.Int("workers", 0, "worker goroutines for RF training (0 = all CPUs, 1 = serial; decisions are identical either way)")
	flag.BoolVar(&o.replay, "replay", true, "run the continuous benchmark replay loop (false: serve the decision API only)")
	flag.IntVar(&o.traceSample, "trace-sample", 0, "trace 1 in N decisions as spans on /debug/trace (0 = off, 1 = every decision; tracing never changes decisions)")
	flag.BoolVar(&o.learn, "learn", false, "continuously retrain from /v1/observe traffic and promote candidates that pass the holdout gate (needs the decision API)")
	flag.DurationVar(&o.learnInterval, "learn-interval", time.Minute, "periodic retraining cadence; scoreboard drift triggers a round early")
	flag.Float64Var(&o.learnMaxMAPE, "learn-promote-max-mape", 0.25, "holdout time/power MAPE a candidate must stay under to be promoted")
	flag.IntVar(&o.learnMinObs, "learn-min-samples", 64, "fewest reservoir samples before a training round runs")
	logLevel := flag.String("log-level", "info", "log level: debug | info | warn | error")
	flag.Parse()

	if err := cli.InitLogging(*logLevel); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	par.SetDefault(*workers)
	if err := run(o); err != nil {
		slog.Error("mpcserve failed", "err", err)
		os.Exit(1)
	}
}

func run(o options) error {
	apps, err := selectApps(o.apps)
	if err != nil {
		return err
	}

	reg := mpcdvfs.NewMetricsRegistry()
	par.Instrument(reg)
	observers := []mpcdvfs.Observer{mpcdvfs.NewMetricsObserver(reg), obs.NewSlog(nil)}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		defer cli.Close("trace output", f)
		jw := obs.NewJSONLWriter(f)
		observers = append(observers, jw)
		defer func() {
			if err := jw.Err(); err != nil {
				slog.Error("event stream write failed", "err", err)
			}
		}()
	}

	// Service-level metrics on the same registry as the runtime's.
	replays := reg.Counter("mpcdvfs_replays_total",
		"Completed workload replays.", "policy", "app")
	savings := reg.Gauge("mpcdvfs_energy_savings_pct",
		"Chip energy savings of the last replay versus the Turbo Core baseline.",
		"policy", "app")
	speedup := reg.Gauge("mpcdvfs_speedup",
		"Speedup of the last replay versus the Turbo Core baseline (>1 is faster).",
		"policy", "app")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The telemetry hub carries the span tracer, model scoreboard and
	// energy ledger for both faces of the process: served sessions get
	// per-session trace contexts, the replay loop traces under "replay".
	hub := mpcdvfs.NewTelemetryHub(mpcdvfs.TelemetryOptions{Sample: o.traceSample})
	hub.Instrument(reg)

	sys := mpcdvfs.NewSystem()
	sys.SetObserver(mpcdvfs.MultiObserver(observers...))
	if o.traceSample > 0 {
		sys.SetTraceContext(hub.Tracer.NewContext("replay"))
	}

	var sharedModel mpcdvfs.Model
	switch {
	case o.oracle, o.policy == "turbo-core":
		// Per-app oracles are built below; turbo-core needs no model.
	case o.modelPath != "":
		sharedModel, err = loadModel(o.modelPath)
		if err != nil {
			return err
		}
		slog.Info("model loaded", "path", o.modelPath, "name", sharedModel.Name())
	default:
		slog.Info("training Random Forest predictor (use -oracle or -model to skip)", "seed", o.seed)
		start := time.Now()
		sharedModel, err = mpcdvfs.TrainRandomForest(mpcdvfs.DefaultTrainOptions(o.seed))
		if err != nil {
			return err
		}
		slog.Info("predictor trained", "took", time.Since(start).Round(time.Millisecond))
	}

	// The decision API serves sessions from the shared model; mount it
	// next to the observability surface when one exists.
	mux := cli.NewObsMux(reg)
	var decider *serve.Server
	var trainer *learn.Trainer
	if sharedModel != nil {
		if o.learn {
			trainer = newTrainer(o)
		}
		decider, err = newDecider(o, sys, sharedModel, reg, hub, trainer)
		if err != nil {
			return err
		}
		h := decider.Handler()
		mux.Handle("/v1/", h)
		mux.Handle("/reload", h)
		mux.Handle("/debug/mpc", h)
		mux.Handle("/debug/models", h)
		mux.Handle("/debug/trace", h)
		if trainer != nil {
			mux.Handle("/debug/learn", h)
			trainer.Start(o.learnInterval)
			slog.Info("continuous trainer enabled", "interval", o.learnInterval,
				"promote_max_mape", o.learnMaxMAPE)
		}
		slog.Info("decision API enabled", "policy", o.policy, "trace_sample", o.traceSample)
	} else {
		if o.learn {
			slog.Warn("-learn ignored: continuous training needs the decision API's observe stream")
		}
		slog.Info("decision API disabled (no shared predictor under -oracle/turbo-core)")
		if o.traceSample > 0 {
			// The replay loop still records spans; without a decision
			// server to host the richer /debug/mpc view, expose the
			// raw ring so the phase timings stay reachable.
			mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/x-ndjson")
				_ = telemetry.WriteSpansJSONL(w, hub.Tracer.Snapshot(nil))
			})
		}
	}
	srv := cli.ServeMux(o.addr, mux)

	if o.replay {
		if err := replayLoop(ctx, o, sys, sharedModel, apps, replays, savings, speedup); err != nil {
			return err
		}
	} else {
		slog.Info("replay loop disabled; serving decisions only")
		<-ctx.Done()
	}

	slog.Info("shutting down")
	if trainer != nil {
		trainer.Stop() // quiesce retraining before sessions drain
	}
	if decider != nil {
		decider.Shutdown() // drain decision sessions before dropping the listener
	}
	shctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return srv.Shutdown(shctx)
}

// loadModel reads a model written by cmd/train.
func loadModel(path string) (predict.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer cli.Close("model file", f)
	m, err := predict.LoadModel(f)
	if err != nil {
		return nil, err // not a nil *RandomForest inside a non-nil Model
	}
	return m, nil
}

// newTrainer shapes the continuous trainer from the -learn* flags; the
// promotion gate applies -learn-promote-max-mape to both targets, and
// everything else keeps learn.New's defaults.
func newTrainer(o options) *learn.Trainer {
	return learn.New(learn.Config{
		Seed:       o.seed,
		MinSamples: o.learnMinObs,
		Gate: learn.Gate{
			MaxTimeMAPE:  o.learnMaxMAPE,
			MaxPowerMAPE: o.learnMaxMAPE,
		},
	})
}

// newDecider builds the concurrent decision service around the shared
// model: per-session policies use the exact stack the replay loop uses,
// which is what keeps served decision streams byte-identical to local
// replays. /reload re-reads -model when one was given and retrains from
// -seed otherwise; it never opens a file the client names.
func newDecider(o options, sys *mpcdvfs.System, sharedModel mpcdvfs.Model, reg *mpcdvfs.MetricsRegistry, hub *mpcdvfs.TelemetryHub, trainer *learn.Trainer) (*serve.Server, error) {
	newPolicy := func(m predict.Model) sim.Policy {
		if o.policy == "ppk" {
			return sys.NewPPK(m)
		}
		return sys.NewMPC(m)
	}
	tag := "trained seed=" + fmt.Sprint(o.seed)
	if o.modelPath != "" {
		tag = o.modelPath
	}
	decider, err := serve.New(serve.Config{
		Model:     sharedModel,
		Tag:       tag,
		NewPolicy: newPolicy,
		Train: func() (predict.Model, error) {
			if o.modelPath != "" {
				return loadModel(o.modelPath)
			}
			return mpcdvfs.TrainRandomForest(mpcdvfs.DefaultTrainOptions(o.seed))
		},
		Telemetry: hub,
		Learn:     trainer,
	})
	if err != nil {
		return nil, err
	}
	decider.Instrument(reg)
	if rfm, ok := sharedModel.(*predict.RandomForest); ok {
		rfm.InstrumentArenaPool(reg)
	}
	return decider, nil
}

// replayLoop is the original mpcserve behaviour: replay each benchmark
// continuously under the policy, publishing savings/speedup metrics.
func replayLoop(ctx context.Context, o options, sys *mpcdvfs.System, sharedModel mpcdvfs.Model, apps []mpcdvfs.App,
	replays *metrics.CounterVec, savings, speedup *metrics.GaugeVec) error {
	// One replayer per app: MPC keeps per-app pattern knowledge across
	// replays, so horizon and fallback metrics reflect steady state.
	type replayer struct {
		app    mpcdvfs.App
		pol    mpcdvfs.Policy
		base   *mpcdvfs.Result
		target mpcdvfs.Target
		first  bool
	}
	reps := make([]*replayer, 0, len(apps))
	for _, app := range apps {
		if ctx.Err() != nil {
			return nil
		}
		app := app
		base, target, err := sys.Baseline(&app)
		if err != nil {
			return err
		}
		model := sharedModel
		if model == nil && o.policy != "turbo-core" {
			model = sys.NewOracle(&app)
		}
		var pol mpcdvfs.Policy
		switch o.policy {
		case "turbo-core":
			pol = sys.NewTurboCore()
		case "ppk":
			pol = sys.NewPPK(model)
		case "mpc":
			pol = sys.NewMPC(model)
		default:
			return fmt.Errorf("unknown policy %q (want turbo-core, ppk or mpc)", o.policy)
		}
		reps = append(reps, &replayer{app: app, pol: pol, base: base, target: target, first: true})
	}

	slog.Info("replay loop started", "apps", len(reps), "policy", o.policy, "interval", o.interval)
	cycles := 0
	for ctx.Err() == nil {
		for _, r := range reps {
			if ctx.Err() != nil {
				break
			}
			res, err := sys.Run(&r.app, r.pol, r.target, r.first)
			if err != nil {
				return fmt.Errorf("replay %s: %w", r.app.Name, err)
			}
			r.first = false
			c := mpcdvfs.Compare(res, r.base)
			replays.With(res.Policy, res.App).Inc()
			savings.With(res.Policy, res.App).Set(c.EnergySavingsPct)
			speedup.With(res.Policy, res.App).Set(c.Speedup)
			slog.Debug("replay done",
				"app", res.App, "policy", res.Policy,
				"time_ms", res.TotalTimeMS(), "energy_mj", res.TotalEnergyMJ(),
				"savings_pct", c.EnergySavingsPct, "speedup", c.Speedup)
			select {
			case <-ctx.Done():
			case <-time.After(o.interval):
			}
		}
		cycles++
		if cycles%100 == 0 {
			slog.Info("replay progress", "cycles", cycles)
		}
	}
	slog.Info("replay loop stopped", "cycles", cycles)
	return nil
}

// selectApps resolves the -apps flag against the benchmark suite.
func selectApps(flagVal string) ([]mpcdvfs.App, error) {
	if flagVal == "" {
		return mpcdvfs.Benchmarks(), nil
	}
	var out []mpcdvfs.App
	for _, name := range strings.Split(flagVal, ",") {
		app, err := mpcdvfs.BenchmarkByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, app)
	}
	return out, nil
}
