// Command mpcserve is the MPC decision server: it serves per-kernel
// configuration decisions to client applications over HTTP, one
// session per client application (internal/serve), next to the
// observability surface of the serving process. Every decision it
// counts is one a client asked for. To put the benchmark suite through
// a running server, replay it as a client does (loadgen -addr); offline
// replays with savings and speedup metrics run in mpcsim and
// experiments (-metrics-addr).
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
//	                    -model; 501 without -model, because retraining
//	                    from -seed would rebuild the same model)
//
// Usage:
//
//	mpcserve                                # train the RF from -seed, then serve
//	mpcserve -model model.bin               # serve a model written by cmd/train
//	loadgen -addr http://localhost:9090     # replay the suite through it
//	curl localhost:9090/metrics
//	curl -d '{"app":"x","num_kernels":8,"target":{"total_insts":1e9,"total_time_ms":100}}' localhost:9090/v1/session
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mpcdvfs"
	"mpcdvfs/internal/cli"
	"mpcdvfs/internal/learn"
	"mpcdvfs/internal/par"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/sim"
)

type options struct {
	addr        string
	policy      string
	modelPath   string
	seed        int64
	workers     int
	traceSample int
	logLevel    string

	learn         bool
	learnInterval time.Duration
	learnMaxMAPE  float64
	learnMinObs   int
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // the flag set has printed the error and the usage
	}
	if err := cli.InitLogging(o.logLevel); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	par.SetDefault(o.workers)
	if err := run(o); err != nil {
		slog.Error("mpcserve failed", "err", err)
		os.Exit(1)
	}
}

// parseFlags reads the command line into options.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("mpcserve", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":9090", "HTTP listen address for the decision API, /metrics, /health and /debug/pprof")
	fs.StringVar(&o.policy, "policy", "mpc", "per-session policy: mpc | ppk")
	fs.StringVar(&o.modelPath, "model", "", "load a model trained with cmd/train instead of training in-process")
	fs.Int64Var(&o.seed, "seed", 1, "Random Forest training seed")
	fs.IntVar(&o.workers, "workers", 0, "worker goroutines for RF training (0 = all CPUs, 1 = serial; decisions are identical either way)")
	fs.IntVar(&o.traceSample, "trace-sample", 0, "trace 1 in N decisions as spans on /debug/trace (0 = off, 1 = every decision; tracing never changes decisions)")
	fs.BoolVar(&o.learn, "learn", false, "continuously retrain from /v1/observe traffic and promote candidates that pass the holdout gate")
	fs.DurationVar(&o.learnInterval, "learn-interval", time.Minute, "periodic retraining cadence; scoreboard drift triggers a round early")
	fs.Float64Var(&o.learnMaxMAPE, "learn-promote-max-mape", 0.25, "holdout time/power MAPE a candidate must stay under to be promoted")
	fs.IntVar(&o.learnMinObs, "learn-min-samples", 64, "fewest reservoir samples before a training round runs")
	fs.StringVar(&o.logLevel, "log-level", "info", "log level: debug | info | warn | error")
	err := fs.Parse(args)
	return o, err
}

func run(o options) error {
	s, err := newServer(o)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return s.serve(ctx)
}

// server is a built decision server: its HTTP surface and the parts
// that drain on shutdown.
type server struct {
	o       options
	handler *http.ServeMux
	decider *serve.Server
	trainer *learn.Trainer
}

// newServer checks -policy, loads or trains the model, and builds the
// decision server and its observability surface. Nothing listens and
// no trainer runs until serve.
func newServer(o options) (*server, error) {
	sys := mpcdvfs.NewSystem()
	newPolicy, err := policyFor(sys, o.policy)
	if err != nil {
		return nil, err
	}

	var model predict.Model
	var reload func() (predict.Model, error)
	tag := o.modelPath
	if o.modelPath != "" {
		if model, err = loadModel(o.modelPath); err != nil {
			return nil, err
		}
		slog.Info("model loaded", "path", o.modelPath, "name", model.Name())
		reload = func() (predict.Model, error) { return loadModel(o.modelPath) }
	} else {
		// No reload source: by the training determinism contract,
		// retraining from -seed would install the same model, so
		// /reload answers 501.
		slog.Info("training Random Forest predictor (use -model to skip)", "seed", o.seed)
		start := time.Now()
		if model, err = mpcdvfs.TrainRandomForest(mpcdvfs.DefaultTrainOptions(o.seed)); err != nil {
			return nil, err
		}
		slog.Info("predictor trained", "took", time.Since(start).Round(time.Millisecond))
		tag = "trained seed=" + fmt.Sprint(o.seed)
	}

	reg := mpcdvfs.NewMetricsRegistry()
	par.Instrument(reg)
	hub := mpcdvfs.NewTelemetryHub(mpcdvfs.TelemetryOptions{Sample: o.traceSample})
	hub.Instrument(reg)
	var trainer *learn.Trainer
	if o.learn {
		// The gate applies -learn-promote-max-mape to both targets;
		// everything else keeps learn.New's defaults.
		trainer = learn.New(learn.Config{
			Seed:       o.seed,
			MinSamples: o.learnMinObs,
			Gate:       learn.Gate{MaxTimeMAPE: o.learnMaxMAPE, MaxPowerMAPE: o.learnMaxMAPE},
		})
	}
	decider, err := serve.New(serve.Config{
		Model:     model,
		Tag:       tag,
		NewPolicy: newPolicy,
		Train:     reload,
		Telemetry: hub,
		Learn:     trainer,
	})
	if err != nil {
		return nil, err
	}
	decider.Instrument(reg)
	if rfm, ok := model.(*predict.RandomForest); ok {
		rfm.InstrumentArenaPool(reg)
	}

	mux := cli.NewObsMux(reg)
	mux.Handle("/", decider.Handler())
	return &server{o: o, handler: mux, decider: decider, trainer: trainer}, nil
}

// serve starts the trainer (-learn), listens on -addr until ctx is
// done, then drains: retraining stops first, then the decision
// sessions close, then the listener goes.
func (s *server) serve(ctx context.Context) error {
	if s.trainer != nil {
		s.trainer.Start(s.o.learnInterval)
		slog.Info("continuous trainer enabled", "interval", s.o.learnInterval,
			"promote_max_mape", s.o.learnMaxMAPE)
	}
	srv := cli.ServeMux(s.o.addr, s.handler)
	slog.Info("serving decisions", "policy", s.o.policy, "trace_sample", s.o.traceSample)
	<-ctx.Done()

	slog.Info("shutting down")
	if s.trainer != nil {
		s.trainer.Stop()
	}
	s.decider.Shutdown()
	shctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return srv.Shutdown(shctx)
}

// policyFor maps -policy to the per-session policy constructor.
func policyFor(sys *mpcdvfs.System, name string) (func(predict.Model) sim.Policy, error) {
	switch name {
	case "mpc":
		return func(m predict.Model) sim.Policy { return sys.NewMPC(m) }, nil
	case "ppk":
		return func(m predict.Model) sim.Policy { return sys.NewPPK(m) }, nil
	}
	return nil, fmt.Errorf("unknown -policy %q (want mpc or ppk)", name)
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
