// Command mpcsim runs one benchmark under a power-management policy and
// prints per-kernel decisions and the comparison against Turbo Core.
//
// Usage:
//
//	mpcsim -app Spmv -policy mpc -runs 3
//	mpcsim -list
//
// Policies: turbo-core, ppk, to, mpc, mpc-full (RF predictor unless
// -oracle is set).
//
// Observability: -metrics-addr serves /metrics, /health and
// /debug/pprof for the duration of the process; -trace-out streams every
// run's per-kernel records as JSONL; -log-level controls the structured
// diagnostics on stderr.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"mpcdvfs"
	"mpcdvfs/internal/cli"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/par"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/trace"
)

func main() {
	appName := flag.String("app", "Spmv", "benchmark name (see -list)")
	polName := flag.String("policy", "mpc", "policy: turbo-core | ppk | to | mpc | mpc-full")
	runs := flag.Int("runs", 2, "consecutive invocations (first is the profiling run)")
	useOracle := flag.Bool("oracle", false, "use a perfect predictor instead of the Random Forest")
	modelPath := flag.String("model", "", "load a model trained with cmd/train instead of training in-process")
	seed := flag.Int64("seed", 1, "Random Forest training seed")
	list := flag.Bool("list", false, "list benchmarks and exit")
	verbose := flag.Bool("v", false, "print per-kernel decisions")
	traceOut := flag.String("trace", "", "write the last run's per-kernel trace to this file (.csv or .json)")
	traceJSONL := flag.String("trace-out", "", "stream every run's per-kernel records as JSONL to this file")
	powerOut := flag.String("powertrace", "", "write the last run's 1ms power-controller samples to this CSV file")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /health and /debug/pprof on this address while running")
	workers := flag.Int("workers", 0, "worker goroutines for RF training (0 = all CPUs, 1 = serial; decisions are identical either way)")
	logLevel := flag.String("log-level", "info", "log level: debug | info | warn | error")
	flag.Parse()

	if err := cli.InitLogging(*logLevel); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	par.SetDefault(*workers)

	if *list {
		for _, a := range mpcdvfs.Benchmarks() {
			fmt.Printf("%-14s %-12s %-40s %s (%d kernels)\n", a.Name, a.Suite, a.Category, a.Pattern, a.Len())
		}
		return
	}

	app, err := mpcdvfs.BenchmarkByName(*appName)
	if err != nil {
		fatal(err)
	}

	sys := mpcdvfs.NewSystem()
	var reg *mpcdvfs.MetricsRegistry
	if *metricsAddr != "" {
		reg = mpcdvfs.NewMetricsRegistry()
		par.Instrument(reg)
		sys.SetObserver(mpcdvfs.MultiObserver(mpcdvfs.NewMetricsObserver(reg), obs.NewSlog(nil)))
		srv := cli.ServeMetrics(*metricsAddr, reg)
		defer cli.Close("observability server", srv)
	}
	base, target, err := sys.Baseline(&app)
	if err != nil {
		fatal(err)
	}

	var model mpcdvfs.Model
	switch {
	case *useOracle:
		model = sys.NewOracle(&app)
	case *modelPath != "":
		mf, err := os.Open(*modelPath)
		if err != nil {
			fatal(err)
		}
		model, err = predict.LoadModel(mf)
		cli.Close("model file", mf)
		if err != nil {
			fatal(err)
		}
	default:
		slog.Info("training Random Forest predictor (use -oracle or -model to skip)", "seed", *seed)
		model, err = mpcdvfs.TrainRandomForest(mpcdvfs.DefaultTrainOptions(*seed))
		if err != nil {
			fatal(err)
		}
	}

	var pol mpcdvfs.Policy
	switch *polName {
	case "turbo-core":
		pol = sys.NewTurboCore()
	case "ppk":
		pol = sys.NewPPK(model)
	case "to":
		pol = sys.NewTheoreticallyOptimal(&app)
	case "mpc":
		pol = sys.NewMPC(model)
	case "mpc-full":
		pol = sys.NewMPC(model, mpcdvfs.WithFullHorizon())
	default:
		slog.Error("unknown policy", "policy", *polName)
		os.Exit(2)
	}
	results, err := sys.RunRepeated(&app, pol, target, *runs)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("app %s, policy %s, target throughput %.3g insts/ms\n",
		app.Name, pol.Name(), target.Throughput())
	fmt.Printf("turbo core: %.2f ms, %.1f mJ\n\n", base.TotalTimeMS(), base.TotalEnergyMJ())
	for r, res := range results {
		label := "steady"
		if r == 0 {
			label = "profiling"
		}
		c := mpcdvfs.Compare(res, base)
		fmt.Printf("run %d (%s): %.2f ms (+%.2f ms overhead), %.1f mJ -> %.1f%% energy savings, %.3fx speedup\n",
			r+1, label, res.TotalTimeMS(), res.OverheadMS(), res.TotalEnergyMJ(),
			c.EnergySavingsPct, c.Speedup)
		if *verbose {
			for _, rec := range res.Records {
				fmt.Printf("  k%02d %-20s %-24s %8.3f ms  %6d evals\n",
					rec.Index, rec.Kernel, rec.Config.String(), rec.TimeMS, rec.Evals)
			}
		}
	}

	if *traceJSONL != "" {
		f, err := os.Create(*traceJSONL)
		if err != nil {
			fatal(err)
		}
		for _, res := range results {
			if err := trace.WriteJSONL(f, res); err != nil {
				cli.Close("JSONL trace", f)
				fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		slog.Info("JSONL trace written", "path", *traceJSONL, "runs", len(results))
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		last := results[len(results)-1]
		if strings.HasSuffix(*traceOut, ".json") {
			err = trace.WriteJSON(f, last)
		} else {
			err = trace.WriteCSV(f, last)
		}
		if err != nil {
			cli.Close("trace output", f)
			fatal(err)
		}
		// Explicit close: a failed close on a freshly written trace is
		// data loss, and fatal's os.Exit would skip a defer anyway.
		if err := f.Close(); err != nil {
			fatal(err)
		}
		slog.Info("trace written", "path", *traceOut)
	}

	if *powerOut != "" {
		samples, err := trace.PowerTrace(results[len(results)-1], sys.CostModel(), trace.DefaultSampleMS)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*powerOut)
		if err != nil {
			fatal(err)
		}
		if err := trace.WritePowerCSV(f, samples); err != nil {
			cli.Close("power trace", f)
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		slog.Info("power trace written", "path", *powerOut)
	}
}

func fatal(err error) {
	slog.Error(err.Error())
	os.Exit(1)
}
