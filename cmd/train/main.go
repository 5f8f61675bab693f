// Command train performs the paper's offline phase: it trains the
// Random Forest performance/power predictor on a synthetic kernel
// population measured against the ground-truth model, reports its
// accuracy on the evaluation benchmarks (§VI-D), and serializes the
// model for the runtime (load it with mpcsim -model).
//
// Usage:
//
//	train -out model.bin -kernels 150 -seed 20170204
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"mpcdvfs/internal/cli"
	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/par"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/rf"
	"mpcdvfs/internal/workload"
)

func main() {
	out := flag.String("out", "model.bin", "output model file")
	kernels := flag.Int("kernels", 150, "synthetic training kernels")
	seed := flag.Int64("seed", 20170204, "training seed")
	noise := flag.Float64("noise", 0.08, "measurement noise fraction on training targets")
	workers := flag.Int("workers", 0, "worker goroutines for parallel tree growth (0 = all CPUs, 1 = serial; output is identical either way)")
	compileCheck := flag.Bool("compile-check", true, "verify the compiled-forest fast path is bit-identical to tree walking before saving (exit 2 on mismatch)")
	logLevel := flag.String("log-level", "info", "log level: debug | info | warn | error")
	flag.Parse()

	if err := cli.InitLogging(*logLevel); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	par.SetDefault(*workers)

	opt := predict.DefaultTrainOptions(*seed)
	opt.NumKernels = *kernels
	opt.NoiseFrac = *noise
	opt.Workers = *workers

	slog.Info("training", "kernels", opt.NumKernels, "configurations", opt.Space.Size(), "workers", par.Resolve(*workers))
	model, err := predict.TrainRandomForest(opt)
	if err != nil {
		slog.Error(err.Error())
		os.Exit(1)
	}

	// §VI-D accuracy report over the evaluation benchmarks.
	var ks []workload.App = workload.Benchmarks()
	var all []float64
	_ = all
	fmt.Printf("%-14s  %10s  %10s\n", "benchmark", "time MAPE", "power MAPE")
	var tSum, pSum float64
	for _, app := range ks {
		tm, pm := predict.MAPE(model, app.Kernels, hw.DefaultSpace())
		fmt.Printf("%-14s  %9.1f%%  %9.1f%%\n", app.Name, 100*tm, 100*pm)
		tSum += tm
		pSum += pm
	}
	fmt.Printf("%-14s  %9.1f%%  %9.1f%%   (paper: 25%% / 12%%)\n",
		"mean", 100*tSum/float64(len(ks)), 100*pSum/float64(len(ks)))

	// Self-check the compiled inference fast path against the canonical
	// tree-walking forests before the model is persisted: the runtime
	// trusts compiled predictions only because they are bit-exact, so a
	// divergence here is a hard failure, not a warning.
	if *compileCheck {
		const samples = 4096
		tf, pf := model.Forests()
		tc, pc := model.CompiledForests()
		for _, fc := range []struct {
			name     string
			forest   *rf.Forest
			compiled *rf.CompiledForest
		}{
			{"time", tf, tc},
			{"power", pf, pc},
		} {
			if err := fc.compiled.SelfCheck(fc.forest, samples, *seed); err != nil {
				slog.Error("compiled forest self-check failed", "forest", fc.name, "err", err)
				os.Exit(2)
			}
			fmt.Printf("compiled %-5s forest: %d trees, %d-node pool, branchless layout bit-identical to the tree walk on %d probes (scalar and grid descent)\n",
				fc.name, fc.compiled.NumTrees(), fc.compiled.NumNodes(), samples)
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		slog.Error(err.Error())
		os.Exit(1)
	}
	if err := predict.SaveModel(f, model); err != nil {
		slog.Error(err.Error())
		os.Exit(1)
	}
	// Close explicitly: a deferred close would never run past os.Exit,
	// and a failed close on a freshly written model file is data loss.
	if err := f.Close(); err != nil {
		slog.Error(err.Error())
		os.Exit(1)
	}
	slog.Info("model written", "path", *out)
}
