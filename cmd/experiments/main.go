// Command experiments regenerates the paper's tables and figures from
// the simulated system.
//
// Usage:
//
//	experiments            # run everything, in paper order
//	experiments -list      # list available experiment IDs
//	experiments -run fig8  # run one experiment (comma-separate for more)
//
// Observability: -metrics-addr serves /metrics, /health and
// /debug/pprof while the experiments run (scrape mid-run to watch the
// regeneration progress); -trace-out streams every engine event as
// JSONL; -log-level controls structured diagnostics on stderr.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"mpcdvfs/internal/cli"
	"mpcdvfs/internal/experiments"
	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/obs"
	"mpcdvfs/internal/par"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	run := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	parallel := flag.Int("parallel", 1, "experiments to run concurrently (output stays in paper order)")
	workers := flag.Int("workers", 0, "worker goroutines for RF training (0 = all CPUs, 1 = serial; results are identical either way)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /health and /debug/pprof on this address while running")
	traceOut := flag.String("trace-out", "", "stream engine events as JSONL to this file (tailable)")
	logLevel := flag.String("log-level", "info", "log level: debug | info | warn | error")
	flag.Parse()

	if err := cli.InitLogging(*logLevel); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	par.SetDefault(*workers)

	if *list {
		for _, r := range experiments.Runners() {
			fmt.Printf("%-16s %s\n", r.ID, r.Title)
		}
		return
	}

	var selected []experiments.Runner
	if *run == "" {
		selected = experiments.Runners()
	} else {
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			r, ok := experiments.ByID(id)
			if !ok {
				slog.Error("unknown experiment (use -list)", "id", id)
				os.Exit(2)
			}
			selected = append(selected, r)
		}
	}

	f := experiments.Shared()

	// Observability: one observer set shared by both fixture engines, so
	// every policy run of every experiment is visible.
	var observers []obs.Observer
	if *metricsAddr != "" {
		reg := metrics.New()
		par.Instrument(reg)
		observers = append(observers, obs.NewMetrics(reg))
		srv := cli.ServeMetrics(*metricsAddr, reg)
		defer cli.Close("observability server", srv)
	}
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			slog.Error("cannot create trace output", "path", *traceOut, "err", err)
			os.Exit(1)
		}
		defer cli.Close("trace output", tf)
		jw := obs.NewJSONLWriter(tf)
		observers = append(observers, jw)
		defer func() {
			if err := jw.Err(); err != nil {
				slog.Error("event stream write failed", "err", err)
			}
		}()
	}
	if len(observers) > 0 {
		o := obs.Multi(observers...)
		f.Engine.Obs = o
		f.Free.Obs = o
	}

	if *parallel <= 1 {
		for _, r := range selected {
			slog.Debug("running experiment", "id", r.ID)
			t, err := r.Run(f)
			if err != nil {
				slog.Error("experiment failed", "id", r.ID, "err", err)
				os.Exit(1)
			}
			t.Render(os.Stdout)
		}
		return
	}

	// Parallel mode: run concurrently through the shared pool, render in
	// order. Each experiment writes only its own index-addressed slot,
	// and the fixture's caches are mutex- or once-protected.
	type slot struct {
		buf bytes.Buffer
		err error
	}
	slots := make([]slot, len(selected))
	par.ForEach(*parallel, len(selected), func(i int) {
		r := selected[i]
		t, err := r.Run(f)
		if err != nil {
			slots[i].err = fmt.Errorf("%s: %w", r.ID, err)
			return
		}
		t.Render(&slots[i].buf)
	})
	for i := range slots {
		if slots[i].err != nil {
			slog.Error(slots[i].err.Error())
			os.Exit(1)
		}
		_, _ = slots[i].buf.WriteTo(os.Stdout)
	}
}
