// Command perfbench is mpcdvfs's end-to-end benchmark. It runs one of
// two seeded, fixed-work, closed-loop workloads over the served Random
// Forest and prints every metric by name with its unit, then one JSON
// result line:
//
//	serve-sweep    four closed-loop clients replay the 15-app suite over
//	               loopback HTTP against the default mpcserve decision
//	               stack; every served decision is a 336-config sweep
//	replay-steady  one goroutine replays the suite in-process through
//	               sim.Engine on per-app MPCs in steady state (adaptive
//	               horizon, window hill-climb, scalar forest path)
//
// With -trace 1 it instead makes an untraced and a traced run, each of
// half the work, and reports the per-layer breakdown. Build and run it
// from the repository root with
//
//	bash _perfbench/run.sh --workload serve-sweep --seed 1 --seconds 40 --trace 0
//
// README.md next to this file defines every workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	build    string
	host     hostInfo
	fixture  string // path of the verified fixture model
	spec     fixtureSpec
}

var workloads = map[string]func(options) (result, error){
	"serve-sweep":   runServeSweep,
	"replay-steady": runReplaySteady,
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "serve-sweep | replay-steady | all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (permutes the app order only)")
	flag.IntVar(&o.seconds, "seconds", 40, "nominal timed seconds; sizes the fixed work of the run")
	flag.IntVar(&trace, "trace", 0, "1: report the per-layer breakdown from an untraced and a traced run")
	flag.StringVar(&o.root, "root", ".", "repository root (holds go.mod of module mpcdvfs)")
	flag.StringVar(&o.build, "build", filepath.Join(".bench_build", "perfbench"), "directory for the fixture and span dumps")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o, trace); err != nil {
		logf("error: %v", err)
		os.Exit(1)
	}
}

func run(o options, trace int) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = []string{"serve-sweep", "replay-steady"}
	} else if workloads[o.workload] == nil {
		return fmt.Errorf("unknown -workload %q (want serve-sweep, replay-steady or all)", o.workload)
	}
	if err := checkRoot(o.root); err != nil {
		return err
	}
	var err error
	if o.spec, err = loadFixtureSpec(); err != nil {
		return err
	}
	o.host = probeHost(o.root)
	h := o.host
	logf("host: alu_ref=%.2fms mem_ref=%.2fms GOMAXPROCS=%d NumCPU=%d cpu=%q go=%s commit=%s source=%s",
		h.ALURefMS, h.MemRefMS, h.GOMAXPROCS, h.NumCPU, h.CPUModel, h.GoVersion, h.Commit, h.SourceSHA)
	if o.fixture, err = ensureFixture(o.build, o.spec); err != nil {
		return err
	}

	var results []result
	for _, name := range names {
		oo := o
		oo.workload = name
		logf("%s: seed=%d seconds=%d trace=%d", name, o.seed, o.seconds, trace)
		r, err := workloads[name](oo)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		printTable(name, r)
		results = append(results, r)
		runtime.GC()
	}
	final := results[0]
	if len(results) > 1 {
		final = merge(names, results)
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkRoot refuses to run anywhere but the root of an mpcdvfs tree.
func checkRoot(root string) error {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return fmt.Errorf("no go.mod at %s: run from the repository root: %w", root, err)
	}
	if !strings.HasPrefix(strings.TrimSpace(string(data)), "module mpcdvfs\n") {
		return errors.New("go.mod at the root is not module mpcdvfs")
	}
	return nil
}

func printTable(workload string, r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", workload, r.Correct, r.Attempted, r.Failed)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

// merge folds per-workload results into one line, prefixing metric
// names with the workload.
func merge(names []string, rs []result) result {
	out := result{Correct: true, Metrics: map[string]metric{}}
	for i, r := range rs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for n, m := range r.Metrics {
			out.Metrics[names[i]+"/"+n] = m
		}
	}
	return out
}

// since is a monotonic duration in nanoseconds.
func since(t time.Time) int64 { return int64(time.Since(t)) }
