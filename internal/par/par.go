// Package par is the shared worker pool behind the repository's
// parallel paths: Random Forest tree growth (internal/rf) and mpclint's
// per-package checks (internal/analysis). Inference does not fan out: the exhaustive sweep
// is one serial set descent. It deliberately provides only order-free
// fan-out — every parallel caller in this repository is required to
// produce byte-identical results to its serial counterpart, so work is
// always partitioned by index and each task writes only to its own
// index-addressed output slot; any reduction over those slots happens
// serially, in index order, on the caller's goroutine.
//
// Worker-count convention, shared by every `-workers` flag and Workers
// field in the repository:
//
//	n <= 0  use the process default (Default, initially GOMAXPROCS)
//	n == 1  run serially on the calling goroutine
//	n >= 2  fan out across up to n goroutines
//
// The package keeps process-wide counters of batches and tasks executed;
// Instrument mirrors them into a metrics.Registry as
// mpcdvfs_par_batches_total{mode} and mpcdvfs_par_tasks_total.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mpcdvfs/internal/metrics"
)

// defaultWorkers is the process-wide default used when a caller passes
// workers <= 0. Zero means "unset": fall back to GOMAXPROCS at call
// time, so the default tracks runtime changes unless pinned.
var defaultWorkers atomic.Int64

// Default returns the process-wide default worker count: the value set
// by SetDefault, or GOMAXPROCS(0) if never set.
func Default() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetDefault pins the process-wide default worker count (the `-workers`
// flag of the commands). n <= 0 unpins, restoring the GOMAXPROCS
// default. Safe for concurrent use.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Resolve maps a caller-supplied worker count to an effective one,
// applying the package convention (<= 0 means Default).
func Resolve(n int) int {
	if n <= 0 {
		return Default()
	}
	return n
}

// Counters of completed work, exposed via Snapshot and mirrored into a
// metrics registry by Instrument.
var (
	serialBatches   atomic.Uint64
	parallelBatches atomic.Uint64
	tasks           atomic.Uint64

	instr atomic.Pointer[instrCounters]
)

type instrCounters struct {
	serial   *metrics.Counter
	parallel *metrics.Counter
	tasks    *metrics.Counter
}

// Snapshot returns the process-wide pool counters: batches executed
// serially (one goroutine), batches fanned out across workers, and
// total tasks run through ForEach.
func Snapshot() (serial, parallel, totalTasks uint64) {
	return serialBatches.Load(), parallelBatches.Load(), tasks.Load()
}

// Instrument mirrors the pool counters into reg from now on (earlier
// activity is not backfilled). Calling it again with another registry
// redirects the mirror.
func Instrument(reg *metrics.Registry) {
	batches := reg.Counter("mpcdvfs_par_batches_total",
		"ForEach batches executed by the shared worker pool.", "mode")
	t := reg.Counter("mpcdvfs_par_tasks_total",
		"Tasks executed by the shared worker pool.")
	instr.Store(&instrCounters{
		serial:   batches.With("serial"),
		parallel: batches.With("parallel"),
		tasks:    t.With(),
	})
}

// ForEach runs fn(i) exactly once for every i in [0, n), using at most
// `workers` goroutines (resolved through Resolve). With an effective
// worker count of 1 — or n < 2 — it degenerates to a plain loop on the
// calling goroutine, making the serial path literally the same code a
// caller would have written by hand.
//
// Indices are handed out by an atomic counter, so scheduling order is
// nondeterministic; callers own determinism by writing only to
// index-addressed slots and reducing serially afterwards. A panic in fn
// is re-raised on the calling goroutine after all workers have drained
// (the first panic wins), preserving the synchronous panic semantics of
// the serial loop.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		account(false, n)
		return
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
					// Drain remaining indices so sibling workers
					// finish quickly and the panic surfaces.
					next.Store(int64(n))
				}
			}()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(int(i))
			}
		}()
	}
	wg.Wait()
	account(true, n)
	if panicked != nil {
		panic(panicked)
	}
}

// account bumps the pool counters and their metrics mirror.
func account(parallel bool, n int) {
	tasks.Add(uint64(n))
	if parallel {
		parallelBatches.Add(1)
	} else {
		serialBatches.Add(1)
	}
	if c := instr.Load(); c != nil {
		c.tasks.Add(float64(n))
		if parallel {
			c.parallel.Inc()
		} else {
			c.serial.Inc()
		}
	}
}
