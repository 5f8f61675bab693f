// Benchmarks for the decision-serving path: the end-to-end /v1/decide
// closed loop over HTTP, serial versus concurrent sessions.
//
// Regenerate the numbers behind BENCH_serve.json with:
//
//	go test . -run '^$' -bench '^BenchmarkServe' -benchmem
//	go run ./cmd/loadgen -levels 1,2,4,8,16 -replays 500 -zipf 1.2 -cpus 1,2 -trace-sample 8 -out BENCH_serve.json
//
// On a single-CPU host the parallel variants measure coordination
// overhead, not speedup — concurrent sessions time-share one core, so
// aggregate throughput is flat by construction (see BENCH_serve.json's
// note).
package mpcdvfs_test

import (
	"testing"

	"mpcdvfs"
	"mpcdvfs/internal/experiments"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/sim"

	"net/http/httptest"
)

// benchServeRF fetches the shared trained forest fixture.
func benchServeRF(b *testing.B) *predict.RandomForest {
	b.Helper()
	m, err := experiments.Shared().RF()
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchServeStack boots an in-process decision server over the shared
// forest with the standard MPC policy stack.
func benchServeStack(b *testing.B) (*mpcdvfs.System, mpcdvfs.App, mpcdvfs.Target, *httptest.Server) {
	b.Helper()
	m := benchServeRF(b)
	sys := mpcdvfs.NewSystem()
	app, err := mpcdvfs.BenchmarkByName("Spmv")
	if err != nil {
		b.Fatal(err)
	}
	_, target, err := sys.Baseline(&app)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New(serve.Config{
		Model:     m,
		NewPolicy: func(pm predict.Model) sim.Policy { return sys.NewMPC(pm) },
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(func() {
		srv.Shutdown()
		ts.Close()
	})
	return sys, app, target, ts
}

// BenchmarkServeReplay measures one full closed-loop session replay
// over HTTP — session open, a decide/observe round trip per kernel,
// close. The unit of work every concurrent client repeats.
func BenchmarkServeReplay(b *testing.B) {
	sys, app, target, ts := benchServeStack(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := serve.NewClient(ts.URL)
		if _, err := sys.Run(&app, c, target, true); err != nil {
			b.Fatal(err)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeReplayParallel runs the same closed-loop replay from
// concurrent sessions — throughput under multi-tenant load.
func BenchmarkServeReplayParallel(b *testing.B) {
	sys, app, target, ts := benchServeStack(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c := serve.NewClient(ts.URL)
			if _, err := sys.Run(&app, c, target, true); err != nil {
				b.Fatal(err)
			}
			if err := c.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
