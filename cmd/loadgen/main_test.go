package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"mpcdvfs"
	"mpcdvfs/internal/predict"
	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/sim"
)

// TestAddrReportsServedPolicy drives loadgen -addr against a server
// that serves PPK. The report names the served policy whatever the
// -policy default says, an explicit -policy that matches runs, and one
// that differs fails after the one session that reveals the policy,
// before any level opens another.
func TestAddrReportsServedPolicy(t *testing.T) {
	sys := mpcdvfs.NewSystem()
	app, err := mpcdvfs.BenchmarkByName("Spmv")
	if err != nil {
		t.Fatal(err)
	}
	var sessions atomic.Int64
	srv, err := serve.New(serve.Config{
		Model: sys.NewOracle(&app),
		NewPolicy: func(m predict.Model) sim.Policy {
			sessions.Add(1)
			return sys.NewPPK(m)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		srv.Shutdown()
		ts.Close()
	}()

	o := options{addr: ts.URL, appName: "Spmv", levelsFlag: "1", cpusFlag: "1", replays: 1, polName: "mpc", seed: 1}
	for _, explicit := range []string{"", "ppk"} {
		o.polSet = explicit != ""
		if o.polSet {
			o.polName = explicit
		}
		o.out = filepath.Join(t.TempDir(), "serve.json")
		if err := run(o); err != nil {
			t.Fatalf("-policy %q: %v", explicit, err)
		}
		buf, err := os.ReadFile(o.out)
		if err != nil {
			t.Fatal(err)
		}
		var rep report
		if err := json.Unmarshal(buf, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Policy != "ppk" || len(rep.Levels) != 1 || rep.Levels[0].Decisions == 0 {
			t.Fatalf("-policy %q: report policy %q over %d levels, want ppk and one level of decisions",
				explicit, rep.Policy, len(rep.Levels))
		}
	}

	o.polName, o.polSet = "mpc", true
	before := sessions.Load()
	err = run(o)
	if err == nil || !strings.Contains(err.Error(), "serves ppk") {
		t.Fatalf("-policy mpc against a ppk server: err %v, want a mismatch", err)
	}
	if opened := sessions.Load() - before; opened != 1 {
		t.Fatalf("-policy mismatch opened %d sessions, want only the one that reveals the policy", opened)
	}
}
