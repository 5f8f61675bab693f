package serve_test

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"mpcdvfs/internal/metrics"
	"mpcdvfs/internal/serve"
	"mpcdvfs/internal/telemetry"
)

// FuzzDecideHandler posts fuzzer-built index values to a fresh session
// over the committed forest, on a server whose hub feeds the metrics
// registry, the way FuzzObserveHandler posts observations. Whatever the
// body, the reply is a 200 or a 4xx — never a 5xx or a dead process —
// and the session still answers its next decide with a 200.
func FuzzDecideHandler(f *testing.F) {
	sys, app, target, _ := testStack(f)
	hub := telemetry.NewHub(telemetry.Options{})
	hub.Instrument(metrics.New())
	_, ts := newTestServer(f, sys, loadGoldenModel(f), serve.Config{Telemetry: hub})

	for _, index := range []string{`-5`, `99999999`, `null`, `"3"`, `0`, `1e400`, `{}`} {
		f.Add([]byte(index))
	}

	f.Fuzz(func(t *testing.T, index []byte) {
		id := openSession(t, ts.URL, app, target)
		body := append([]byte(`{"session_id":"`+id+`","index":`), index...)
		body = append(body, '}')
		resp, err := http.Post(ts.URL+"/v1/decide", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK && (resp.StatusCode < 400 || resp.StatusCode >= 500) {
			t.Fatalf("decide index %q: %d %s, want 200 or 4xx", index, resp.StatusCode, reply)
		}
		mustDecide(t, ts.URL, id, 0)
		if code, _, reply := post(t, ts.URL, "/v1/session/close", serve.CloseRequest{SessionID: id}); code != http.StatusOK {
			t.Fatalf("close: %d %s", code, reply)
		}
	})
}
