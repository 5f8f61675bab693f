package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mpcdvfs/internal/hw"
	"mpcdvfs/internal/sim"
)

// Client drives one decision-service session and implements sim.Policy,
// so a remote server can stand in for an in-process policy anywhere the
// simulator accepts one — sim.Engine.Run becomes the closed loop the
// load generator and the golden parity tests share.
//
// sim.Policy has no error returns, so transport failures latch: the
// first error sticks (Err reports it), subsequent Decide calls return
// the fail-safe configuration, and Observe calls become no-ops. 429
// backpressure is not an error — the client honours Retry-After and
// retries, preserving the session's operation order (it is closed-loop:
// nothing later has been sent yet).
//
// A Client is not safe for concurrent use; it is one session, which is
// single-threaded by design. Run many Clients for many sessions.
type Client struct {
	// OnDecideLatency, when set, receives the wall time of every
	// successful /v1/decide round trip (including 429 retry waits —
	// what a real client experiences).
	OnDecideLatency func(time.Duration)
	// Retries429 counts 429 responses absorbed by retrying — how often
	// this session found itself busy.
	Retries429 int

	base string
	hc   *http.Client

	id   string
	name string
	gen  uint64
	err  error
}

// maxRetries is the per-request cap on 429 retries.
const maxRetries = 100

// NewClient returns a client for a server with the given base URL
// (e.g. "http://localhost:9090").
func NewClient(base string) *Client {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{base: base, hc: &http.Client{}}
}

// Err returns the latched transport/protocol error, if any.
func (c *Client) Err() error { return c.err }

// SessionID returns the server-assigned session id ("" before Begin).
func (c *Client) SessionID() string { return c.id }

// SnapshotGen returns the model snapshot generation the session is
// pinned to (0 before Begin).
func (c *Client) SnapshotGen() uint64 { return c.gen }

// Name implements sim.Policy: the remote policy's name once the session
// is open, a placeholder before.
func (c *Client) Name() string {
	if c.name == "" {
		return "remote"
	}
	return c.name
}

// Begin implements sim.Policy by opening a session.
func (c *Client) Begin(info sim.RunInfo) {
	var resp SessionResponse
	if err := c.post("/v1/session", SessionRequest{
		App:        info.AppName,
		NumKernels: info.NumKernels,
		Target:     TargetWire{TotalInsts: info.Target.TotalInsts, TotalTimeMS: info.Target.TotalTimeMS},
		FirstRun:   info.FirstRun,
	}, &resp); err != nil {
		c.latch(err)
		return
	}
	c.id, c.name, c.gen = resp.SessionID, resp.Policy, resp.SnapshotGen
}

// Decide implements sim.Policy. After a latched error it degrades to
// the fail-safe configuration, the same guard a local policy falls back
// to when it cannot optimize.
func (c *Client) Decide(i int) sim.Decision {
	if c.err != nil {
		return sim.Decision{Config: hw.FailSafe()}
	}
	start := time.Now()
	var resp DecideResponse
	if err := c.post("/v1/decide", DecideRequest{SessionID: c.id, Index: i}, &resp); err != nil {
		c.latch(err)
		return sim.Decision{Config: hw.FailSafe()}
	}
	if c.OnDecideLatency != nil {
		c.OnDecideLatency(time.Since(start))
	}
	return resp.decision()
}

// Observe implements sim.Policy.
func (c *Client) Observe(o sim.Observation) {
	if c.err != nil {
		return
	}
	var resp OKResponse
	if err := c.post("/v1/observe", ObserveRequest{SessionID: c.id, Observation: toObservationWire(o)}, &resp); err != nil {
		c.latch(err)
	}
}

// Close drains and closes the session on the server. Safe to call
// without an open session.
func (c *Client) Close() error {
	if c.id == "" {
		return c.err
	}
	var resp OKResponse
	err := c.post("/v1/session/close", CloseRequest{SessionID: c.id}, &resp)
	c.id = ""
	if err != nil {
		c.latch(err)
	}
	return c.err
}

func (c *Client) latch(err error) {
	if c.err == nil {
		c.err = err
	}
}

// post sends req as JSON and decodes the 200 body into resp, retrying
// on 429 per the server's Retry-After hint.
func (c *Client) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		r, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		if r.StatusCode == http.StatusTooManyRequests {
			c.Retries429++
			_, _ = io.Copy(io.Discard, r.Body)
			if err := r.Body.Close(); err != nil {
				return err
			}
			if attempt >= maxRetries {
				return fmt.Errorf("serve: %s still backpressured after %d retries", path, attempt)
			}
			time.Sleep(retryAfter(r.Header))
			continue
		}
		if r.StatusCode != http.StatusOK {
			var e ErrorResponse
			_ = json.NewDecoder(r.Body).Decode(&e)
			if err := r.Body.Close(); err != nil {
				return err
			}
			if e.Error == "" {
				e.Error = r.Status
			}
			return fmt.Errorf("serve: %s: %s", path, e.Error)
		}
		decErr := json.NewDecoder(r.Body).Decode(resp)
		if err := r.Body.Close(); err != nil && decErr == nil {
			decErr = err
		}
		return decErr
	}
}

// retryAfter parses a Retry-After seconds value, with a small default
// so a missing header still backs off.
func retryAfter(h http.Header) time.Duration {
	if v := h.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 50 * time.Millisecond
}

// Compile-time check: a Client is a drop-in policy.
var _ sim.Policy = (*Client)(nil)
