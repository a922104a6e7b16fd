// Package client is the typed Go client for the rebudgetd HTTP API
// (internal/server). It speaks the wire contract of internal/api, the
// spec/view structs the daemon serves, maps error responses onto *APIError
// (with Retry-After surfaced for 429 backpressure), and takes a context on
// every call. It links none of the daemon.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"rebudget/internal/api"
)

// Client talks to one rebudgetd instance or one rebudget-router.
type Client struct {
	base   string
	apiKey string
	http   *http.Client
}

// DefaultTimeout is the client's per-attempt HTTP timeout when
// WithTimeout is not given. It deliberately matches the router's default
// ProxyTimeout (30s) and sits above the daemon's RequestTimeout (10s):
// every server-side deadline fires first and yields a typed 503, so the
// client's timeout is the backstop for a hung transport, not the normal
// failure path. A client timeout below the server's turns every
// slow-but-succeeding epoch batch into wasted work — lower it only
// alongside the server's own deadline.
const DefaultTimeout = 30 * time.Second

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (test servers,
// custom transports, timeouts).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// WithTimeout sets the per-attempt HTTP timeout (default DefaultTimeout;
// d <= 0 means no timeout, deadlines then come only from the caller's
// context). It mutates the client's current *http.Client, so order it after
// WithHTTPClient when combining the two.
func WithTimeout(d time.Duration) Option {
	if d < 0 {
		d = 0
	}
	return func(c *Client) { c.http.Timeout = d }
}

// WithAPIKey sends key as a bearer token on every request, matching the
// daemon's -api-key check on mutating endpoints. The empty string sends no
// Authorization header.
func WithAPIKey(key string) Option {
	return func(c *Client) { c.apiKey = key }
}

// New builds a client for the daemon or router at base (e.g.
// "http://127.0.0.1:8344").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{Timeout: DefaultTimeout},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx daemon response.
type APIError struct {
	Status     int
	Message    string
	RetryAfter time.Duration // nonzero on 429 backpressure
}

func (e *APIError) Error() string {
	return fmt.Sprintf("rebudgetd: %d %s", e.Status, e.Message)
}

// IsBusy reports whether err is daemon backpressure (HTTP 429) — the caller
// should wait RetryAfter and retry.
func IsBusy(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Status == http.StatusTooManyRequests
}

// respBufs hold response bodies while they are decoded: one read into a
// reused buffer and one decode, where a per-request json.Decoder regrew
// its own 512 B buffer up to the size of every view. Nothing decoded may
// alias the buffer (both decoders copy strings; no view field is a
// json.RawMessage).
var respBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// poolBufCap bounds what a pooled buffer retains, like the router's and the
// daemon's: one giant listing must not pin its high-water mark forever.
const poolBufCap = 64 << 10

// do issues one request and decodes the JSON response into out (if non-nil).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var buf []byte
	if in != nil {
		var err error
		if buf, err = json.Marshal(in); err != nil {
			return err
		}
	}
	resp, err := c.roundTrip(ctx, method, path, in != nil, buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		ae := &APIError{Status: resp.StatusCode}
		var eb api.Error
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
			ae.Message = eb.Error
		} else {
			ae.Message = strings.TrimSpace(string(raw))
		}
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil {
				ae.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return ae
	}
	if out == nil {
		return nil
	}
	rb := respBufs.Get().(*bytes.Buffer)
	rb.Reset()
	_, err = rb.ReadFrom(resp.Body)
	if err == nil {
		// A view decodes itself in one validating pass; going through
		// json.Unmarshal would first run its validation pre-pass over the
		// whole body.
		if v, ok := out.(*api.SessionView); ok {
			err = v.UnmarshalJSON(rb.Bytes())
		} else {
			err = json.Unmarshal(rb.Bytes(), out)
		}
	}
	if rb.Cap() <= poolBufCap {
		respBufs.Put(rb)
	}
	return err
}

// roundTrip sends one request. Only transport failures are errors here; an
// HTTP error status is a response, and the caller maps it.
func (c *Client) roundTrip(ctx context.Context, method, path string, hasBody bool, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
	return c.http.Do(req)
}

// CreateSession registers a new chip session and returns its initial view.
func (c *Client) CreateSession(ctx context.Context, spec api.SessionSpec) (api.SessionView, error) {
	var v api.SessionView
	err := c.do(ctx, http.MethodPost, "/v1/sessions", spec, &v)
	return v, err
}

// ListSessions returns every live session, most recently used first.
func (c *Client) ListSessions(ctx context.Context) ([]api.SessionView, error) {
	var out api.SessionList
	err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &out)
	return out.Sessions, err
}

// GetSession returns one session's current view.
func (c *Client) GetSession(ctx context.Context, id string) (api.SessionView, error) {
	var v api.SessionView
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id, nil, &v)
	return v, err
}

// DeleteSession removes a session.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}

// StepEpoch advances the session one allocation epoch.
func (c *Client) StepEpoch(ctx context.Context, id string) (api.SessionView, error) {
	return c.StepEpochs(ctx, id, 1)
}

// StepEpochs advances the session n epochs under one request.
func (c *Client) StepEpochs(ctx context.Context, id string, n int) (api.SessionView, error) {
	var v api.SessionView
	// One epoch is the daemon's default for a bodyless POST, which skips its
	// body decoder — and the router's buffering of it — altogether.
	var body any
	if n != 1 {
		body = api.EpochBody{Epochs: n}
	}
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/epoch", body, &v)
	return v, err
}

// Telemetry applies monitor updates (market: demand/weight; sim: context
// switches) between epochs.
func (c *Client) Telemetry(ctx context.Context, id string, t api.TelemetrySpec) (api.SessionView, error) {
	var v api.SessionView
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/telemetry", t, &v)
	return v, err
}

// Healthz probes daemon liveness. A draining daemon answers HTTP 503, which
// surfaces here as an *APIError.
func (c *Client) Healthz(ctx context.Context) (api.Healthz, error) {
	var h api.Healthz
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Metrics scrapes /metrics and returns the Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.roundTrip(ctx, http.MethodGet, "/metrics", false, nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(raw))}
	}
	return string(raw), nil
}
