package chaos

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Transport is a chaos http.RoundTripper: it wraps a real transport and
// injects the Injector's network faults per request, plus explicit full
// partitions per host scripted from outside (see Schedule). Install it as
// router.Config.Transport to shake the proxy path, or via
// client.WithHTTPClient to shake a controller.
//
// Partitions cut the data path only. A prober whose client does not go
// through this transport keeps seeing green /healthz while every proxied
// request fails — a gray failure, the exact scenario passive breaker
// detection exists for.
type Transport struct {
	inj   *Injector // nil: only explicit partitions fire
	inner http.RoundTripper

	mu          sync.Mutex
	partitioned map[string]bool
}

// NewTransport wraps inner (nil selects http.DefaultTransport) with the
// injector's network faults. A nil injector is valid: the transport then
// only enforces explicit Partition calls.
func NewTransport(inj *Injector, inner http.RoundTripper) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{inj: inj, inner: inner, partitioned: make(map[string]bool)}
}

// hostKey normalises a host or base URL ("http://127.0.0.1:9001/",
// "127.0.0.1:9001") onto the request-host key used for partition lookups
// and per-host fault streams.
func hostKey(s string) string {
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[:i]
	}
	return s
}

// Partition starts a full partition of host (a host:port or base URL):
// every request to it fails at the transport level until Heal.
func (t *Transport) Partition(host string) {
	t.mu.Lock()
	t.partitioned[hostKey(host)] = true
	t.mu.Unlock()
}

// Heal ends a partition started by Partition.
func (t *Transport) Heal(host string) {
	t.mu.Lock()
	delete(t.partitioned, hostKey(host))
	t.mu.Unlock()
}

// RoundTrip implements http.RoundTripper. Fault order per request:
// partition check, injected latency, pre-send drop, synthesized 5xx blip,
// the real round trip, then (if drawn) a mid-body reset on the response.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	t.mu.Lock()
	cut := t.partitioned[host]
	t.mu.Unlock()
	if cut {
		return nil, fmt.Errorf("%w: %s", ErrPartitioned, host)
	}
	p := t.inj.planRequest(host)
	if p.latency > 0 {
		timer := time.NewTimer(p.latency)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	if p.drop {
		return nil, fmt.Errorf("%w: %s", ErrDropped, host)
	}
	if p.blip {
		return blipResponse(req), nil
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil || !p.reset {
		return resp, err
	}
	// Mid-body reset: let the status and headers through, then cut the
	// stream partway. Half of a known body, else a small prefix.
	limit := int64(64)
	if resp.ContentLength > 1 {
		limit = resp.ContentLength / 2
	}
	resp.Body = &resetBody{inner: resp.Body, remaining: limit, host: host}
	return resp, nil
}

// blipResponse synthesizes the 503 a flaky middlebox would answer.
func blipResponse(req *http.Request) *http.Response {
	body := `{"error":"chaos: injected 5xx blip"}`
	return &http.Response{
		Status:        "503 Service Unavailable",
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"application/json"}, "X-Chaos": {"blip"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// resetBody streams the first remaining bytes, then fails with ErrReset —
// a connection reset after the response was already committed.
type resetBody struct {
	inner     io.ReadCloser
	remaining int64
	host      string
}

func (b *resetBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, fmt.Errorf("%w: %s", ErrReset, b.host)
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.inner.Read(p)
	b.remaining -= int64(n)
	if err == io.EOF {
		// The body ended before the cut point; the reset never landed.
		return n, err
	}
	if b.remaining <= 0 && err == nil {
		err = fmt.Errorf("%w: %s", ErrReset, b.host)
	}
	return n, err
}

func (b *resetBody) Close() error { return b.inner.Close() }
