package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rebudget/internal/api"
	"rebudget/internal/server"
)

// stubTransport answers every request from a function, with no sockets.
type stubTransport func(*http.Request) (*http.Response, error)

func (f stubTransport) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func stubClient(f stubTransport) *Client {
	return New("http://stub.invalid", WithHTTPClient(&http.Client{Transport: f}))
}

func okBody(body []byte) *http.Response {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(bytes.NewReader(body)),
	}
}

// view64 is a real 64-core ReBudget-20 view — the serve_heavy response —
// from an in-process daemon.
func view64(t testing.TB, seed uint64) api.SessionView {
	t.Helper()
	srv := server.New(server.Config{IdleTTL: -1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	c := New(ts.URL)
	id := fmt.Sprintf("v64-%d", seed)
	_, err := c.CreateSession(context.Background(), api.SessionSpec{
		ID:        id,
		Workload:  api.WorkloadSpec{Category: "CPBB", Cores: 64, Seed: seed},
		Mechanism: "rebudget-20",
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.StepEpoch(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if v.Alloc == nil || len(v.Alloc.Players) != 64 || v.Alloc.MUR == nil {
		t.Fatalf("not a 64-player market view: %+v", v)
	}
	return v
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// One epoch is the daemon's default for a bodyless POST: the client must
// send none, or the daemon's bodyless fast path (and the router's, which
// buffers and replays whatever it is sent) is never taken by the repo's own
// traffic. A batch still names its count.
func TestStepEpochSendsNoBody(t *testing.T) {
	var got *http.Request
	var body []byte
	c := stubClient(func(r *http.Request) (*http.Response, error) {
		got = r
		body = nil
		if r.Body != nil {
			body, _ = io.ReadAll(r.Body)
		}
		return okBody([]byte(`{"id":"s"}`)), nil
	})
	if _, err := c.StepEpoch(context.Background(), "s"); err != nil {
		t.Fatal(err)
	}
	if got.Method != http.MethodPost || got.URL.Path != "/v1/sessions/s/epoch" {
		t.Fatalf("request = %s %s", got.Method, got.URL.Path)
	}
	if got.ContentLength != 0 || len(body) != 0 {
		t.Fatalf("StepEpoch sent a body: ContentLength %d, %q", got.ContentLength, body)
	}
	if ct := got.Header.Get("Content-Type"); ct != "" {
		t.Fatalf("StepEpoch sent Content-Type %q with no body", ct)
	}
	if _, err := c.StepEpochs(context.Background(), "s", 3); err != nil {
		t.Fatal(err)
	}
	if string(body) != `{"epochs":3}` || got.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("StepEpochs(3) sent %q (Content-Type %q)", body, got.Header.Get("Content-Type"))
	}
}

// The response buffer is shared through a pool, so nothing a call returns
// may point into it: two goroutines on one client each get their own view,
// and a view decoded before the buffer's next use is unchanged after it.
// Run under -race, this is what keeps SessionView free of json.RawMessage
// (or any other field that keeps the input bytes).
func TestPooledDecodeDoesNotAlias(t *testing.T) {
	views := map[string]api.SessionView{"a": view64(t, 1), "b": view64(t, 2)}
	if reflect.DeepEqual(views["a"].Alloc, views["b"].Alloc) {
		t.Fatal("the two canned views must differ")
	}
	bodies := map[string][]byte{}
	for id, v := range views {
		bodies[id] = mustJSON(t, v)
	}
	c := stubClient(func(r *http.Request) (*http.Response, error) {
		id := strings.Split(r.URL.Path, "/")[3]
		return okBody(bodies[id]), nil
	})

	first, err := c.GetSession(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, id := range []string{"a", "b"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v, err := c.GetSession(context.Background(), id)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(v, views[id]) {
					t.Errorf("goroutine %q decoded someone else's view on call %d", id, i)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if !reflect.DeepEqual(first, views["a"]) {
		t.Fatal("a view decoded earlier changed when its buffer was reused")
	}
}

// A response above the pool cap decodes like any other, and its buffer is
// dropped rather than pooled: one giant listing must not pin a megabyte
// per pool slot forever.
func TestOversizeResponseIsNotPinned(t *testing.T) {
	v := view64(t, 1)
	var list api.SessionList
	for i := 0; i < 1<<20/len(mustJSON(t, v))+1; i++ {
		list.Sessions = append(list.Sessions, v)
	}
	body := mustJSON(t, list)
	if len(body) < 1<<20 {
		t.Fatalf("listing is only %d bytes", len(body))
	}
	c := stubClient(func(*http.Request) (*http.Response, error) { return okBody(body), nil })
	got, err := c.ListSessions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, list.Sessions) {
		t.Fatal("the 1 MB listing decoded to different views")
	}
	// Drain the pool: a Put buffer comes straight back to the goroutine that
	// put it, so the big one would be among these had it been kept.
	for i := 0; i < 64; i++ {
		buf := respBufs.Get().(*bytes.Buffer)
		if buf.Cap() > api.PoolBufCap {
			t.Fatalf("pool retained a %d-byte buffer (cap %d)", buf.Cap(), api.PoolBufCap)
		}
		if buf.Cap() == 0 {
			break // a fresh one: the pool is empty
		}
	}
}

// Dropping the indentation changes no decoded value: the same view through
// the encoder the daemon used before (kept here as the reference) and the
// compact one it uses now decodes to identical structs, the NaN-guarded
// pointer fields included.
func TestCompactAndIndentedDecodeEqual(t *testing.T) {
	v := view64(t, 7)
	var indented bytes.Buffer
	enc := json.NewEncoder(&indented)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	compact := append(mustJSON(t, v), '\n')
	if len(compact)*5 > indented.Len()*4 {
		t.Fatalf("compact %d B vs indented %d B: expected at least a fifth less", len(compact), indented.Len())
	}
	decode := func(body []byte) api.SessionView {
		c := stubClient(func(*http.Request) (*http.Response, error) { return okBody(body), nil })
		out, err := c.GetSession(context.Background(), v.ID)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := decode(indented.Bytes()), decode(compact)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, v) {
		t.Fatal("indented and compact encodings decode to different views")
	}
	for name, p := range map[string]*float64{"mur": a.Alloc.MUR, "mbr": a.Alloc.MBR,
		"poa_bound": a.Alloc.PoABound, "ef_bound": a.Alloc.EFBound, "envy_freeness": a.Alloc.EnvyFreeness} {
		if p == nil {
			t.Errorf("%s missing from a converged 64-core view", name)
		}
	}
}
