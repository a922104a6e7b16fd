package router

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rebudget/internal/server/client"
)

// routerOver boots a router in front of one stub shard.
func routerOver(t testing.TB, shard http.Handler) (*Router, *httptest.Server) {
	t.Helper()
	backend := httptest.NewServer(shard)
	rt, err := New(Config{
		Backends:      []string{backend.URL},
		ProbeInterval: time.Hour,
		Logger:        discardLog(),
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { front.Close(); rt.Close(); backend.Close() })
	return rt, front
}

// The relay hands a shard's answer on byte for byte whatever its size: a
// body far above the relay buffer and every pool cap, a 204, and a 200 with
// no bytes at all.
func TestRelayIsByteForByte(t *testing.T) {
	big := bytes.Repeat([]byte(`{"sessions":"0123456789abcdef"}`+"\n"), 1<<20/32+1)
	_, front := routerOver(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch path.Base(r.URL.Path) {
		case "big":
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(big)
		case "gone":
			w.WriteHeader(http.StatusNoContent)
		case "empty":
			w.WriteHeader(http.StatusOK)
		}
	}))
	for _, tc := range []struct {
		id   string
		code int
		body []byte
	}{
		{"big", http.StatusOK, big},
		{"gone", http.StatusNoContent, nil},
		{"empty", http.StatusOK, nil},
	} {
		resp, err := http.Get(front.URL + "/v1/sessions/" + tc.id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		if resp.StatusCode != tc.code || !bytes.Equal(got, tc.body) {
			t.Fatalf("%s: relayed %d with %d bytes, want %d with %d bytes",
				tc.id, resp.StatusCode, len(got), tc.code, len(tc.body))
		}
	}
}

// A shard that dies after its headers must not be answered to the client as
// a 200 whose body ends cleanly on half a document: the router breaks the
// connection, counts the abort, and serves the next request as usual.
func TestRelayAbortsWhenShardBreaksMidBody(t *testing.T) {
	var calls atomic.Int64
	rt, front := routerOver(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" || calls.Add(1) > 1 {
			w.Header().Set("Content-Type", "application/json")
			_, _ = io.WriteString(w, `{"id":"s","cores":8}`+"\n")
			return
		}
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n" +
			strings.Repeat("x", 500))
		_ = buf.Flush()
		_ = conn.Close()
	}))
	c := client.New(front.URL)
	_, err := c.GetSession(context.Background(), "s")
	if err == nil {
		t.Fatal("half a body was delivered as a success")
	}
	// The exchange must fail on the wire: before the headers (a *url.Error
	// from the round trip) or inside the body. A status, or a complete body
	// the view decoder then refuses, is a relay that framed the abort.
	var urlErr *url.Error
	if !errors.As(err, &urlErr) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want a transport error, got %T: %v", err, err)
	}
	if n := rt.met.relayAborted.Load(); n != 1 {
		t.Fatalf("relay_aborted = %d, want 1", n)
	}
	front.CloseClientConnections()
	v, err := c.GetSession(context.Background(), "s")
	if err != nil || v.ID != "s" || v.Cores != 8 {
		t.Fatalf("request after the abort: %+v, %v", v, err)
	}
	if n := rt.met.relayAborted.Load(); n != 1 {
		t.Fatalf("relay_aborted = %d after a clean relay, want 1", n)
	}
}
