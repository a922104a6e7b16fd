package bootline

import (
	"bytes"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"reflect"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestAddrReadsWhatLogWrites holds the two halves of the contract together:
// whatever Log writes through the daemons' text handler, Addr reads back,
// and no other log line is mistaken for it.
func TestAddrReadsWhatLogWrites(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	log.Info("signal received, draining", "addr", "10.0.0.1:1")
	if _, ok := Addr(buf.String()); ok {
		t.Fatalf("a non-startup line parsed as one: %q", buf.String())
	}
	for _, extra := range [][]any{nil, {"shards", 2}} {
		buf.Reset()
		Log(log, "rebudget-router", "127.0.0.1:43123", extra...)
		got, ok := Addr(buf.String())
		if !ok || got != "127.0.0.1:43123" {
			t.Fatalf("Addr(%q) = %q, %v", buf.String(), got, ok)
		}
	}
}

// TestLogger: -log text gives the handler Addr reads, json the collectors'
// one, and any other format is refused, naming the daemon and the flag.
func TestLogger(t *testing.T) {
	for format, want := range map[string]any{"text": &slog.TextHandler{}, "json": &slog.JSONHandler{}} {
		log, err := Logger("rebudgetd", format)
		if err != nil {
			t.Fatalf("-log %s: %v", format, err)
		}
		if got := log.Handler(); reflect.TypeOf(got) != reflect.TypeOf(want) {
			t.Errorf("-log %s: handler %T, want %T", format, got, want)
		}
	}
	if _, err := Logger("rebudgetd", "xml"); err == nil || err.Error() != `rebudgetd: unknown -log format "xml"` {
		t.Errorf("-log xml: error %v", err)
	}
}

// shellUnderTest serves h through a Shell on a loopback listener, with
// hooks that append to the returned step log.
func shellUnderTest(t *testing.T) (sh Shell, ln net.Listener, steps func() []string, step func(string)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var log []string
	step = func(s string) { mu.Lock(); log = append(log, s); mu.Unlock() }
	steps = func() []string { mu.Lock(); defer mu.Unlock(); return slices.Clone(log) }
	sh = Shell{Name: "testd", Log: slog.New(slog.NewTextHandler(io.Discard, nil)), Grace: 5 * time.Second,
		Drain: func() { step("drain") }, Close: func() { step("close") }, Reload: func() { step("reload") }}
	return sh, ln, steps, step
}

// TestShellSignalOrder: SIGHUP reloads and serving goes on. SIGTERM runs
// drain, then Shutdown — which lets the request in flight finish and stops
// the listener — then close, each once. A second SIGTERM arriving mid-drain
// lands in the channel's buffer and changes nothing.
func TestShellSignalOrder(t *testing.T) {
	sh, ln, steps, step := shellUnderTest(t)
	addr := ln.Addr().String()
	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(entered)
			<-release
			step("served")
		}
	})
	sigc := make(chan os.Signal, 1)
	sh.Drain = func() {
		step("drain")
		select {
		case sigc <- syscall.SIGTERM: // the second signal
		default:
			t.Error("second signal would block")
		}
		close(release)
	}
	sh.Close = func() {
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			t.Error("close ran while the listener still accepted")
		}
		step("close")
	}
	done := make(chan error, 1)
	go func() { done <- sh.serve(ln, h, sigc) }()

	sigc <- syscall.SIGHUP
	slow := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err == nil {
			resp.Body.Close()
		}
		slow <- err
	}()
	<-entered
	sigc <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("serve after SIGTERM: %v", err)
	}
	if err := <-slow; err != nil {
		t.Errorf("the request in flight at SIGTERM failed: %v", err)
	}
	if got, want := steps(), []string{"reload", "drain", "served", "close"}; !slices.Equal(got, want) {
		t.Errorf("steps %v, want %v", got, want)
	}
}

// TestShellServeFailure: when serving fails, close runs (drain does not)
// and serve reports the failure, which Run turns into exit status 1.
func TestShellServeFailure(t *testing.T) {
	sh, ln, steps, _ := shellUnderTest(t)
	done := make(chan error, 1)
	go func() { done <- sh.serve(ln, http.NotFoundHandler(), make(chan os.Signal, 1)) }()
	ln.Close() // the listener dies under the server
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("serve returned nil after its listener failed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after its listener failed")
	}
	if got, want := steps(), []string{"close"}; !slices.Equal(got, want) {
		t.Errorf("steps %v, want %v", got, want)
	}
}
