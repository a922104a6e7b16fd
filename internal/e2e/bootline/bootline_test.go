package bootline

import (
	"bytes"
	"log/slog"
	"reflect"
	"testing"
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
