// Package bootline is the serving daemons' process shell. Shell is the one
// listen → serve → signal → drain → Shutdown → close loop that rebudgetd,
// rebudget-router and rebudget-snapstore run, and Logger their one log
// setup. It also holds the startup-line contract with the end-to-end
// harness: a daemon bound to port 0 announces where it landed with Log,
// and internal/e2e reads the address back out of the process's log with
// Addr. Both sides of `<daemon> listening … addr=…` live here so neither
// can drift from the other.
package bootline

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

const (
	marker  = " listening"
	addrKey = "addr"
)

// Log writes the daemon's one startup line: "<daemon> listening" with the
// bound address first among its attributes, then any extras.
func Log(log *slog.Logger, daemon, addr string, extra ...any) {
	log.Info(daemon+marker, append([]any{addrKey, addr}, extra...)...)
}

// Addr extracts the bound address from a text-format log line written by
// Log; ok is false for every other line.
func Addr(line string) (addr string, ok bool) {
	_, rest, found := strings.Cut(line, marker)
	if !found {
		return "", false
	}
	_, rest, found = strings.Cut(rest, " "+addrKey+"=")
	if !found {
		return "", false
	}
	if i := strings.IndexAny(rest, " \n"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// Logger is the daemon's logger on stderr in format, the value of its -log
// flag: "text", the format Addr reads, or "json" for log collectors.
func Logger(daemon, format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("%s: unknown -log format %q", daemon, format)
}

// Shell runs one daemon's HTTP server: bind, the startup line, serve, and
// on SIGINT/SIGTERM Drain, then Shutdown within Grace, then Close. A serve
// failure runs Close too. The hooks may be nil.
type Shell struct {
	Name  string // the daemon: "<Name> listening" starts it
	Log   *slog.Logger
	Grace time.Duration // what Shutdown may wait for in-flight requests

	Drain  func() // before Shutdown: stop taking new work
	Close  func() // after Shutdown, or after a serve failure
	Reload func() // on SIGHUP; nil leaves SIGHUP to its default
}

// Run serves h on addr until a signal stops it, then returns; the caller
// writes its own stop line. A bind or serve failure exits the process
// with status 1. extra are the startup line's attributes after addr.
func (sh Shell) Run(addr string, h http.Handler, extra ...any) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		sh.Log.Error("listen failed", "addr", addr, "err", err)
		os.Exit(1)
	}
	Log(sh.Log, sh.Name, ln.Addr().String(), extra...)
	// The channel stays subscribed after the first signal, so a second one
	// lands in its buffer instead of killing a process mid-drain.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	if sh.Reload != nil {
		signal.Notify(sigc, syscall.SIGHUP)
	}
	if sh.serve(ln, h, sigc) != nil {
		os.Exit(1)
	}
}

// serve is Run past the bind: it serves on ln and answers sigc until a
// stop signal has drained the server (nil) or serving failed (the error,
// after Close).
func (sh Shell) serve(ln net.Listener, h http.Handler, sigc <-chan os.Signal) error {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	for {
		select {
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				run(sh.Reload)
				continue
			}
			sh.Log.Info("signal received, shutting down", "signal", sig.String())
			run(sh.Drain)
			ctx, cancel := context.WithTimeout(context.Background(), sh.Grace)
			if err := hs.Shutdown(ctx); err != nil {
				sh.Log.Warn("shutdown incomplete", "err", err)
			}
			cancel()
			run(sh.Close)
			return nil
		case err := <-errc: // only Shutdown ends Serve cleanly, and it is ours
			sh.Log.Error("serve failed", "err", err)
			run(sh.Close)
			return err
		}
	}
}

func run(hook func()) {
	if hook != nil {
		hook()
	}
}
