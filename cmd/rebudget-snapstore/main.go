// Command rebudget-snapstore is the standalone snapshot service: a blob
// store keyed by snapshot id that rebudgetd shards point at with
// -snapshot-url instead of (or alongside) a local -snapshot-dir. Each
// blob's SHA-256 and CRC32 are recorded on write and re-checked on every
// read, so a rotten blob surfaces as a miss (the daemon cold-starts)
// rather than a poisoned rehydrate. See DESIGN.md, "Elastic membership".
//
// Usage:
//
//	rebudget-snapstore -addr :8345
//	rebudgetd -addr :9001 -snapshot-url http://127.0.0.1:8345
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rebudget/internal/cluster"
	"rebudget/internal/e2e/bootline"
)

// options is the parsed command line. DESIGN.md's "Serving knobs" table
// documents every flag; main_test.go fails when the two drift.
type options struct {
	addr, logFormat string
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8345", "listen address")
	fs.StringVar(&o.logFormat, "log", "text", "log format: text or json")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	log, err := bootline.Logger("rebudget-snapstore", o.logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ss := cluster.NewSnapServer(0, log)

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		log.Error("listen failed", "addr", o.addr, "err", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: ss.Handler(), ReadHeaderTimeout: 5 * time.Second}
	bootline.Log(log, "rebudget-snapstore", ln.Addr().String())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Info("signal received, shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Warn("shutdown incomplete", "err", err)
		}
		log.Info("rebudget-snapstore stopped", "snapshots", ss.Len())
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Error("serve failed", "err", err)
			os.Exit(1)
		}
	}
}
