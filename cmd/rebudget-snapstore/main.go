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
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rebudget/internal/cluster"
	"rebudget/internal/e2e/bootline"
)

func main() {
	var (
		addr      = flag.String("addr", ":8345", "listen address")
		maxBody   = flag.Int64("max-body", 0, "largest accepted snapshot in bytes (0 = 4 MiB)")
		logFormat = flag.String("log", "text", "log format: text or json")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "rebudget-snapstore: unknown -log format %q\n", *logFormat)
		os.Exit(2)
	}
	log := slog.New(handler)

	ss := cluster.NewSnapServer(*maxBody, log)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "err", err)
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
