// Command rebudgetd is the allocation-as-a-service daemon: an HTTP/JSON
// server hosting many concurrent chip sessions, each re-running its
// market-based allocation mechanism once per epoch with warm-started
// equilibria (§4.3's reallocation loop, lifted into a multi-tenant
// service). See DESIGN.md, "Serving layer", and README for the API.
//
// Usage:
//
//	rebudgetd -addr :8344 -max-sessions 128 -idle-ttl 10m
//
// SIGINT/SIGTERM starts a graceful drain: /healthz flips to 503, new
// sessions are refused, in-flight requests finish, then sessions close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rebudget/internal/cluster"
	"rebudget/internal/e2e/bootline"
	"rebudget/internal/server"
	"rebudget/internal/snapshot"
)

// options is the parsed command line: the configs the flags fill in
// directly, plus what main itself consumes. DESIGN.md's "Serving knobs"
// table documents every flag; main_test.go fails when the two drift.
type options struct {
	cfg     server.Config
	tenancy server.TenancyConfig

	addr, snapshotDir, snapshotURL, logFormat, tenants string
	drainWait                                          time.Duration
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8344", "listen address")
	fs.IntVar(&o.cfg.MaxSessions, "max-sessions", 128, "resident session cap (LRU eviction beyond it)")
	fs.DurationVar(&o.cfg.IdleTTL, "idle-ttl", 10*time.Minute, "evict sessions idle this long (0 disables)")
	fs.Float64Var(&o.cfg.CostCapacity, "cost-capacity", 0, "dispatcher budget in cost units; the queue holds 4x it before 429 (0 = 8x GOMAXPROCS)")
	fs.DurationVar(&o.cfg.RequestTimeout, "timeout", 10*time.Second, "per-request allocation deadline")
	fs.DurationVar(&o.drainWait, "drain-wait", 10*time.Second, "graceful shutdown budget")
	fs.StringVar(&o.snapshotDir, "snapshot-dir", "", "persist session snapshots here; evicted/drained sessions rehydrate on next touch (empty disables)")
	fs.StringVar(&o.snapshotURL, "snapshot-url", "", "rebudget-snapstore base URL for snapshots; with -snapshot-dir too, writes replicate to both and reads pick the freshest")
	fs.Float64Var(&o.cfg.SessionRPS, "session-rps", 0, "per-session epoch budget, epochs/sec (0 disables rate limiting)")
	fs.StringVar(&o.logFormat, "log", "text", "log format: text or json")

	fs.DurationVar(&o.cfg.ParkAfter, "park-after", 0, "hibernate sessions idle this long: loop goroutine exits, engine is dropped, next touch rebuilds bit-identically (0 = 5m default, negative disables)")
	fs.StringVar(&o.cfg.APIKey, "api-key", "", "require this bearer token on mutating endpoints; GET/HEAD, /healthz and /metrics stay open (empty disables)")

	fs.StringVar(&o.tenants, "tenants", "", "arm the tenant budget economy: comma-separated path[:share[:weight[:floor]]] entries (e.g. acme/prod:3:2:0.5,free); empty with -tenant-epoch 0 disables tenancy")
	fs.DurationVar(&o.tenancy.Epoch, "tenant-epoch", 0, "tenant rebalance period (0 = 250ms when tenancy is armed)")
	fs.Float64Var(&o.tenancy.MBRFloor, "tenant-mbr", 0, "default per-tenant fairness floor in (0,1] (0 = 0.25)")
	return o
}

// validate rejects the numeric flags a typo or a NaN could turn into a
// daemon that boots but admits nothing. It names the offending flag.
func (o *options) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"cost-capacity", o.cfg.CostCapacity}, {"session-rps", o.cfg.SessionRPS}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("bad -%s %v: want a finite number >= 0", f.name, f.v)
		}
	}
	if m := o.tenancy.MBRFloor; !(m >= 0 && m <= 1) {
		return fmt.Errorf("bad -tenant-mbr %v: want (0,1]", m)
	}
	return nil
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "rebudgetd: %v\n", err)
		os.Exit(2)
	}

	log, err := bootline.Logger("rebudgetd", o.logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var stores []snapshot.Store
	if o.snapshotDir != "" {
		fs, err := snapshot.NewFileStore(o.snapshotDir)
		if err != nil {
			log.Error("snapshot store failed", "dir", o.snapshotDir, "err", err)
			os.Exit(1)
		}
		stores = append(stores, fs)
	}
	if o.snapshotURL != "" {
		stores = append(stores, cluster.NewHTTPSnapshotStore(o.snapshotURL, nil))
	}
	var snaps snapshot.Store
	switch len(stores) {
	case 0:
	case 1:
		snaps = stores[0]
	default:
		rs, err := cluster.NewReplicatedSnapshotStore(stores...)
		if err != nil {
			log.Error("replicated snapshot store failed", "err", err)
			os.Exit(1)
		}
		snaps = rs
	}

	// Tenancy is armed by any -tenant* flag; with none set, admission keeps
	// the flat dispatcher budget (the pre-tenancy contract, bit-identical).
	if t := &o.tenancy; o.tenants != "" || t.Epoch > 0 || t.MBRFloor > 0 {
		specs, err := server.ParseTenants(o.tenants)
		if err != nil {
			log.Error("bad -tenants", "err", err)
			os.Exit(2)
		}
		t.Tenants = specs
		o.cfg.Tenancy = t
	}
	o.cfg.Snapshots = snaps
	o.cfg.Logger = log
	srv := server.New(o.cfg)

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		log.Error("listen failed", "addr", o.addr, "err", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	bootline.Log(log, "rebudgetd", ln.Addr().String())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Info("signal received, draining", "signal", sig.String())
		srv.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), o.drainWait)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Warn("shutdown incomplete", "err", err)
		}
		srv.Close()
		log.Info("rebudgetd stopped")
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Error("serve failed", "err", err)
			srv.Close()
			os.Exit(1)
		}
	}
}
