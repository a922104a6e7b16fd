// Command rebudget-router is the sharded serving tier: a consistent-hash
// reverse proxy that places rebudgetd sessions on N backend shards by
// session id, probes each shard's /healthz, and fails open to the next
// ring position when a shard dies or drains. Run the shards with a shared
// -snapshot-dir and a ring move becomes a warm migration: the receiving
// shard rehydrates the session from its snapshot. Per-shard circuit
// breakers catch gray failures the probes miss, and retry budgets bound
// failover amplification during brownouts. See DESIGN.md, "Sharded
// serving" and "Failure model & chaos", and the README quick-start.
//
// Membership is elastic: with -admin-token, POST/DELETE /admin/shards add
// and remove shards under live traffic (resident sessions migrate by
// snapshot at a bounded per-tick budget), -backends-file re-reads the
// shard list on SIGHUP, and -gossip-peers exchanges probe state and
// membership with sibling routers. A plain -backends list is a membership
// that never changes. See DESIGN.md, "Elastic membership".
//
// Usage:
//
//	rebudget-router -addr :8343 \
//	  -backends http://127.0.0.1:9001,http://127.0.0.1:9002
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"rebudget/internal/e2e/bootline"
	"rebudget/internal/router"
)

// options is the parsed command line: the router config the flags fill in
// directly, plus what main itself consumes. DESIGN.md's "Serving knobs"
// table documents every flag; main_test.go fails when the two drift.
type options struct {
	cfg router.Config

	addr, backends, logFormat, backendsFile, gossipPeers string
}

func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8343", "listen address")
	fs.StringVar(&o.backends, "backends", "", "comma-separated shard base URLs (required)")
	fs.DurationVar(&o.cfg.ProbeInterval, "probe-interval", time.Second, "/healthz polling period")
	fs.DurationVar(&o.cfg.ProxyTimeout, "proxy-timeout", 30*time.Second, "per-proxied-request deadline")
	fs.StringVar(&o.cfg.BackendAPIKey, "backend-api-key", "", "bearer token for shards running with -api-key: sent on the router's own calls and injected on proxied requests that carry no Authorization")
	fs.StringVar(&o.logFormat, "log", "text", "log format: text or json")

	fs.StringVar(&o.cfg.AdminToken, "admin-token", "", "bearer token for the /admin membership endpoints (mounted only when set) and for /gossip")
	fs.StringVar(&o.backendsFile, "backends-file", "", "file of shard URLs (one per line, # comments); re-read and applied on SIGHUP")
	fs.DurationVar(&o.cfg.MigrationInterval, "migration-interval", 0, "migration tick period (0 = 200ms)")
	fs.StringVar(&o.gossipPeers, "gossip-peers", "", "comma-separated sibling router URLs for probe-state gossip")
	fs.DurationVar(&o.cfg.GossipInterval, "gossip-interval", 0, "gossip exchange period (0 = 1s)")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	log, err := bootline.Logger("rebudget-router", o.logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var bases []string
	for _, b := range strings.Split(o.backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			bases = append(bases, b)
		}
	}
	if o.backendsFile != "" {
		fileBases, err := readBackendsFile(o.backendsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rebudget-router: %v\n", err)
			os.Exit(2)
		}
		bases = append(bases, fileBases...)
	}
	if len(bases) == 0 {
		fmt.Fprintln(os.Stderr, "rebudget-router: -backends or -backends-file is required (shard URLs)")
		os.Exit(2)
	}

	for _, p := range strings.Split(o.gossipPeers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			o.cfg.GossipPeers = append(o.cfg.GossipPeers, p)
		}
	}
	o.cfg.Backends = bases
	o.cfg.Logger = log
	rt, err := router.New(o.cfg)
	if err != nil {
		log.Error("router construction failed", "err", err)
		os.Exit(1)
	}

	sh := bootline.Shell{Name: "rebudget-router", Log: log, Grace: 10 * time.Second, Close: rt.Close}
	if o.backendsFile != "" {
		sh.Reload = func() { reload(log, rt, o.backendsFile) }
	}
	sh.Run(o.addr, rt.Handler(), "shards", len(bases))
	log.Info("rebudget-router stopped")
}

// reload is the SIGHUP config reload: re-read the shard list and reconcile
// the ring against it (adds and drains happen under traffic).
func reload(log *slog.Logger, rt *router.Router, path string) {
	fileBases, err := readBackendsFile(path)
	if err != nil {
		log.Warn("reload skipped: backends file unreadable", "err", err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.SetBackends(ctx, fileBases); err != nil {
		log.Warn("reload failed", "err", err)
		return
	}
	log.Info("backends reloaded", "shards", len(fileBases), "epoch", rt.Epoch())
}

// readBackendsFile parses a shard-list file: one URL per line, blank
// lines and #-comments ignored (inline comments after a URL too).
func readBackendsFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("backends file: %w", err)
	}
	var bases []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if line = strings.TrimSpace(line); line != "" {
			bases = append(bases, line)
		}
	}
	if len(bases) == 0 {
		return nil, fmt.Errorf("backends file %s: no shard URLs", path)
	}
	return bases, nil
}
