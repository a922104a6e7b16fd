package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"rebudget/internal/router"
	"rebudget/internal/server"
	"rebudget/internal/server/client"
)

// discardLog drops the daemons' per-request logs, as BenchmarkServeEpoch does.
func discardLog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// listener is one HTTP server on a loopback port the kernel picked.
type listener struct {
	base string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{
		base: "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return l, nil
}

func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		_ = l.srv.Close()
	}
	<-l.done
}

// tier is the product surface the serve workloads drive: rebudget-router in
// front of two rebudgetd shards, all in this process, talking over real
// loopback HTTP. Everything the harness measures it measures from outside,
// through seams the packages already expose.
type tier struct {
	shards  []*server.Server
	shardL  []*listener
	rt      *router.Router
	routerL *listener
	xport   *http.Transport // the router's data-path transport
	clients []*http.Transport
	admin   *http.Transport // the harness's own scrapes

	// Seam instrumentation, armed in the traced run and the layer ladder.
	fwd     *timedTransport
	store   *timedStore
	rtrNS   atomic.Int64 // total time inside the router's handler
	rtrReqs atomic.Int64 // requests it served
}

type tierConfig struct {
	snapshots   server.SnapshotStore // shared by both shards; nil for none
	maxSessions int
	tr          *tracer // non-nil arms the seams
}

func newTier(cfg tierConfig) (*tier, error) {
	t := &tier{xport: http.DefaultTransport.(*http.Transport).Clone()}
	snaps := cfg.snapshots
	if cfg.tr != nil && snaps != nil {
		t.store = &timedStore{inner: snaps, tr: cfg.tr}
		snaps = t.store
	}
	var bases []string
	for i := 0; i < 2; i++ {
		s := server.New(server.Config{
			MaxSessions: cfg.maxSessions,
			IdleTTL:     -1,
			ParkAfter:   -1,
			Snapshots:   snaps,
			Logger:      discardLog(),
		})
		l, err := serve(s.Handler())
		if err != nil {
			s.Close()
			t.close()
			return nil, err
		}
		t.shards = append(t.shards, s)
		t.shardL = append(t.shardL, l)
		bases = append(bases, l.base)
	}
	var rtrXport http.RoundTripper = t.xport
	if cfg.tr != nil {
		t.fwd = &timedTransport{base: t.xport, tr: cfg.tr}
		rtrXport = t.fwd
	}
	rt, err := router.New(router.Config{Backends: bases, Transport: rtrXport, Logger: discardLog()})
	if err != nil {
		t.close()
		return nil, err
	}
	t.rt = rt
	h := rt.Handler()
	if cfg.tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			inner.ServeHTTP(w, r)
			t.rtrNS.Add(int64(time.Since(start)))
			t.rtrReqs.Add(1)
		})
	}
	if t.routerL, err = serve(h); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// client returns a typed client with a connection pool of its own, so each
// client goroutine holds exactly one connection to whatever it talks to.
func (t *tier) client(base string) *client.Client {
	x := http.DefaultTransport.(*http.Transport).Clone()
	t.clients = append(t.clients, x)
	return client.New(base, client.WithHTTPClient(&http.Client{Transport: x, Timeout: client.DefaultTimeout}))
}

func (t *tier) routerClient() *client.Client { return t.client(t.routerL.base) }

// scrape sums both shards' /metrics and reads the router's.
func (t *tier) scrape(ctx context.Context) (shards, rtr promSample, err error) {
	shards = make(promSample)
	if t.admin == nil {
		t.admin = http.DefaultTransport.(*http.Transport).Clone()
		t.clients = append(t.clients, t.admin)
	}
	hc := client.WithHTTPClient(&http.Client{Transport: t.admin})
	for _, l := range t.shardL {
		text, err := client.New(l.base, hc).Metrics(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("scrape shard: %w", err)
		}
		shards.add(parseProm(text))
	}
	text, err := client.New(t.routerL.base, hc).Metrics(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("scrape router: %w", err)
	}
	return shards, parseProm(text), nil
}

// close stops the listeners first, then the router and the shards, and
// returns once every goroutine they own has exited.
func (t *tier) close() {
	for _, x := range t.clients {
		x.CloseIdleConnections()
	}
	if t.routerL != nil {
		t.routerL.close()
	}
	if t.rt != nil {
		t.rt.Close()
	}
	t.xport.CloseIdleConnections()
	for _, l := range t.shardL {
		l.close()
	}
	for _, s := range t.shards {
		s.Close()
	}
}

// sessionKey extracts {id} from /v1/sessions/{id}[/verb]; a create (no id in
// the path) maps to "", under which the harness publishes its one in-flight
// create.
func sessionKey(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/sessions/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// timedTransport sits in router.Config.Transport: every request the router
// forwards to a shard passes through it, so it sees the hop from outside.
type timedTransport struct {
	base http.RoundTripper
	tr   *tracer
	ns   atomic.Int64 // total time inside RoundTrip
}

func (t *timedTransport) RoundTrip(req *http.Request) (resp *http.Response, err error) {
	start := time.Now()
	t.tr.seam(sessionKey(req.URL.Path), "router.forward", func() {
		resp, err = t.base.RoundTrip(req)
	})
	t.ns.Add(int64(time.Since(start)))
	return resp, err
}

// timedStore sits in server.Config.Snapshots.
type timedStore struct {
	inner server.SnapshotStore
	tr    *tracer

	saveNS, loadNS atomic.Int64
	saves, loads   atomic.Int64
}

func (s *timedStore) Save(snap *server.SessionSnapshot) (err error) {
	start := time.Now()
	s.tr.seam(snap.ID, "snapshot.save", func() { err = s.inner.Save(snap) })
	s.saveNS.Add(int64(time.Since(start)))
	s.saves.Add(1)
	return err
}

func (s *timedStore) Load(id string) (snap *server.SessionSnapshot, err error) {
	start := time.Now()
	s.tr.seam(id, "snapshot.load", func() { snap, err = s.inner.Load(id) })
	s.loadNS.Add(int64(time.Since(start)))
	s.loads.Add(1)
	return snap, err
}

func (s *timedStore) Delete(id string) error { return s.inner.Delete(id) }
