package server

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rebudget/internal/api"
)

// spawnSession builds a session through the same install path handleCreate
// uses, bypassing HTTP — the fixture for density tests where 10k round-trips
// would dominate the test budget.
func spawnSession(srv *Server, spec api.SessionSpec) (*session, error) {
	if err := validate(spec); err != nil {
		return nil, err
	}
	return srv.install(context.Background(), spec.ID, spec, nil)
}

func fig3Spec(id, mech string) api.SessionSpec {
	return api.SessionSpec{ID: id, Workload: api.WorkloadSpec{Fig3: true}, Mechanism: mech}
}

// TestParkUnparkBitIdentity: a session that hibernates mid-run and is woken
// by the next epoch request must produce exactly the allocations of an
// uninterrupted twin — unpark rides the snapshot-restore path that already
// guarantees warm-start bit-identity.
func TestParkUnparkBitIdentity(t *testing.T) {
	srv, ts := newTestDaemon(t, Config{ParkAfter: time.Hour})
	for _, id := range []string{"cold", "warm"} {
		if resp := doJSON(t, "POST", ts.URL+"/v1/sessions", fig3Spec(id, "rebudget-0.05"), nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d", id, resp.StatusCode)
		}
	}
	step := func(id string) api.SessionView {
		var v api.SessionView
		if resp := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/epoch", nil, &v); resp.StatusCode != http.StatusOK {
			t.Fatalf("epoch %s: %d", id, resp.StatusCode)
		}
		return v
	}
	for i := 0; i < 3; i++ {
		step("cold")
		step("warm")
	}

	sess := srv.store.get("cold")
	if sess == nil {
		t.Fatal("cold session missing")
	}
	if !sess.park(time.Now(), 0) {
		t.Fatal("park refused")
	}
	if !sess.isParked() {
		t.Fatal("session not marked parked")
	}
	// A parked session still answers reads from its cached view — without
	// waking up.
	var view api.SessionView
	if resp := doJSON(t, "GET", ts.URL+"/v1/sessions/cold", nil, &view); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET parked: %d", resp.StatusCode)
	}
	if view.Epochs != 3 {
		t.Fatalf("parked view epochs = %d, want 3", view.Epochs)
	}
	if !sess.isParked() {
		t.Fatal("GET woke the parked session")
	}

	// Epochs transparently unpark; outputs must match the uninterrupted twin
	// epoch for epoch.
	for i := 0; i < 3; i++ {
		vc, vw := step("cold"), step("warm")
		if i == 0 && sess.isParked() {
			t.Fatal("epoch request did not unpark the session")
		}
		if vc.Epochs != vw.Epochs {
			t.Fatalf("epoch drift: cold %d vs warm %d", vc.Epochs, vw.Epochs)
		}
		if !reflect.DeepEqual(vc.Alloc, vw.Alloc) {
			t.Fatalf("epoch %d: parked/unparked allocations diverge:\ncold: %+v\nwarm: %+v", vc.Epochs, vc.Alloc, vw.Alloc)
		}
	}
	if srv.met.unparked.Load() != 1 {
		t.Fatalf("unparked counter = %d, want 1", srv.met.unparked.Load())
	}
}

// TestParkSweepPolicy: the sweep parks sessions idle past ParkAfter, skips
// ticker sessions (self-driving, never idle by design), skips fresh ones,
// and the parked population is visible on /metrics. The ticker session
// steps epochs with no client request at all. Deleting a parked session
// must release it cleanly.
func TestParkSweepPolicy(t *testing.T) {
	srv, ts := newTestDaemon(t, Config{ParkAfter: time.Minute})
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions", fig3Spec("idle", "equalshare"), nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create idle: %d", resp.StatusCode)
	}
	ticky := fig3Spec("ticky", "equalshare")
	ticky.TickerMillis = 50
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions", ticky, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create ticky: %d", resp.StatusCode)
	}

	// Nothing parks before the deadline.
	srv.parkSweep(time.Now())
	if srv.met.parked.Load() != 0 {
		t.Fatal("fresh session parked prematurely")
	}
	// Past the deadline the idle session parks; the ticker session never does.
	srv.parkSweep(time.Now().Add(5 * time.Minute))
	if got := srv.met.parked.Load(); got != 1 {
		t.Fatalf("parked counter = %d, want 1", got)
	}
	if srv.store.get("ticky").isParked() {
		t.Fatal("ticker session was parked")
	}
	if !srv.store.get("idle").isParked() {
		t.Fatal("idle session was not parked")
	}
	// Nothing has POSTed an epoch: every epoch ticky has is its ticker's.
	for deadline := time.Now().Add(2 * time.Second); srv.store.get("ticky").Epochs() < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("ticker session at %d epochs after 2s, want >= 3", srv.store.get("ticky").Epochs())
		}
		time.Sleep(10 * time.Millisecond)
	}

	var metrics string
	{
		resp := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
		buf := make([]byte, 1<<20)
		n, _ := resp.Body.Read(buf)
		metrics = string(buf[:n])
	}
	if !strings.Contains(metrics, "rebudgetd_sessions_parked 1") {
		t.Fatal("/metrics missing parked gauge")
	}
	if !strings.Contains(metrics, "rebudgetd_sessions_parked_total 1") {
		t.Fatal("/metrics missing parked counter")
	}

	// Deleting a parked session releases it without waking it first.
	if resp := doJSON(t, "DELETE", ts.URL+"/v1/sessions/idle", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete parked: %d", resp.StatusCode)
	}
	if srv.Sessions() != 1 {
		t.Fatalf("sessions = %d after delete, want 1", srv.Sessions())
	}
}

// Test10kParkedSessionsGoroutineBound: ten thousand hibernating sessions
// must cost ~zero goroutines — the loop goroutine exits at park and only
// respawns on touch. Sessions are created in waves so peak engine residency
// stays bounded while the final parked population is the full 10k.
func Test10kParkedSessionsGoroutineBound(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-session density test skipped in -short mode")
	}
	const (
		total = 10000
		wave  = 2500
	)
	srv, ts := newTestDaemon(t, Config{MaxSessions: total, ParkAfter: time.Minute})
	before := runtime.NumGoroutine()

	errs := make(chan error, total)
	for base := 0; base < total; base += wave {
		var wg sync.WaitGroup
		sem := make(chan struct{}, 16)
		for i := base; i < base+wave; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				if _, err := spawnSession(srv, fig3Spec(fmt.Sprintf("d-%05d", i), "equalshare")); err != nil {
					errs <- err
				}
			}(i)
		}
		wg.Wait()
		srv.parkSweep(time.Now().Add(5 * time.Minute))
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := srv.met.parked.Load(); got != total {
		t.Fatalf("parked counter = %d, want %d", got, total)
	}
	if srv.Sessions() != total {
		t.Fatalf("sessions = %d, want %d", srv.Sessions(), total)
	}

	// Goroutines must return to near the pre-density baseline: parked
	// sessions own no loop, no ticker, no timer.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before+64 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d with 10k parked sessions (baseline %d)", g, before)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// A random resident still wakes on touch.
	var v api.SessionView
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions/d-04321/epoch", nil, &v); resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch on parked resident: %d", resp.StatusCode)
	}
	if v.Epochs != 1 {
		t.Fatalf("woken session epochs = %d, want 1", v.Epochs)
	}
}

// BenchmarkResidentSessionBytes reports heap bytes per resident session for
// the running and parked states — the before/after for hibernation. Run with
// -benchtime=1x; the measurement is a single census, not a loop.
func BenchmarkResidentSessionBytes(b *testing.B) {
	for _, mode := range []string{"running", "parked"} {
		b.Run(mode, func(b *testing.B) {
			const n = 2000
			srv, _ := newTestDaemon(b, Config{MaxSessions: n + 16, ParkAfter: time.Hour, Logger: quietLogger()})
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			for i := 0; i < n; i++ {
				if _, err := spawnSession(srv, fig3Spec(fmt.Sprintf("b-%05d", i), "equalshare")); err != nil {
					b.Fatal(err)
				}
			}
			if mode == "parked" {
				srv.parkSweep(time.Now().Add(2 * time.Hour))
			}
			runtime.GC()
			runtime.ReadMemStats(&m1)
			b.ReportMetric(float64(m1.HeapAlloc-m0.HeapAlloc)/n, "bytes/session")
			for i := 0; i < b.N; i++ {
				// The metric above is the point; keep the harness happy.
			}
		})
	}
}

// TestUnparkChargesTenant: waking a parked session is an engine rebuild, so
// it goes through the same admission bracket as a create or a rehydrate —
// the tenant's sub-budget first, then the dispatcher. A tenant at its grant
// cannot buy a free rebuild: the epoch answers 429, the session stays
// parked, and once budget frees the wake succeeds with both ledgers settled.
func TestUnparkChargesTenant(t *testing.T) {
	tenants, err := ParseTenants("gold:1,bronze:1")
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestDaemon(t, Config{
		ParkAfter: time.Hour,
		// The ticker is pushed out of the way: only the constructor's
		// deterministic rebalance runs.
		Tenancy: &TenancyConfig{Tenants: tenants, Epoch: time.Hour},
	})
	spec := fig3Spec("g", "equalbudget")
	spec.Tenant = "gold"
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions", spec, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	sess := srv.store.get("g")
	if !sess.park(time.Now(), 0) {
		t.Fatal("park refused")
	}

	// Something else of gold's holds its whole grant.
	held := srv.gov.tree.Granted("gold")
	if ok, _ := srv.gov.admit("gold", held); !ok {
		t.Fatal("idle tenant refused its own grant")
	}
	resp := doJSON(t, "POST", ts.URL+"/v1/sessions/g/epoch", nil, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("epoch on a parked session of an exhausted tenant: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("tenant refusal carries no Retry-After")
	}
	if got := counterValue(&srv.met.rejected, `reason="tenant"`); got != 1 {
		t.Errorf(`rejected{reason="tenant"} = %d, want 1`, got)
	}
	if !sess.isParked() {
		t.Fatal("refused wake left the session unparked: the rebuild was not charged")
	}

	srv.gov.release("gold", held)
	var view api.SessionView
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions/g/epoch", nil, &view); resp.StatusCode != http.StatusOK {
		t.Fatalf("epoch after budget freed: %d", resp.StatusCode)
	}
	if sess.isParked() || view.Epochs != 1 {
		t.Fatalf("after wake: parked=%v epochs=%d, want running at epoch 1", sess.isParked(), view.Epochs)
	}
	if got := srv.disp.inFlightCost(); got != 0 {
		t.Errorf("dispatcher in-flight cost = %g after quiescence, want 0", got)
	}
	rows, _ := srv.gov.metricsSnapshot()
	for _, row := range rows {
		if row.InFlight != 0 {
			t.Errorf("tenant %q in-flight cost = %g after quiescence, want 0", row.Path, row.InFlight)
		}
	}
}

// Sessions reports the live session count.
func (s *Server) Sessions() int { return s.store.len() }

// Epochs returns the measured epochs served so far.
func (s *session) Epochs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epochs
}
