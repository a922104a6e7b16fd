package server

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestDispatcherBackpressure(t *testing.T) {
	d := newDispatcher(1, 1, 0)
	ctx := context.Background()
	l, err := d.acquire(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One waiter is allowed to queue...
	waited := make(chan error, 1)
	go func() {
		wl, err := d.acquire(ctx, 1)
		if err == nil {
			defer wl.release()
		}
		waited <- err
	}()
	// Give the waiter time to enter the queue, then a second waiter must be
	// rejected immediately.
	deadline := time.After(2 * time.Second)
	for d.queued() == 0 {
		select {
		case <-deadline:
			t.Fatal("waiter never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if _, err := d.acquire(ctx, 1); !errors.Is(err, errBusy) {
		t.Fatalf("expected errBusy, got %v", err)
	}
	// Releasing the lease hands the capacity to the queued waiter.
	l.release()
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
}

func TestDispatcherQueuedCostBound(t *testing.T) {
	// Queue bound by cost depth: capacity 2, max queued cost 3. With the
	// capacity claimed, a queued cost-2 waiter leaves room for one more
	// unit — a second cost-2 waiter must bounce even though the request
	// count (maxWait 100) is nowhere near its bound.
	d := newDispatcher(2, 100, 3)
	l, err := d.acquire(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		wl, err := d.acquire(context.Background(), 2)
		if err == nil {
			wl.release()
		}
		queued <- err
	}()
	waitQueued(t, d, 1)
	if _, err := d.acquire(context.Background(), 2); !errors.Is(err, errBusy) {
		t.Fatalf("expected errBusy from cost-depth bound, got %v", err)
	}
	// A one-unit waiter still fits under the cost bound.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := d.acquire(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("one-unit waiter should queue (then expire), got %v", err)
	}
	l.release()
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	l, err = d.acquire(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	l.release()
}

func TestDispatcherAcquireRespectsDeadline(t *testing.T) {
	d := newDispatcher(1, 4, 0)
	l, err := d.acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := d.acquire(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected deadline error, got %v", err)
	}
	// The expired waiter must have left the queue: its slot frees up for
	// a fresh waiter, and the released capacity reaches that waiter, not
	// the dead one.
	if got := d.queued(); got != 0 {
		t.Fatalf("expired waiter still queued: %d", got)
	}
	done := make(chan error, 1)
	go func() {
		wl, err := d.acquire(context.Background(), 1)
		if err == nil {
			wl.release()
		}
		done <- err
	}()
	waitQueued(t, d, 1)
	l.release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDispatcherTryAcquire(t *testing.T) {
	d := newDispatcher(1, 1, 0)
	l, ok := d.tryAcquire(1)
	if !ok {
		t.Fatal("tryAcquire on free dispatcher failed")
	}
	if _, ok := d.tryAcquire(1); ok {
		t.Fatal("tryAcquire on full dispatcher succeeded")
	}
	l.release()
	l, ok = d.tryAcquire(1)
	if !ok {
		t.Fatal("tryAcquire after release failed")
	}
	l.release()
}

// TestDispatcherFIFOWakeOrder pins the starvation fix: waiters must be
// granted strictly in arrival order. The old bare-channel dispatcher woke a
// random waiter per release, so a long waiter could lose to fresh arrivals
// indefinitely.
func TestDispatcherFIFOWakeOrder(t *testing.T) {
	d := newDispatcher(1, 16, 100)
	l, err := d.acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	order := make(chan int, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			wl, err := d.acquire(context.Background(), 1)
			if err != nil {
				t.Error(err)
				return
			}
			order <- i
			wl.release()
		}()
		// Wait until waiter i is in the queue before launching i+1, so
		// arrival order is deterministic.
		waitQueued(t, d, int64(i+1))
	}
	l.release()
	for want := 0; want < n; want++ {
		select {
		case got := <-order:
			if got != want {
				t.Fatalf("wake order: got waiter %d, want %d (FIFO violated)", got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("waiter %d never woke", want)
		}
	}
}

// TestDispatcherNoStarvationUnderChurn is the regression test for the
// waiter-races-fresh-arrival bug: while one request waits, a stream of
// fresh arrivals (tryAcquire and immediate-deadline acquires) must never
// overtake it once capacity frees.
func TestDispatcherNoStarvationUnderChurn(t *testing.T) {
	d := newDispatcher(1, 4, 0)
	l, err := d.acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{})
	go func() {
		wl, err := d.acquire(context.Background(), 1)
		if err != nil {
			t.Error(err)
			return
		}
		close(got)
		wl.release()
	}()
	waitQueued(t, d, 1)
	// Churn: fresh arrivals hammer the dispatcher from several goroutines.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if wl, ok := d.tryAcquire(1); ok {
					// The waiter is queued; a fresh arrival must not win.
					select {
					case <-got:
						// Granted before us — fine, this claim came later.
					default:
						t.Error("fresh tryAcquire barged past a queued waiter")
					}
					wl.release()
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
				wl, err := d.acquire(ctx, 1)
				cancel()
				if err == nil {
					select {
					case <-got:
						// Granted after the waiter finished — legitimate.
					default:
						t.Error("fresh acquire overtook the queued waiter")
					}
					wl.release()
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the churn run against the held lease
	l.release()
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("long waiter starved: capacity release never reached it")
	}
	close(stop)
	wg.Wait()
}

// TestDispatcherOversizeAdmitsAlone pins the oversize rule: a request
// costing more than total capacity is clamped, admits once the dispatcher
// drains, and holds the whole capacity rather than deadlocking forever.
func TestDispatcherOversizeAdmitsAlone(t *testing.T) {
	d := newDispatcher(4, 8, 0)
	small, err := d.acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	huge := make(chan *lease, 1)
	go func() {
		wl, err := d.acquire(context.Background(), 100) // 25× capacity
		if err != nil {
			t.Error(err)
			return
		}
		huge <- wl
	}()
	waitQueued(t, d, 1)
	small.release()
	var hl *lease
	select {
	case hl = <-huge:
	case <-time.After(2 * time.Second):
		t.Fatal("oversize request deadlocked instead of admitting alone")
	}
	if got := d.inFlightCost(); got != 4 {
		t.Fatalf("oversize lease claims %g units, want the full capacity 4", got)
	}
	// While it holds everything, nothing else fits...
	if _, ok := d.tryAcquire(1); ok {
		t.Fatal("tryAcquire succeeded under an oversize lease")
	}
	hl.release()
	// ...and afterwards the dispatcher is whole again.
	if got := d.inFlightCost(); got != 0 {
		t.Fatalf("inFlightCost after oversize release = %g, want 0", got)
	}
}

// TestDispatcherWeightedAdmission checks that cost, not request count,
// bounds concurrency: capacity 4 admits four cost-1 requests but only one
// cost-3 plus one cost-1.
func TestDispatcherWeightedAdmission(t *testing.T) {
	d := newDispatcher(4, 8, 0)
	big, err := d.acquire(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	one, ok := d.tryAcquire(1)
	if !ok {
		t.Fatal("cost-1 should fit beside cost-3 under capacity 4")
	}
	if _, ok := d.tryAcquire(1); ok {
		t.Fatal("cost exhausted: a further unit must not fit")
	}
	one.release()
	big.release()
}

// TestDispatcherRetryAfterTracksCostDepth pins Retry-After semantics: a
// queue holding more cost units hints a longer retry than one holding the
// same number of cheaper requests.
func TestDispatcherRetryAfterTracksCostDepth(t *testing.T) {
	mk := func(queueCost float64) time.Duration {
		d := newDispatcher(2, 16, 1e9)
		l, err := d.acquire(context.Background(), 2)
		if err != nil {
			t.Fatal(err)
		}
		defer l.release()
		for i := 0; i < 3; i++ {
			go func() {
				if wl, err := d.acquire(context.Background(), queueCost); err == nil {
					wl.release()
				}
			}()
		}
		waitQueued(t, d, 3)
		return d.retryAfter()
	}
	cheap := mk(0.5)
	costly := mk(2)
	if costly <= cheap {
		t.Fatalf("Retry-After ignores cost depth: 3×2.0 queued → %v, 3×0.5 queued → %v", costly, cheap)
	}
}

// waitQueued blocks until the dispatcher reports n queued waiters.
func waitQueued(t *testing.T, d *dispatcher, n int64) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for d.queued() < n {
		select {
		case <-deadline:
			t.Fatalf("never reached %d queued waiters (have %d)", n, d.queued())
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// TestAdmissionDefaults pins every admission bound the daemon derives
// rather than takes as configuration, each at the value it had as a
// configurable default.
func TestAdmissionDefaults(t *testing.T) {
	procs := float64(runtime.GOMAXPROCS(0))
	srv, ts := newTestDaemon(t, Config{SessionRPS: 3, Tenancy: &TenancyConfig{Epoch: time.Hour}})
	slow, slowTS := newTestDaemon(t, Config{SessionRPS: 0.25})
	spec := SessionSpec{ID: "d", Workload: WorkloadSpec{Fig3: true}, Mechanism: "equalshare"}
	for _, url := range []string{ts.URL, slowTS.URL} {
		if resp := doJSON(t, "POST", url+"/v1/sessions", spec, nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: %d", resp.StatusCode)
		}
	}
	sess, slowSess := srv.store.get("d"), slow.store.get("d")
	label, err := srv.gov.adopt("")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		got, want float64
	}{
		{"cost capacity = 8×GOMAXPROCS", srv.disp.capacity, 8 * procs},
		{"queue depth = max(64, 4×GOMAXPROCS)", float64(srv.disp.maxWait), max(64, 4*procs)},
		{"queued cost = 4×capacity", srv.disp.maxQueuedCost, 4 * 8 * procs},
		{"mailbox = 8", float64(cap(sess.reqs)), 8},
		{"burst = 2×rps", sess.tokenBurst, 6},
		{"burst floor = 1", slowSess.tokenBurst, 1},
		{"tenant root = dispatcher capacity", srv.gov.tree.Deserved(label), srv.disp.capacity},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: got %g, want %g", tc.name, tc.got, tc.want)
		}
	}
	if label != "default" {
		t.Errorf("unlabelled sessions join tenant %q, want \"default\"", label)
	}
}

// queued reports requests currently waiting.
func (d *dispatcher) queued() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(d.queue.Len())
}
