package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"rebudget/internal/api"
	"rebudget/internal/expo"
	"rebudget/internal/snapshot"
)

func errMapServer(t *testing.T) *Server {
	t.Helper()
	s := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	t.Cleanup(s.Close)
	return s
}

func decodeErrBody(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var body api.Error
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatalf("error body not JSON: %v", err)
	}
	return body.Error
}

// replyError's status mapping, table-driven — in particular the
// context.DeadlineExceeded/Canceled chain: a request that timed out
// waiting for a dispatcher slot is overload (503, retryable), not an
// internal error, even when the sentinel arrives wrapped.
func TestReplyErrorStatusMapping(t *testing.T) {
	s := errMapServer(t)
	cases := []struct {
		name     string
		err      error
		wantCode int
	}{
		{"busy", errBusy, 429},
		{"wrapped busy", fmt.Errorf("acquiring slot: %w", errBusy), 429},
		{"mailbox full", errMailboxFull, 429},
		{"session closed", errSessionClosed, 410},
		{"deadline exceeded", context.DeadlineExceeded, 503},
		{"wrapped deadline", fmt.Errorf("epoch batch: %w", context.DeadlineExceeded), 503},
		{"canceled", context.Canceled, 503},
		{"wrapped canceled", fmt.Errorf("caller went away: %w", context.Canceled), 503},
		{"unknown error", errors.New("exploded"), 500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.replyError(rec, tc.err)
			if rec.Code != tc.wantCode {
				t.Fatalf("replyError(%v) = %d, want %d", tc.err, rec.Code, tc.wantCode)
			}
			if msg := decodeErrBody(t, rec); msg == "" {
				t.Fatal("error body empty")
			}
		})
	}
	// The timeout mapping hides the raw error text behind a stable
	// message (clients should match on the 503, not on Go's sentinel
	// strings).
	rec := httptest.NewRecorder()
	s.replyError(rec, context.DeadlineExceeded)
	if got := decodeErrBody(t, rec); got != "request deadline exceeded" {
		t.Fatalf("timeout body = %q, want %q", got, "request deadline exceeded")
	}
}

// replyEngineError forwards infrastructure failures to replyError's
// mapping and treats everything else as the caller's bad input (400) —
// the shared path behind the telemetry and result handlers.
func TestReplyEngineErrorStatusMapping(t *testing.T) {
	s := errMapServer(t)
	cases := []struct {
		name     string
		err      error
		wantCode int
	}{
		{"session closed", errSessionClosed, 410},
		{"mailbox full", errMailboxFull, 429},
		{"deadline exceeded", context.DeadlineExceeded, 503},
		{"canceled", context.Canceled, 503},
		{"wrapped deadline", fmt.Errorf("enqueue: %w", context.DeadlineExceeded), 503},
		{"engine rejection", errors.New("telemetry arity mismatch"), 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.replyEngineError(rec, tc.err)
			if rec.Code != tc.wantCode {
				t.Fatalf("replyEngineError(%v) = %d, want %d", tc.err, rec.Code, tc.wantCode)
			}
		})
	}
}

// counterValue reads one label's count out of a labelled counter family.
func counterValue(lc *expo.LabelCounters, label string) int64 {
	labels, counts := lc.Snapshot()
	for i, l := range labels {
		if l == label {
			return counts[i]
		}
	}
	return 0
}

// counterTotal sums a labelled counter family.
func counterTotal(lc *expo.LabelCounters) (n int64) {
	_, counts := lc.Snapshot()
	for _, c := range counts {
		n += c
	}
	return n
}

// TestSpineErrorMapping is the error → HTTP contract as one table: every
// error a stage of the request spine can return, and for each the status,
// whether a Retry-After rides along (whole seconds, rounded up, never below
// 1), the JSON body, and which rebudgetd_rejected_total{reason} series — if
// any — counts it.
func TestSpineErrorMapping(t *testing.T) {
	s := errMapServer(t)
	const none = ""
	cases := []struct {
		name       string
		err        error
		wantCode   int
		wantRetry  string // Retry-After header; none = absent; ">=1" = computed
		wantBody   string
		wantReason string // rejected{reason} label that moves; none = no series
	}{
		{"unauthorized", errUnauthorized, 401, none, "missing or invalid API key", `reason="auth"`},
		{"not found", errNotFound("x"), 404, none, `no session "x"`, none},
		{"draining", errDraining, 503, none, "draining", `reason="draining"`},
		{"wrapped draining", fmt.Errorf("resolve: %w", errDraining), 503, none, "draining", `reason="draining"`},
		{"conflict", &spineError{kind: kindConflict, msg: `session "x" already exists`}, 409, none,
			`session "x" already exists`, none},
		{"rate limit rounds up", &spineError{kindRateLimit, `session "x" rate limited`, 2300 * time.Millisecond}, 429, "3",
			`session "x" rate limited`, `reason="ratelimit"`},
		{"rate limit floors at 1s", &spineError{kindRateLimit, `session "x" rate limited`, 10 * time.Millisecond}, 429, "1",
			`session "x" rate limited`, `reason="ratelimit"`},
		{"tenant over budget", &spineError{kindTenant, `tenant "gold" over budget`, 250 * time.Millisecond}, 429, "1",
			`tenant "gold" over budget`, `reason="tenant"`},
		{"bad input", errBadInput(errors.New("epochs 0 outside [1,1000]")), 400, none,
			"epochs 0 outside [1,1000]", none},
		{"busy", errBusy, 429, ">=1", errBusy.Error(), `reason="busy"`},
		{"mailbox full", errMailboxFull, 429, "1", errMailboxFull.Error(), `reason="mailbox"`},
		{"session closed", errSessionClosed, 410, none, errSessionClosed.Error(), none},
		{"deadline", context.DeadlineExceeded, 503, none, "request deadline exceeded", `reason="timeout"`},
		{"canceled", context.Canceled, 503, none, "request deadline exceeded", `reason="timeout"`},
		{"unknown", errors.New("exploded"), 500, none, "exploded", none},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			totalBefore := counterTotal(&s.met.rejected)
			reasonBefore := counterValue(&s.met.rejected, tc.wantReason)
			rec := httptest.NewRecorder()
			s.replyError(rec, tc.err)

			if rec.Code != tc.wantCode {
				t.Errorf("status = %d, want %d", rec.Code, tc.wantCode)
			}
			got := rec.Header().Get("Retry-After")
			if tc.wantRetry == ">=1" {
				if secs, err := strconv.Atoi(got); err != nil || secs < 1 {
					t.Errorf("Retry-After = %q, want an integer >= 1", got)
				}
			} else if got != tc.wantRetry {
				t.Errorf("Retry-After = %q, want %q", got, tc.wantRetry)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			var body map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("body not JSON: %v", err)
			}
			if len(body) != 1 || body["error"] != tc.wantBody {
				t.Errorf("body = %v, want only {error: %q}", body, tc.wantBody)
			}
			wantMoved := int64(0)
			if tc.wantReason != none {
				wantMoved = 1
				if d := counterValue(&s.met.rejected, tc.wantReason) - reasonBefore; d != 1 {
					t.Errorf("rejected{%s} moved by %d, want 1", tc.wantReason, d)
				}
			}
			if d := counterTotal(&s.met.rejected) - totalBefore; d != wantMoved {
				t.Errorf("rejected_total moved by %d across all reasons, want %d", d, wantMoved)
			}
		})
	}
}

// scriptedStore is a snapshot.Store whose Load is the test's to script.
type scriptedStore struct {
	load func(id string) (*snapshot.Session, error)
}

func (scriptedStore) Save(*snapshot.Session) error { return nil }
func (scriptedStore) Delete(string) error          { return nil }
func (st scriptedStore) Load(id string) (*snapshot.Session, error) {
	return st.load(id)
}

// TestResolveErrorMapping covers the refusals only resolve can produce — a
// non-resident id meeting each kind of snapshot-store outcome — end to end
// through a handler: the status, and the snapshots{op} / rejected{reason}
// series that records why.
func TestResolveErrorMapping(t *testing.T) {
	// A usable snapshot: a session that served two epochs, then retired.
	donor, _ := newTestDaemon(t, Config{})
	sess, err := spawnSession(donor, fig3Spec("v", "equalbudget"))
	if err != nil {
		t.Fatal(err)
	}
	if resp := sess.enqueue(context.Background(), &request{kind: reqEpoch, epochs: 2}); resp.err != nil {
		t.Fatal(resp.err)
	}
	donor.store.remove("v")
	sess.close()
	good := sess.snapshot(time.Now())
	unrestorable := *good
	unrestorable.Spec.Mechanism = "no-such-mechanism"

	var srv *Server // set per case; the race case reaches back into it
	cases := []struct {
		name      string
		load      func(id string) (*snapshot.Session, error)
		drain     bool
		wantCode  int
		wantOp    string // snapshots{op} that moves; "" = none
		wantRejct string // rejected{reason} that moves; "" = none
	}{
		{name: "absent", wantCode: 404,
			load: func(string) (*snapshot.Session, error) { return nil, snapshot.ErrNoSnapshot }},
		{name: "corrupt snapshot", wantCode: 404, wantOp: `op="corrupt"`,
			load: func(string) (*snapshot.Session, error) {
				return nil, fmt.Errorf("%w: checksum mismatch", snapshot.ErrNoSnapshot)
			}},
		{name: "load error", wantCode: 404, wantOp: `op="load_error"`,
			load: func(string) (*snapshot.Session, error) { return nil, errors.New("input/output error") }},
		{name: "unrestorable snapshot", wantCode: 404, wantOp: `op="restore_error"`,
			load: func(string) (*snapshot.Session, error) { cp := unrestorable; return &cp, nil }},
		{name: "draining", drain: true, wantCode: 503, wantRejct: `reason="draining"`,
			load: func(string) (*snapshot.Session, error) { cp := *good; return &cp, nil }},
		{name: "restored", wantCode: 200, wantOp: `op="restore"`,
			load: func(string) (*snapshot.Session, error) { cp := *good; return &cp, nil }},
		{name: "lost rehydrate race", wantCode: 200,
			// A concurrent touch wins the race between this request's store
			// miss and its install: by the time Load returns, "v" is resident.
			load: func(string) (*snapshot.Session, error) {
				if _, err := srv.install(context.Background(), "v", good.Spec, good); err != nil {
					return nil, err
				}
				cp := *good
				return &cp, nil
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ts *httptest.Server
			srv, ts = newTestDaemon(t, Config{Snapshots: scriptedStore{load: tc.load}})
			if tc.drain {
				srv.StartDrain()
			}
			var view api.SessionView
			resp := doJSON(t, "GET", ts.URL+"/v1/sessions/v", nil, &view)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantCode)
			}
			if resp.StatusCode == http.StatusOK && (view.ID != "v" || view.Epochs != 2) {
				t.Errorf("served view = %s at epoch %d, want v at epoch 2", view.ID, view.Epochs)
			}
			if got := resp.Header.Get("Retry-After"); got != "" {
				t.Errorf("Retry-After = %q on a resolve refusal, want none", got)
			}
			for _, op := range []string{`op="corrupt"`, `op="load_error"`, `op="restore_error"`, `op="restore"`} {
				want := int64(0)
				if op == tc.wantOp {
					want = 1
				}
				if got := counterValue(&srv.met.snapshots, op); got != want {
					t.Errorf("snapshots{%s} = %d, want %d", op, got, want)
				}
			}
			wantRejected := int64(0)
			if tc.wantRejct != "" {
				wantRejected = 1
				if got := counterValue(&srv.met.rejected, tc.wantRejct); got != 1 {
					t.Errorf("rejected{%s} = %d, want 1", tc.wantRejct, got)
				}
			}
			if got := counterTotal(&srv.met.rejected); got != wantRejected {
				t.Errorf("rejected_total = %d across all reasons, want %d", got, wantRejected)
			}
			wantResident := 0
			if tc.wantCode == http.StatusOK {
				wantResident = 1 // exactly one, also when two restores raced
			}
			if got := srv.Sessions(); got != wantResident {
				t.Errorf("resident sessions = %d, want %d", got, wantResident)
			}
		})
	}
}
