package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// TestServingBodiesBytes holds the router's and the snapstore's bodies to
// the bytes they were served as before their types moved here, through the
// one reply writer: its framing (Content-Type, a true Content-Length, the
// encoder's trailing newline) included.
func TestServingBodiesBytes(t *testing.T) {
	cases := []struct {
		name string
		v    any
		want string
	}{
		{"router healthz", RouterHealthz{Status: "degraded", UptimeSeconds: 7, MembershipEpoch: 2,
			Shards: []ShardHealth{{Shard: "http://a:1", Healthy: true, Sessions: 3}, {Shard: "http://b:1"}}},
			`{"status":"degraded","shards":[{"shard":"http://a:1","healthy":true,"sessions":3},{"shard":"http://b:1","healthy":false,"sessions":0}],"uptime_seconds":7,"membership_epoch":2}`},
		{"router healthz, no shard", RouterHealthz{Status: "down", MembershipEpoch: 1},
			`{"status":"down","shards":null,"uptime_seconds":0,"membership_epoch":1}`},
		{"shard health", ShardHealth{Shard: "http://a:1", Sessions: 41},
			`{"shard":"http://a:1","healthy":false,"sessions":41}`},
		{"membership", Membership{Epoch: 3, Members: []string{"http://a:1", "http://b:1"}},
			`{"epoch":3,"members":["http://a:1","http://b:1"],"migrating":0}`},
		{"membership, draining", Membership{Epoch: 4, Members: []string{"http://a:1"}, Draining: []string{"http://b:1"}, Migrating: 5},
			`{"epoch":4,"members":["http://a:1"],"draining":["http://b:1"],"migrating":5}`},
		{"snapstore healthz", SnapstoreHealthz{Snapshots: 12, Status: "ok", UptimeSeconds: 9},
			`{"snapshots":12,"status":"ok","uptime_seconds":9}`},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, tc.v)
		if got := rec.Body.String(); got != tc.want+"\n" {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		if ct, cl := rec.Header().Get("Content-Type"), rec.Header().Get("Content-Length"); ct != "application/json" || cl != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("%s: Content-Type %q, Content-Length %q for %d bytes", tc.name, ct, cl, rec.Body.Len())
		}
	}
	// The snapstore's body was a map; its keys' sorted order is the
	// struct's field order.
	var old bytes.Buffer
	_ = json.NewEncoder(&old).Encode(map[string]any{"status": "ok", "snapshots": 12, "uptime_seconds": int64(9)})
	if old.String() != cases[len(cases)-1].want+"\n" {
		t.Errorf("the map encoding was %s", old.String())
	}
}

// TestBearer: exactly "Bearer <token>" passes; an empty token admits nobody.
func TestBearer(t *testing.T) {
	for _, tc := range []struct {
		header, token string
		ok            bool
	}{
		{"Bearer s3cret", "s3cret", true},
		{"Bearer s3cret ", "s3cret", false},
		{"bearer s3cret", "s3cret", false},
		{"s3cret", "s3cret", false},
		{"Bearer wrong", "s3cret", false},
		{"", "s3cret", false},
		{"Bearer ", "", false},
		{"", "", false},
	} {
		r := httptest.NewRequest("POST", "/", nil)
		if tc.header != "" {
			r.Header.Set("Authorization", tc.header)
		}
		if got := Bearer(r, tc.token); got != tc.ok {
			t.Errorf("Bearer(%q, %q) = %v", tc.header, tc.token, got)
		}
	}
}
