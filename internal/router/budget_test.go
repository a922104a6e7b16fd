//go:build !race

package router

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"testing"
)

// Relaying a 12 kB response costs net/http's per-request state on the two
// hops and no copy buffer: statusRecorder hides the ResponseWriter's
// ReaderFrom, so a bare io.Copy here made a fresh 32 kB buffer per
// response. The router is served on a real loopback listener, as deployed:
// what a copy costs depends on what the ResponseWriter under it implements,
// and an httptest.ResponseRecorder is not what production writes to. The
// count covers the whole process (the stub shard, the router, this test's
// client); the budget is 1.5 × what the pooled relay measures (13.2–13.7
// kB), and the io.Copy it replaced reads 46.1 kB. Heap bytes per request
// repeat to within a few hundred, which is why this gates in tier-1 rather
// than in the bench smoke. (The race detector changes what allocates;
// hence the build tag.)
func TestRelayByteBudget(t *testing.T) {
	const calls, budget = 200, 20 << 10
	body := bytes.Repeat([]byte(`{"player":"0123456789abcdef"}`+"\n"), 12<<10/30)
	_, front := routerOver(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
	}))
	get := func() {
		resp, err := http.Get(front.URL + "/v1/sessions/s")
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || int(n) != len(body) {
			t.Fatalf("relayed %d of %d bytes: %v", n, len(body), err)
		}
	}
	for i := 0; i < 5; i++ {
		get() // connections, pools
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d B allocated per relayed %d B response", per, len(body))
	if per > budget {
		t.Fatalf("a relayed response allocates %d B, budget %d B", per, budget)
	}
}
