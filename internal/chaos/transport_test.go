package chaos

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, c *http.Client, url string) (*http.Response, []byte, error) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(resp.Body)
	return resp, body, rerr
}

// A transport with a nil injector and no partitions is a passthrough.
func TestTransportPassthrough(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "payload")
	}))
	defer ts.Close()
	c := &http.Client{Transport: NewTransport(nil, nil)}
	resp, body, err := get(t, c, ts.URL)
	if err != nil || resp.StatusCode != 200 || string(body) != "payload" {
		t.Fatalf("passthrough broken: %v %v %q", resp, err, body)
	}
}

// Partition/Heal cut and restore one host's data path; other hosts are
// untouched.
func TestTransportPartition(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") })
	tsA := httptest.NewServer(handler)
	defer tsA.Close()
	tsB := httptest.NewServer(handler)
	defer tsB.Close()

	in := New(Config{LatencyRate: 1e-12}) // enabled, but effectively silent
	tr := NewTransport(in, nil)
	c := &http.Client{Transport: tr}

	tr.Partition(tsA.URL) // base-URL form must normalise to the host
	if !tr.Partitioned(strings.TrimPrefix(tsA.URL, "http://")) {
		t.Fatal("host-key normalisation broken")
	}
	if _, _, err := get(t, c, tsA.URL); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned host should fail with ErrPartitioned, got %v", err)
	}
	if _, _, err := get(t, c, tsB.URL); err != nil {
		t.Fatalf("unpartitioned host affected: %v", err)
	}
	tr.Heal(tsA.URL)
	if _, _, err := get(t, c, tsA.URL); err != nil {
		t.Fatalf("healed host still failing: %v", err)
	}
}

// Rate-1 faults fire on every request: drops pre-send, blips without
// touching the backend, resets mid-body after a committed status.
func TestTransportInjectedFaults(t *testing.T) {
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		io.WriteString(w, strings.Repeat("x", 4096))
	}))
	defer ts.Close()

	t.Run("drop", func(t *testing.T) {
		c := &http.Client{Transport: NewTransport(New(Config{DropRate: 1}), nil)}
		if _, _, err := get(t, c, ts.URL); !errors.Is(err, ErrDropped) {
			t.Fatalf("want ErrDropped, got %v", err)
		}
	})
	t.Run("blip", func(t *testing.T) {
		before := hits
		c := &http.Client{Transport: NewTransport(New(Config{Blip5xxRate: 1}), nil)}
		resp, body, err := get(t, c, ts.URL)
		if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("want synthesized 503, got %v %v", resp, err)
		}
		if !strings.Contains(string(body), "chaos") || resp.Header.Get("X-Chaos") == "" {
			t.Fatalf("blip body/header missing: %q", body)
		}
		if hits != before {
			t.Fatal("blip reached the backend")
		}
	})
	t.Run("reset-mid-body", func(t *testing.T) {
		c := &http.Client{Transport: NewTransport(New(Config{ResetRate: 1}), nil)}
		resp, err := c.Get(ts.URL)
		if err != nil {
			t.Fatalf("reset must land after the status was committed, got %v", err)
		}
		defer resp.Body.Close()
		body, rerr := io.ReadAll(resp.Body)
		if !errors.Is(rerr, ErrReset) {
			t.Fatalf("want ErrReset mid-body, got %v", rerr)
		}
		if len(body) == 0 || len(body) >= 4096 {
			t.Fatalf("reset cut nothing or everything: %d bytes", len(body))
		}
	})
}

// Partitioned reports whether host is currently partitioned.
func (t *Transport) Partitioned(host string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.partitioned[hostKey(host)]
}
