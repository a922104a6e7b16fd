package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"rebudget/internal/snapshot"
)

// HTTPSnapshotStore is a snapshot.Store backed by a rebudget-snapstore
// service: every shard pointed at the same base URL shares one snapshot
// namespace, so a killed shard's sessions restore warm on any node with no
// shared filesystem. It also implements snapshot.RawStore, which is
// the seam the chaos layer's FaultySnapshotStore uses for torn-write and
// bit-rot faults — damaged bytes round-trip through the service verbatim
// and are rejected by snapshot.Decode on the way out, exactly like the file
// store.
//
// Error mapping follows the snapshot.Store contract: a 404 (absent or
// server-side integrity failure) is ErrNoSnapshot — a cold start — while a
// transport failure (service down, partitioned) surfaces as a plain error
// so the daemon counts it as load_error rather than pretending the
// snapshot never existed.
type HTTPSnapshotStore struct {
	base   string
	client *http.Client
}

// NewHTTPSnapshotStore builds a store over the service at base (e.g.
// "http://127.0.0.1:9701"). client nil selects a 5s-timeout default.
func NewHTTPSnapshotStore(base string, client *http.Client) *HTTPSnapshotStore {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	return &HTTPSnapshotStore{base: strings.TrimRight(base, "/"), client: client}
}

// Save implements snapshot.Store.
func (hs *HTTPSnapshotStore) Save(snap *snapshot.Session) error {
	buf, err := snapshot.Encode(snap)
	if err != nil {
		return err
	}
	return hs.SaveRaw(snap.ID, buf)
}

// Load implements snapshot.Store.
func (hs *HTTPSnapshotStore) Load(id string) (*snapshot.Session, error) {
	buf, err := hs.LoadRaw(id)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, snapshot.ErrNoSnapshot
		}
		return nil, err
	}
	return snapshot.Decode(id, buf)
}

// Delete implements snapshot.Store; deleting an absent snapshot is not an
// error.
func (hs *HTTPSnapshotStore) Delete(id string) error {
	req, err := http.NewRequest(http.MethodDelete, hs.blobURL(id), nil)
	if err != nil {
		return err
	}
	resp, err := hs.client.Do(req)
	if err != nil {
		return err
	}
	drain(resp)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("snapstore delete %s: %s", id, resp.Status)
	}
	return nil
}

// SaveRaw implements snapshot.RawStore: data lands verbatim.
func (hs *HTTPSnapshotStore) SaveRaw(id string, data []byte) error {
	req, err := http.NewRequest(http.MethodPut, hs.blobURL(id), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := hs.client.Do(req)
	if err != nil {
		return err
	}
	drain(resp)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("snapstore put %s: %s", id, resp.Status)
	}
	return nil
}

// LoadRaw implements snapshot.RawStore; os.ErrNotExist when the service
// holds no (usable) blob for id. A body over snapshot.MaxBytes is an error
// (a load_error on the daemon, not a cold start), read no further than the
// bound: the service never stores one, so something else is answering.
func (hs *HTTPSnapshotStore) LoadRaw(id string) ([]byte, error) {
	resp, err := hs.client.Get(hs.blobURL(id))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, os.ErrNotExist
	}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("snapstore get %s: %s", id, resp.Status)
	}
	if resp.ContentLength <= snapshot.MaxBytes {
		buf, err := io.ReadAll(io.LimitReader(resp.Body, snapshot.MaxBytes+1))
		if err != nil || len(buf) <= snapshot.MaxBytes {
			return buf, err
		}
	}
	return nil, fmt.Errorf("snapstore get %s: body over %d bytes", id, snapshot.MaxBytes)
}

func (hs *HTTPSnapshotStore) blobURL(id string) string {
	return hs.base + "/v1/blobs/" + id
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
