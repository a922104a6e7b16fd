package router

import (
	"bytes"
	"io"
	"net/http"
	"sync"

	"rebudget/internal/api"
)

// The proxy must buffer every request body (it may replay it across ring
// positions on failover), which made body reads a malloc per request.
// Pooled buffers amortise that across the 100k-session load the tier is
// sized for; relayBufs below do the same for the response.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody buffers r's body (bounded by maxBody) into a pooled buffer. The
// caller owns the buffer until it calls putBodyBuf — the returned bytes
// alias the buffer and must not outlive it.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		putBodyBuf(buf)
		return nil, err
	}
	return buf, nil
}

func putBodyBuf(buf *bytes.Buffer) {
	if buf.Cap() > api.PoolBufCap {
		return
	}
	bodyBufs.Put(buf)
}

// relayBufs are the copy buffers of the response side. io.Copy would make a
// fresh 32 kB one per relayed body: expo.StatusRecorder hides the ResponseWriter's
// ReaderFrom, and with it net/http's own pooled buffer.
var relayBufs = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// relay copies a shard's response body to the client. The error it returns
// is the shard side's alone: a client that stopped reading ends the copy
// quietly, and net/http tears that connection down by itself.
func relay(w io.Writer, body io.Reader) error {
	bp := relayBufs.Get().(*[]byte)
	defer relayBufs.Put(bp)
	buf := *bp
	for {
		n, rerr := body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return nil
			}
		}
		if rerr == io.EOF {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}
