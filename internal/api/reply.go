package api

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// jsonWriter is a pooled response encoder: one buffer plus an encoder bound
// to it, reused across requests so the hot path (epoch POSTs at saturation)
// stops paying an encoder allocation and a buffer growth per response.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonWriters = sync.Pool{New: func() any {
	jw := &jsonWriter{}
	jw.enc = json.NewEncoder(&jw.buf)
	return jw
}}

// PoolBufCap bounds what a pooled buffer may retain, on either side of the
// wire: a rare giant body (a full session listing) must not pin its
// high-water mark forever.
const PoolBufCap = 64 << 10

// encodeJSON renders v with a pooled encoder and returns the writer; the
// caller reads .buf.Bytes() and must hand the writer back via putJSONWriter.
func encodeJSON(v any) (*jsonWriter, error) {
	jw := jsonWriters.Get().(*jsonWriter)
	jw.buf.Reset()
	if err := jw.enc.Encode(v); err != nil {
		putJSONWriter(jw)
		return nil, err
	}
	return jw, nil
}

func putJSONWriter(jw *jsonWriter) {
	if jw.buf.Cap() > PoolBufCap {
		return
	}
	jsonWriters.Put(jw)
}

// WriteJSON answers with v as a JSON body under code, with Content-Type and
// Content-Length set. It is the one JSON reply writer of the serving tier.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	jw, err := encodeJSON(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(jw.buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(jw.buf.Bytes())
	putJSONWriter(jw)
}

// WriteError answers with an Error body under code: every refusal the
// daemon and the router send looks like this.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, Error{Error: msg})
}

// Bearer reports whether r carries "Authorization: Bearer <token>". The
// token is compared in constant time; an empty token admits nothing.
func Bearer(r *http.Request, token string) bool {
	const prefix = "Bearer "
	auth := r.Header.Get("Authorization")
	return token != "" && strings.HasPrefix(auth, prefix) &&
		subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), []byte(token)) == 1
}
