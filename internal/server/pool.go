package server

import (
	"bytes"
	"encoding/json"
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

// poolBufCap bounds what a pooled buffer may retain: a rare giant response
// (a full session listing) must not pin its high-water mark forever.
const poolBufCap = 64 << 10

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
	if jw.buf.Cap() > poolBufCap {
		return
	}
	jsonWriters.Put(jw)
}
