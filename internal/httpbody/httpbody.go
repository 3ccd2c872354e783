// Package httpbody bounds and buffers request bodies for tescd and the
// coordinator, which refuse an oversized body with the same 400.
package httpbody

import (
	"bytes"
	"io"
	"net/http"

	"tesc/api"
)

// presizeCap bounds the buffer Read allocates from a declared
// Content-Length before a byte of the body arrives. A larger body grows
// the buffer only as its bytes are read, so a request that declares a
// large body and then stalls holds at most this much.
const presizeCap = 16 << 20

// Read buffers r's body, presized from Content-Length up to presizeCap.
// A body over limit bytes is refused with a 400 ("request body exceeds
// N bytes"): a declared one before anything is allocated, a streamed
// one once it crosses the bound. On refusal or a read error Read has
// written the response and returns false.
func Read(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	if r.ContentLength > limit {
		TooLarge(w, limit)
		return nil, false
	}
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), presizeCap)+bytes.MinRead))
	if _, err := buf.ReadFrom(io.LimitReader(r.Body, limit+1)); err != nil {
		api.WriteError(w, api.CodeBadRequest, "invalid request body: %v", err)
		return nil, false
	}
	if int64(buf.Len()) > limit {
		TooLarge(w, limit)
		return nil, false
	}
	return buf.Bytes(), true
}

// TooLarge writes the 400 a body over limit bytes gets.
func TooLarge(w http.ResponseWriter, limit int64) {
	api.WriteError(w, api.CodeBadRequest, "request body exceeds %d bytes", limit)
}
