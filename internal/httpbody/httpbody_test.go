package httpbody

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tesc/api"
)

func request(body io.Reader, length int64) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/", body)
	r.ContentLength = length
	return r
}

// TestReadPresizeIsCapped: a request that declares the whole bound but
// sends a few bytes gets a buffer of about presizeCap, not of the bound.
func TestReadPresizeIsCapped(t *testing.T) {
	body, ok := Read(httptest.NewRecorder(), request(strings.NewReader("{}"), api.MaxBodyBytes), api.MaxBodyBytes)
	if !ok || string(body) != "{}" {
		t.Fatalf("Read = %q, %v", body, ok)
	}
	if c := cap(body); c > presizeCap+bytes.MinRead {
		t.Fatalf("declared %d bytes, sent 2: buffer cap %d, want at most %d", api.MaxBodyBytes, c, presizeCap+bytes.MinRead)
	}
}

// TestReadPresizeFitsDeclaredBody: a body no larger than presizeCap is
// read into the buffer its Content-Length sized, without regrowing.
func TestReadPresizeFitsDeclaredBody(t *testing.T) {
	want := bytes.Repeat([]byte("0 1\n"), 1<<18)
	body, ok := Read(httptest.NewRecorder(), request(bytes.NewReader(want), int64(len(want))), api.MaxBodyBytes)
	if !ok || !bytes.Equal(body, want) {
		t.Fatalf("Read: ok %v, %d bytes, want %d", ok, len(body), len(want))
	}
	if c := cap(body); c != len(want)+bytes.MinRead {
		t.Fatalf("buffer cap %d, want %d", c, len(want)+bytes.MinRead)
	}
}

// TestReadBound: a declared length over the bound is refused unread, a
// streamed body is refused once it crosses the bound, and a body of
// exactly the bound is read.
func TestReadBound(t *testing.T) {
	const limit = 4096
	tooLarge := httptest.NewRecorder()
	TooLarge(tooLarge, limit)

	unread := strings.NewReader("{}")
	rec := httptest.NewRecorder()
	if _, ok := Read(rec, request(unread, limit+1), limit); ok || rec.Body.String() != tooLarge.Body.String() || unread.Len() != 2 {
		t.Fatalf("declared %d bytes: ok %v, %d %s, %d bytes left unread", limit+1, ok, rec.Code, rec.Body, unread.Len())
	}
	rec = httptest.NewRecorder()
	if _, ok := Read(rec, request(bytes.NewReader(make([]byte, limit+1)), -1), limit); ok || rec.Code != http.StatusBadRequest || rec.Body.String() != tooLarge.Body.String() {
		t.Fatalf("streamed %d bytes: ok %v, %d %s", limit+1, ok, rec.Code, rec.Body)
	}
	if body, ok := Read(httptest.NewRecorder(), request(bytes.NewReader(make([]byte, limit)), -1), limit); !ok || len(body) != limit {
		t.Fatalf("streamed exactly %d bytes: ok %v, read %d", limit, ok, len(body))
	}
}
