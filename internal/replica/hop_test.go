package replica_test

import (
	"net/http"
	"net/http/httptest"
)

// handlerHop is an http.RoundTripper that serves every request with an
// in-process handler: no listener and no socket, and the handler runs
// under the caller's context, so a cancelled call cancels the handler.
// A synctest bubble can only hold hops like this one: a goroutine
// parked on a socket is not durably blocked, and fake time would stop.
type handlerHop struct{ h http.Handler }

func (hop handlerHop) RoundTrip(req *http.Request) (*http.Response, error) {
	in := req.Clone(req.Context())
	in.RequestURI = req.URL.RequestURI()
	if in.Body == nil {
		in.Body = http.NoBody
	}
	defer in.Body.Close()
	rec := httptest.NewRecorder()
	hop.h.ServeHTTP(rec, in)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}
