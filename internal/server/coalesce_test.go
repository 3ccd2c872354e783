package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tesc/api"
)

func TestFlightGroupLeaderFollower(t *testing.T) {
	var g flightGroup
	c, leader := g.join("k")
	if !leader {
		t.Fatal("first join is not the leader")
	}
	c2, leader2 := g.join("k")
	if leader2 {
		t.Fatal("second join became a second leader")
	}
	if c2 != c {
		t.Fatal("follower joined a different call")
	}
	if _, other := g.join("other-key"); !other {
		t.Fatal("a different key should start its own flight")
	}

	c.resp = correlateResponse{Tau: 0.5}
	g.complete("k", c)
	select {
	case <-c.done:
	default:
		t.Fatal("complete did not close the done channel")
	}
	// The key was retired before done closed: a request arriving now
	// starts a fresh computation (the epoch may have advanced).
	if _, fresh := g.join("k"); !fresh {
		t.Fatal("join after complete should lead a fresh flight")
	}
}

func TestFlightKeyCanonicalizes(t *testing.T) {
	a := correlateRequest{A: "x", B: "y", H: 2, SampleSize: 100}
	b := a
	if flightKey("g", 3, &a) != flightKey("g", 3, &b) {
		t.Fatal("identical requests produced different keys")
	}
	for name, other := range map[string]string{
		"graph": flightKey("g2", 3, &a),
		"epoch": flightKey("g", 4, &a),
	} {
		if other == flightKey("g", 3, &a) {
			t.Fatalf("key ignores the %s", name)
		}
	}
	c := a
	c.Seed = 99
	if flightKey("g", 3, &c) == flightKey("g", 3, &a) {
		t.Fatal("key ignores request options")
	}
}

// Coalesced followers must return the leader's response bit-identically
// — including ElapsedMS, the computation's cost paid once. The test
// installs itself as the flight's leader, lets real HTTP requests pile
// up as followers, then publishes a sentinel outcome and checks every
// follower got exactly those bytes.
func TestCorrelateCoalesceBitIdentical(t *testing.T) {
	env := newTestEnv(t)

	var info graphInfo
	env.do(t, http.StatusOK, "GET", "/v1/graphs/g", nil, &info)

	req := correlateRequest{A: "left", B: "right", H: 2, SampleSize: 200, Method: "importance", Seed: 7}
	key := flightKey("g", info.Epoch, &req)
	c, leader := env.srv.flights.join(key)
	if !leader {
		t.Fatal("test failed to install itself as the flight leader")
	}

	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	const followers = 8
	bodies := make([][]byte, followers)
	errs := make([]error, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := env.hc.Post(envURL+"/v1/graphs/g/correlate", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			bodies[i] = buf.Bytes()
		}(i)
	}

	// Wait until every follower is parked on the flight: each one
	// counts a coalesce hit before blocking.
	deadline := time.Now().Add(5 * time.Second)
	for env.srv.adm.coalesceHits.Load() < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers joined the flight", env.srv.adm.coalesceHits.Load(), followers)
		}
		time.Sleep(time.Millisecond)
	}

	// Publish a sentinel outcome no real computation would produce.
	c.resp = correlateResponse{Tau: 0.123456, Z: 9.75, P: 0.000011, Verdict: "positive",
		Significant: true, N: 41, Sampler: "sentinel", Population: 1234,
		SamplerBFS: 5, DensityBFS: 6, ElapsedMS: 99.5, Epoch: info.Epoch}
	env.srv.flights.complete(key, c)
	wg.Wait()

	want, err := json.Marshal(c.resp)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n') // api.WriteJSON uses an Encoder, which terminates with \n
	for i := 0; i < followers; i++ {
		if errs[i] != nil {
			t.Fatalf("follower %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], want) {
			t.Fatalf("follower %d body %q is not bit-identical to the leader outcome %q", i, bodies[i], want)
		}
	}
}

// A leader that dies on its own context (client hang-up, deadline) must
// not poison its followers: they re-join, one becomes the new leader
// and computes the real result.
func TestCoalesceLeaderCtxFailRetries(t *testing.T) {
	env := newTestEnv(t)

	var info graphInfo
	env.do(t, http.StatusOK, "GET", "/v1/graphs/g", nil, &info)

	req := correlateRequest{A: "left", B: "right", H: 2, SampleSize: 150, Method: "importance", Seed: 3}
	key := flightKey("g", info.Epoch, &req)
	c, leader := env.srv.flights.join(key)
	if !leader {
		t.Fatal("test failed to install itself as the flight leader")
	}

	done := make(chan error, 1)
	go func() {
		var out correlateResponse
		done <- env.doErr(http.StatusOK, "POST", "/v1/graphs/g/correlate", &req, &out)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for env.srv.adm.coalesceHits.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}

	// The fake leader's client "hung up": publish a ctxFail outcome.
	c.errCode, c.errMsg, c.ctxFail = api.CodeClientClosed, "client closed request", true
	env.srv.flights.complete(key, c)

	// The follower must NOT adopt the 499 — its own client is still
	// here. It re-joins, becomes the new leader, and serves a real 200.
	if err := <-done; err != nil {
		t.Fatalf("follower after leader ctx-failure: %v", err)
	}
}

// newRecorderVia serves one request in-process through the server's
// handler, so the test can supply a request context the HTTP client
// API would never let it send.
func newRecorderVia(env *testEnv, r *http.Request) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	env.srv.Handler().ServeHTTP(rr, r)
	return rr
}

// A correlate request whose own context is already dead reports a typed
// outcome instead of burning BFS work: 504 (unified backpressure shape,
// reason "timeout") for an expired deadline, 499 for a client hang-up.
func TestCorrelateDeadContext(t *testing.T) {
	env := newTestEnv(t)
	body := func() *bytes.Reader {
		b, _ := json.Marshal(map[string]any{"a": "left", "b": "right", "h": 2, "sample_size": 200})
		return bytes.NewReader(b)
	}

	// Expired deadline → 504 with Retry-After and reason "timeout".
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	r, err := http.NewRequestWithContext(ctx, "POST", "/v1/graphs/g/correlate", body())
	if err != nil {
		t.Fatal(err)
	}
	rr := newRecorderVia(env, r)
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("expired-deadline correlate = %d, want 504 (body: %s)", rr.Code, rr.Body.String())
	}
	if got := decodeRetryable(t, rr); got.Code != api.CodeTimeout {
		t.Fatalf("code = %q, want %q", got.Code, api.CodeTimeout)
	}
	if env.srv.adm.timeouts.Load() == 0 {
		t.Fatal("timeout counter not incremented")
	}

	// Cancelled context (client gone) → 499, best-effort.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	r2, err := http.NewRequestWithContext(ctx2, "POST", "/v1/graphs/g/correlate", body())
	if err != nil {
		t.Fatal(err)
	}
	rr2 := newRecorderVia(env, r2)
	if rr2.Code != 499 {
		t.Fatalf("cancelled-context correlate = %d, want 499 (body: %s)", rr2.Code, rr2.Body.String())
	}
}
