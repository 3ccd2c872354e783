package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tesc/api"
)

// limiterEpoch is the first instant the limiter tests pass to allow;
// they advance it by hand, so bucket refill is exact.
var limiterEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestTenantLimiterRefill(t *testing.T) {
	now := limiterEpoch
	// 2 tokens/s, capacity 4: a fresh tenant bursts 4 requests, then
	// earns one more every 500ms.
	l := newTenantLimiter(2, 4)

	for i := 0; i < 4; i++ {
		if ok, _ := l.allow("acme", now); !ok {
			t.Fatalf("burst request %d denied, want the full burst of 4 admitted", i)
		}
	}
	ok, wait := l.allow("acme", now)
	if ok {
		t.Fatal("5th request admitted from an empty bucket")
	}
	// Empty bucket at qps=2: the next whole token accrues in 500ms.
	if wait != 500*time.Millisecond {
		t.Fatalf("wait = %v, want 500ms", wait)
	}

	now = now.Add(499 * time.Millisecond)
	if ok, _ := l.allow("acme", now); ok {
		t.Fatal("admitted before a whole token accrued")
	}
	// The denied probe above re-stamped the bucket; from its fractional
	// balance one more ms completes the token.
	now = now.Add(2 * time.Millisecond)
	if ok, _ := l.allow("acme", now); !ok {
		t.Fatal("denied after a whole token accrued")
	}

	// A long idle period refills to capacity, never beyond.
	now = now.Add(time.Hour)
	for i := 0; i < 4; i++ {
		if ok, _ := l.allow("acme", now); !ok {
			t.Fatalf("post-idle burst request %d denied, want capacity restored to 4", i)
		}
	}
	if ok, _ := l.allow("acme", now); ok {
		t.Fatal("bucket refilled beyond its capacity")
	}
}

func TestTenantLimiterIsolation(t *testing.T) {
	now := limiterEpoch
	l := newTenantLimiter(1, 2)

	// The hog drains its own bucket dry.
	for i := 0; i < 10; i++ {
		l.allow("hog", now)
	}
	if ok, _ := l.allow("hog", now); ok {
		t.Fatal("hog still admitted after draining its bucket")
	}
	// The polite tenant's bucket is untouched.
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("polite", now); !ok {
			t.Fatalf("polite tenant request %d denied; the hog leaked into its bucket", i)
		}
	}
}

func TestTenantLimiterNilAdmitsAll(t *testing.T) {
	var l *tenantLimiter // quotas disabled
	for i := 0; i < 100; i++ {
		if ok, _ := l.allow("anyone", limiterEpoch); !ok {
			t.Fatal("nil limiter denied a request")
		}
	}
	if got := newTenantLimiter(0, 5); got != nil {
		t.Fatal("qps=0 should disable the limiter entirely")
	}
}

// A client minting a fresh tenant name per request must not grow the
// bucket map past maxTrackedTenants: newcomers land in the shared
// overflow bucket while every tracked bucket is active, and idle
// buckets are evicted once they refill.
func TestTenantLimiterOverflowAndEviction(t *testing.T) {
	now := limiterEpoch
	l := newTenantLimiter(1, 1)

	// Fill the map with active (drained) buckets.
	for i := 0; i < maxTrackedTenants; i++ {
		if ok, _ := l.allow(fmt.Sprintf("tenant-%d", i), now); !ok {
			t.Fatalf("fresh tenant %d denied", i)
		}
	}
	if n := len(l.buckets); n != maxTrackedTenants {
		t.Fatalf("tracked buckets = %d, want %d", n, maxTrackedTenants)
	}

	// Every bucket is empty, so nothing is evictable: the first
	// newcomer takes the overflow bucket's single token...
	if ok, _ := l.allow("fresh-1", now); !ok {
		t.Fatal("first overflow newcomer denied; the overflow bucket should start full")
	}
	// ...and the second newcomer shares the now-empty overflow bucket.
	if ok, _ := l.allow("fresh-2", now); ok {
		t.Fatal("second overflow newcomer admitted; it should share the drained overflow bucket")
	}
	if n := len(l.buckets); n > maxTrackedTenants+1 {
		t.Fatalf("bucket map grew to %d under tenant churn, want <= %d", n, maxTrackedTenants+1)
	}

	// After the buckets refill they are idle and evictable; a newcomer
	// gets its own bucket again.
	now = now.Add(2 * time.Second)
	if ok, _ := l.allow("fresh-3", now); !ok {
		t.Fatal("newcomer denied after idle buckets became evictable")
	}
	if n := len(l.buckets); n >= maxTrackedTenants {
		t.Fatalf("eviction kept %d buckets, want the idle ones dropped", n)
	}
}

func TestClassGateAccounting(t *testing.T) {
	g := newClassGate(2)
	if !g.tryAcquire() || !g.tryAcquire() {
		t.Fatal("gate of 2 refused its first two slots")
	}
	if g.inflight() != 2 {
		t.Fatalf("inflight = %d, want 2", g.inflight())
	}
	if g.tryAcquire() {
		t.Fatal("gate admitted past its bound")
	}
	if g.acquire(10 * time.Millisecond) {
		t.Fatal("blocking acquire succeeded on a saturated gate")
	}
	g.release()
	if g.inflight() != 1 {
		t.Fatalf("inflight after release = %d, want 1", g.inflight())
	}
	if !g.tryAcquire() {
		t.Fatal("gate refused a freed slot")
	}
	g.release()
	g.release()
	if g.inflight() != 0 {
		t.Fatalf("inflight after full release = %d, want 0", g.inflight())
	}

	var unlimited *classGate
	for i := 0; i < 100; i++ {
		if !unlimited.tryAcquire() {
			t.Fatal("nil gate refused a slot")
		}
	}
	unlimited.release() // must not panic
	if unlimited.inflight() != 0 {
		t.Fatal("nil gate reports inflight work")
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h latencyHist
	if got := h.quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %g, want 0", got)
	}

	// One 1ms observation: 1000µs lands in bucket 10 (2⁹..2¹⁰µs), whose
	// upper bound is 1.024ms.
	h.observe(time.Millisecond)
	if got := h.quantile(0.50); got != 1.024 {
		t.Fatalf("p50 = %g ms, want the 1.024ms bucket bound", got)
	}

	// 98 fast observations vs the one slow: p50 reports the fast
	// bucket, p99 the slow one. The bound is an upper bound — never
	// below the true latency.
	for i := 0; i < 98; i++ {
		h.observe(10 * time.Microsecond) // bucket 4, bound 16µs = 0.016ms
	}
	if got := h.quantile(0.50); got != 0.016 {
		t.Fatalf("p50 = %g ms, want 0.016", got)
	}
	if got := h.quantile(0.99); got != 1.024 {
		t.Fatalf("p99 = %g ms, want 1.024", got)
	}

	// Absurdly slow observations clamp into the final bucket instead of
	// indexing out of range.
	h.observe(48 * time.Hour)
	h.observe(-time.Second) // negative durations clamp to the first bucket
	if got := h.total(); got != 101 {
		t.Fatalf("total = %d, want 101", got)
	}
}

func TestAdmissionConfigNormalize(t *testing.T) {
	var c AdmissionConfig
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c.MaxInflightFG != defaultMaxInflightFG {
		t.Fatalf("MaxInflightFG = %d, want %d", c.MaxInflightFG, defaultMaxInflightFG)
	}
	if c.MaxInflightBG < 4 {
		t.Fatalf("MaxInflightBG = %d, want >= 4", c.MaxInflightBG)
	}
	if c.MaxTimeout != defaultMaxTimeout || c.DrainTimeout != defaultDrainTimeout {
		t.Fatalf("timeout defaults = %v/%v", c.MaxTimeout, c.DrainTimeout)
	}

	c = AdmissionConfig{TenantQPS: 3}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c.TenantBurst != 6 {
		t.Fatalf("default burst = %g, want 2x qps", c.TenantBurst)
	}
	c = AdmissionConfig{TenantQPS: 0.1, TenantBurst: 0.5}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c.TenantBurst != 1 {
		t.Fatalf("sub-token burst normalized to %g, want 1 (a bucket that can never hold a token admits nothing)", c.TenantBurst)
	}

	for _, bad := range []AdmissionConfig{
		{TenantQPS: -1},
		{TenantQPS: math.NaN()},
		{TenantQPS: math.Inf(1)},
		{TenantQPS: 1, TenantBurst: -2},
		{TenantQPS: 1, TenantBurst: math.NaN()},
	} {
		if err := bad.Normalize(); err == nil {
			t.Errorf("Normalize accepted %+v", bad)
		}
	}
}

func TestTenantOf(t *testing.T) {
	req := func(header, name string) *http.Request {
		r := httptest.NewRequest("GET", "/v1/graphs/x", nil)
		if header != "" {
			r.Header.Set(tenantHeader, header)
		}
		if name != "" {
			r.SetPathValue("name", name)
		}
		return r
	}
	cases := []struct {
		header, name, want string
	}{
		{"team-7", "acme:web", "team-7"}, // header wins
		{"", "acme:web", "acme"},
		{"", "acme/web", "acme"},
		{"", "plain", "default"},
		{"", ":odd", "default"}, // empty prefix is no tenant
		{"", "", "default"},
	}
	for _, c := range cases {
		if got := tenantOf(req(c.header, c.name)); got != c.want {
			t.Errorf("tenantOf(header=%q, name=%q) = %q, want %q", c.header, c.name, got, c.want)
		}
	}
}

func TestClientTimeout(t *testing.T) {
	req := func(v string) *http.Request {
		r := httptest.NewRequest("GET", "/", nil)
		if v != "" {
			r.Header.Set(timeoutHeader, v)
		}
		return r
	}
	if _, ok := clientTimeout(req(""), time.Minute); ok {
		t.Fatal("absent header produced a deadline")
	}
	for _, bad := range []string{"abc", "-5", "0", "12.5", ""} {
		if _, ok := clientTimeout(req(bad), time.Minute); ok {
			t.Errorf("malformed header %q produced a deadline instead of being ignored", bad)
		}
	}
	if d, ok := clientTimeout(req("250"), time.Minute); !ok || d != 250*time.Millisecond {
		t.Fatalf("250ms header = (%v, %v)", d, ok)
	}
	if d, ok := clientTimeout(req("9999999"), time.Second); !ok || d != time.Second {
		t.Fatalf("oversized header = (%v, %v), want clamp to the 1s max", d, ok)
	}
}

// decodeRetryable asserts a response carries the unified backpressure
// shape: a Retry-After header and the {code, reason, retry_after_ms}
// envelope.
func decodeRetryable(t *testing.T, rr *httptest.ResponseRecorder) api.Error {
	t.Helper()
	if rr.Header().Get("Retry-After") == "" {
		t.Fatalf("status %d response is missing the Retry-After header (body: %s)", rr.Code, rr.Body.String())
	}
	var body api.Error
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("backpressure body %q is not the unified shape: %v", rr.Body.String(), err)
	}
	if body.Code == "" || body.Reason == "" || body.RetryAfterMS < 1000 {
		t.Fatalf("backpressure body incomplete: %+v", body)
	}
	if !body.Retryable() {
		t.Fatalf("backpressure code %q is not in the retryable set", body.Code)
	}
	return body
}

// The admission chain in isolation: drain, quota, and gate rejections
// each produce their typed status without invoking the handler.
func TestAdmitChain(t *testing.T) {
	// A token accrues every 10⁶ s, so the refill the chain reads from
	// the real clock can never re-admit tenant "a" during the test.
	cfg := AdmissionConfig{MaxInflightFG: 1, TenantQPS: 1e-6, TenantBurst: 1}
	srv := New(Config{Admission: cfg})
	var handled int
	h := srv.admit(classForeground, func(w http.ResponseWriter, r *http.Request) {
		handled++
		w.WriteHeader(http.StatusOK)
	})

	get := func(tenant string) *httptest.ResponseRecorder {
		r := httptest.NewRequest("GET", "/v1/graphs", nil)
		if tenant != "" {
			r.Header.Set(tenantHeader, tenant)
		}
		rr := httptest.NewRecorder()
		h(rr, r)
		return rr
	}

	// Pass: fresh tenant, free gate.
	if rr := get("a"); rr.Code != http.StatusOK || handled != 1 {
		t.Fatalf("admitted request: code %d, handled %d", rr.Code, handled)
	}

	// Quota: the tenant's single token is spent.
	rr := get("a")
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota request = %d, want 429", rr.Code)
	}
	if body := decodeRetryable(t, rr); body.Code != api.CodeTenantQuota {
		t.Fatalf("code = %q, want %q", body.Code, api.CodeTenantQuota)
	}
	if got := srv.adm.quota429.Load(); got != 1 {
		t.Fatalf("quota_429 counter = %d, want 1", got)
	}

	// Gate shed: saturate the single fg slot out-of-band.
	if !srv.adm.fg.tryAcquire() {
		t.Fatal("could not saturate the fg gate")
	}
	rr = get("b")
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("overloaded request = %d, want 503", rr.Code)
	}
	if body := decodeRetryable(t, rr); body.Code != api.CodeOverloadedFG {
		t.Fatalf("code = %q, want %q", body.Code, api.CodeOverloadedFG)
	}
	if got := srv.adm.shedFG.Load(); got != 1 {
		t.Fatalf("shed_fg counter = %d, want 1", got)
	}
	srv.adm.fg.release()

	// Drain: everything answers 503 draining, ahead of quota and gates.
	srv.BeginDrain()
	rr = get("c")
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining request = %d, want 503", rr.Code)
	}
	if body := decodeRetryable(t, rr); body.Code != api.CodeDraining {
		t.Fatalf("code = %q, want %q", body.Code, api.CodeDraining)
	}
	if handled != 1 {
		t.Fatalf("handler ran %d times, want only the admitted request", handled)
	}
}

// The chain attaches the client's X-Tesc-Timeout-Ms as a context
// deadline, clamped to the configured maximum.
func TestAdmitAttachesDeadline(t *testing.T) {
	srv := New(Config{Admission: AdmissionConfig{MaxTimeout: time.Second}})
	var deadline time.Time
	var hasDeadline bool
	h := srv.admit(classForeground, func(w http.ResponseWriter, r *http.Request) {
		deadline, hasDeadline = r.Context().Deadline()
	})

	r := httptest.NewRequest("GET", "/v1/graphs", nil)
	h(httptest.NewRecorder(), r)
	if hasDeadline {
		t.Fatal("request without a timeout header got a deadline")
	}

	r = httptest.NewRequest("GET", "/v1/graphs", nil)
	r.Header.Set(timeoutHeader, "100")
	start := time.Now()
	h(httptest.NewRecorder(), r)
	if !hasDeadline {
		t.Fatal("timeout header did not attach a deadline")
	}
	if d := deadline.Sub(start); d <= 0 || d > 150*time.Millisecond {
		t.Fatalf("deadline %v from now, want ~100ms", d)
	}

	r = httptest.NewRequest("GET", "/v1/graphs", nil)
	r.Header.Set(timeoutHeader, "3600000") // clamped to MaxTimeout=1s
	start = time.Now()
	h(httptest.NewRecorder(), r)
	if d := deadline.Sub(start); d > 1100*time.Millisecond {
		t.Fatalf("deadline %v from now, want clamp to the 1s max", d)
	}
}

// A job slot is released exactly once no matter how many times the
// wrapper is called, and saturation sheds with accounting.
func TestAcquireJobSlot(t *testing.T) {
	a, err := newAdmission(AdmissionConfig{MaxInflightBG: 1})
	if err != nil {
		t.Fatal(err)
	}
	release, ok := a.acquireJobSlot()
	if !ok {
		t.Fatal("job slot denied on an idle gate")
	}
	if _, ok := a.acquireJobSlot(); ok {
		t.Fatal("second job slot granted past the bound")
	}
	if a.shedBG.Load() != 1 {
		t.Fatalf("shed_bg = %d, want 1", a.shedBG.Load())
	}
	release()
	release() // idempotent: must not free a slot twice
	if a.bg.inflight() != 0 {
		t.Fatalf("inflight after release = %d, want 0", a.bg.inflight())
	}
	if _, ok := a.acquireJobSlot(); !ok {
		t.Fatal("slot not reusable after release")
	}
}

// Internal background work borrows a slot but proceeds ungated when the
// gate stays saturated past the timeout: durability must never wedge
// behind client jobs.
func TestAcquireBackgroundProceedsOnTimeout(t *testing.T) {
	a, err := newAdmission(AdmissionConfig{MaxInflightBG: 1})
	if err != nil {
		t.Fatal(err)
	}
	hold, _ := a.acquireJobSlot()
	start := time.Now()
	release := a.acquireBackground(20 * time.Millisecond)
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("acquireBackground returned before its patience ran out")
	}
	release() // no slot was granted; must not underflow the gate
	if a.bg.inflight() != 1 {
		t.Fatalf("inflight = %d, want the job's 1 slot untouched", a.bg.inflight())
	}
	hold()
	release = a.acquireBackground(time.Second)
	if a.bg.inflight() != 1 {
		t.Fatalf("inflight = %d, want the borrowed slot held", a.bg.inflight())
	}
	release()
	release()
	if a.bg.inflight() != 0 {
		t.Fatalf("inflight = %d after release, want 0", a.bg.inflight())
	}
}

// FuzzAdmissionConfig drives Normalize and the assembled chain over
// arbitrary limit/quota/deadline combinations: any config Normalize
// accepts must produce a chain that answers every request with either
// a success or a well-formed typed backpressure response.
func FuzzAdmissionConfig(f *testing.F) {
	f.Add(0, 0, 0.0, 0.0, int64(0), "")
	f.Add(1, 1, 1.0, 1.0, int64(50), "acme")
	f.Add(-1, -1, 0.5, 100.0, int64(1), "x")
	f.Add(7, 3, 1e9, 0.25, int64(-20), strings.Repeat("t", 300))
	f.Add(2, 2, math.SmallestNonzeroFloat64, 0.0, int64(1<<40), "hog")
	f.Fuzz(func(t *testing.T, fg, bg int, qps, burst float64, timeoutMS int64, tenant string) {
		cfg := AdmissionConfig{MaxInflightFG: fg, MaxInflightBG: bg, TenantQPS: qps, TenantBurst: burst}
		err := cfg.Normalize()
		if qps < 0 || math.IsNaN(qps) || math.IsInf(qps, 0) ||
			burst < 0 || math.IsNaN(burst) || math.IsInf(burst, 0) {
			if err == nil {
				t.Fatalf("Normalize accepted invalid quota qps=%g burst=%g", qps, burst)
			}
			return
		}
		if err != nil {
			t.Fatalf("Normalize rejected valid config fg=%d bg=%d qps=%g burst=%g: %v", fg, bg, qps, burst, err)
		}
		if cfg.MaxInflightFG == 0 || cfg.MaxInflightBG == 0 {
			t.Fatalf("Normalize left a zero inflight bound: %+v", cfg)
		}
		if cfg.TenantQPS > 0 && cfg.TenantBurst < 1 {
			t.Fatalf("Normalize left an unusable burst %g for qps %g", cfg.TenantBurst, cfg.TenantQPS)
		}
		if cfg.MaxTimeout <= 0 || cfg.DrainTimeout <= 0 {
			t.Fatalf("Normalize left a non-positive timeout: %+v", cfg)
		}

		srv := New(Config{Admission: cfg})
		h := srv.admit(classForeground, func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
		})
		for i := 0; i < 3; i++ {
			r := httptest.NewRequest("GET", "/v1/graphs", nil)
			if tenant != "" {
				r.Header.Set(tenantHeader, tenant)
			}
			if timeoutMS != 0 {
				r.Header.Set(timeoutHeader, fmt.Sprint(timeoutMS))
			}
			rr := httptest.NewRecorder()
			h(rr, r)
			switch rr.Code {
			case http.StatusOK:
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				if rr.Header().Get("Retry-After") == "" {
					t.Fatalf("%d response without Retry-After", rr.Code)
				}
				var body api.Error
				if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil || body.Reason == "" || body.Code == "" {
					t.Fatalf("%d body %q is not the unified backpressure shape (%v)", rr.Code, rr.Body.String(), err)
				}
			default:
				t.Fatalf("admission chain produced unexpected status %d", rr.Code)
			}
		}
	})
}
