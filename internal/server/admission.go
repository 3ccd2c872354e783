package server

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tesc/api"
)

// This file is tescd's overload-protection front door. Every /v1 route
// passes through the admission chain before its handler runs:
//
//	drain gate → per-tenant token bucket → class concurrency gate →
//	deadline attachment → handler → latency histogram
//
// The chain's job is to make the service degrade in a chosen order
// instead of collapsing in an accidental one. Requests are split into
// a foreground class (correlate and other point reads/mutations, the
// latency-sensitive path) and a background class (screening jobs,
// monitor re-screens, checkpoints — the analytic work that is allowed
// to be late), each with its own concurrency bound, so a burst of
// sweeps can never starve point queries of cores. Excess load is shed
// with typed 429/503 responses carrying Retry-After; clients that set
// a deadline get it propagated into the BFS loops via the request
// context. See docs/OVERLOAD.md for the degradation ladder.

// AdmissionConfig bounds what the front door admits. The zero value
// selects the defaults; Normalize fills them in and validates.
type AdmissionConfig struct {
	// MaxInflightFG bounds concurrently executing foreground requests
	// (correlate, point reads, mutations). 0 selects the default (256);
	// negative disables the bound.
	MaxInflightFG int
	// MaxInflightBG bounds concurrently executing background work:
	// screening jobs (which hold their slot for the job's whole life),
	// monitor creates/refreshes, and operator checkpoints. 0 selects
	// the default (GOMAXPROCS, at least 4); negative disables the
	// bound.
	MaxInflightBG int
	// TenantQPS is the per-tenant token-bucket refill rate in requests
	// per second, applied across all /v1 routes. 0 disables quotas;
	// negative is an error.
	TenantQPS float64
	// TenantBurst is the bucket capacity — how far a tenant may burst
	// above the sustained rate. 0 selects max(2×TenantQPS, 1).
	TenantBurst float64
	// MaxTimeout caps the deadline a client may request through the
	// X-Tesc-Timeout-Ms header (default 60s).
	MaxTimeout time.Duration
	// DrainTimeout bounds the graceful-drain window on shutdown:
	// in-flight requests get this long to finish before the listener
	// closes and remaining jobs are cancelled (default 5s).
	DrainTimeout time.Duration
}

// Admission defaults, exported only through Normalize.
const (
	defaultMaxInflightFG = 256
	defaultMaxTimeout    = 60 * time.Second
	defaultDrainTimeout  = 5 * time.Second
	// maxTrackedTenants caps the tenant-bucket map: a client minting a
	// fresh tenant header per request must not grow daemon memory
	// without bound. Past the cap, idle (full) buckets are evicted
	// first; if every bucket is active the newcomer shares the
	// overflow bucket, which is strictly more conservative.
	maxTrackedTenants = 4096
)

// Normalize validates the config and fills defaults in place.
func (c *AdmissionConfig) Normalize() error {
	if c.MaxInflightFG == 0 {
		c.MaxInflightFG = defaultMaxInflightFG
	}
	if c.MaxInflightBG == 0 {
		c.MaxInflightBG = runtime.GOMAXPROCS(0)
		if c.MaxInflightBG < 4 {
			c.MaxInflightBG = 4
		}
	}
	if c.TenantQPS < 0 || math.IsNaN(c.TenantQPS) || math.IsInf(c.TenantQPS, 0) {
		return fmt.Errorf("admission: tenant qps must be >= 0 and finite, got %g", c.TenantQPS)
	}
	if c.TenantBurst < 0 || math.IsNaN(c.TenantBurst) || math.IsInf(c.TenantBurst, 0) {
		return fmt.Errorf("admission: tenant burst must be >= 0 and finite, got %g", c.TenantBurst)
	}
	if c.TenantQPS > 0 && c.TenantBurst == 0 {
		c.TenantBurst = math.Max(2*c.TenantQPS, 1)
	}
	if c.TenantQPS > 0 && c.TenantBurst < 1 {
		// A bucket that can never hold one whole token admits nothing.
		c.TenantBurst = 1
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = defaultMaxTimeout
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = defaultDrainTimeout
	}
	return nil
}

// ---- per-tenant token buckets ---------------------------------------

// tokenBucket is one tenant's quota state: a lazily refilled bucket.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// tenantLimiter applies a token-bucket quota per tenant. All methods
// are safe for concurrent use.
type tenantLimiter struct {
	qps   float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

func newTenantLimiter(qps, burst float64) *tenantLimiter {
	if qps <= 0 {
		return nil // quotas disabled
	}
	return &tenantLimiter{qps: qps, burst: burst, buckets: make(map[string]*tokenBucket)}
}

// allow spends one token from the tenant's bucket, refilled up to the
// instant now. When the bucket is empty it reports false and how long
// until the next token accrues. A nil limiter admits everything.
func (l *tenantLimiter) allow(tenant string, now time.Time) (bool, time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[tenant]
	if !ok {
		if len(l.buckets) >= maxTrackedTenants {
			l.evictIdleLocked(now)
		}
		if len(l.buckets) >= maxTrackedTenants {
			// Every tracked bucket is active; newcomers share one
			// overflow bucket rather than growing the map.
			tenant = "\x00overflow"
			if b = l.buckets[tenant]; b == nil {
				b = &tokenBucket{tokens: l.burst, last: now}
				l.buckets[tenant] = b
			}
		} else {
			b = &tokenBucket{tokens: l.burst, last: now}
			l.buckets[tenant] = b
		}
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(l.burst, b.tokens+dt*l.qps)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / l.qps * float64(time.Second))
	return false, wait
}

// evictIdleLocked drops buckets refilled back to capacity — tenants
// idle long enough that forgetting them loses nothing.
func (l *tenantLimiter) evictIdleLocked(now time.Time) {
	for name, b := range l.buckets {
		if dt := now.Sub(b.last).Seconds(); math.Min(l.burst, b.tokens+dt*l.qps) >= l.burst {
			delete(l.buckets, name)
		}
	}
}

// ---- class concurrency gates ----------------------------------------

// classGate bounds concurrently executing requests of one class. A nil
// gate is unlimited.
type classGate struct {
	slots chan struct{}
}

func newClassGate(n int) *classGate {
	if n <= 0 {
		return nil
	}
	return &classGate{slots: make(chan struct{}, n)}
}

// tryAcquire claims a slot without blocking — the shed path: a class at
// its bound answers 503 instead of queueing unbounded goroutines.
func (g *classGate) tryAcquire() bool {
	if g == nil {
		return true
	}
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// acquire blocks until a slot frees or the deadline passes, reporting
// whether it got one. Internal background work (checkpoint flushes)
// uses it to queue behind client jobs instead of shedding — but with a
// bound, so a saturated gate can never deadlock shutdown.
func (g *classGate) acquire(timeout time.Duration) bool {
	if g == nil {
		return true
	}
	select {
	case g.slots <- struct{}{}:
		return true
	default:
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case g.slots <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

func (g *classGate) release() {
	if g != nil {
		<-g.slots
	}
}

// inflight reports the currently held slots (observability only).
func (g *classGate) inflight() int {
	if g == nil {
		return 0
	}
	return len(g.slots)
}

// ---- latency histograms ---------------------------------------------

// latBuckets spans 1µs (bucket 1) to ~2¹⁵ ms ≈ 34s and above (the last
// bucket absorbs everything slower).
const latBuckets = 26

// latencyHist is a fixed-bucket log₂ latency histogram: bucket i holds
// requests that took [2^(i-1), 2^i) microseconds. Lock-free on the
// request path; percentile reads walk 26 counters.
type latencyHist struct {
	counts [latBuckets]atomic.Int64
}

func (h *latencyHist) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	i := bits.Len64(uint64(us))
	if i >= latBuckets {
		i = latBuckets - 1
	}
	h.counts[i].Add(1)
}

func (h *latencyHist) total() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// quantile returns the upper bound of the bucket containing the q-th
// quantile, in milliseconds (0 when the histogram is empty). An upper
// bound is the honest direction for an SLO gauge: the true latency is
// at most the reported value.
func (h *latencyHist) quantile(q float64) float64 {
	total := h.total()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			return float64(uint64(1)<<uint(i)) / 1000 // 2^i µs → ms
		}
	}
	return float64(uint64(1)<<uint(latBuckets-1)) / 1000
}

// view shapes the histogram for healthz.
func (h *latencyHist) view() api.LatencySummary {
	return api.LatencySummary{
		Count: h.total(),
		P50MS: h.quantile(0.50),
		P95MS: h.quantile(0.95),
		P99MS: h.quantile(0.99),
	}
}

// ---- the admission chain --------------------------------------------

// reqClass routes a request to its resource class.
type reqClass int

const (
	// classForeground: correlate, point reads, mutations — the
	// latency-sensitive path.
	classForeground reqClass = iota
	// classBackground: synchronous analytic work (monitor creates and
	// refreshes, operator checkpoints); the gate slot is held for the
	// handler's duration.
	classBackground
	// classBackgroundJob: screen-job submission. The admission chain
	// applies quota/drain/deadline but not the gate — the handler
	// claims a background slot that the job goroutine holds for the
	// job's whole lifetime (see Server.handleScreen).
	classBackgroundJob
)

// admission is the server's assembled overload-protection state.
type admission struct {
	cfg     AdmissionConfig
	tenants *tenantLimiter
	fg, bg  *classGate

	draining atomic.Bool

	// shed/quota/timeout accounting, surfaced in healthz ("slo").
	shedFG       atomic.Int64
	shedBG       atomic.Int64
	quota429     atomic.Int64
	timeouts     atomic.Int64
	coalesceHits atomic.Int64

	histFG latencyHist
	histBG latencyHist
}

func newAdmission(cfg AdmissionConfig) (*admission, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	return &admission{
		cfg:     cfg,
		tenants: newTenantLimiter(cfg.TenantQPS, cfg.TenantBurst),
		fg:      newClassGate(cfg.MaxInflightFG),
		bg:      newClassGate(cfg.MaxInflightBG),
	}, nil
}

// timeoutHeader is the client deadline header: the request is given
// this many milliseconds before its context is cancelled and the
// response becomes 504. Values above AdmissionConfig.MaxTimeout clamp.
const timeoutHeader = "X-Tesc-Timeout-Ms"

// tenantHeader names the requesting tenant for quota accounting.
const tenantHeader = "X-Tesc-Tenant"

// tenantOf extracts the quota tenant: the X-Tesc-Tenant header when
// set, else the graph name's prefix before the first ":" or "/" (the
// "acme:web" convention for tenant-namespaced graphs), else "default".
// Must be called from a handler the mux has already matched, so
// r.PathValue sees the route's {name}.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(tenantHeader); t != "" {
		return t
	}
	if name := r.PathValue("name"); name != "" {
		if i := strings.IndexAny(name, ":/"); i > 0 {
			return name[:i]
		}
	}
	return "default"
}

// clientTimeout parses the deadline header, clamped to the configured
// maximum. Malformed or non-positive values are ignored rather than
// rejected: a bad hint must not fail a request that would have
// succeeded without one.
func clientTimeout(r *http.Request, maxT time.Duration) (time.Duration, bool) {
	raw := r.Header.Get(timeoutHeader)
	if raw == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 {
		return 0, false
	}
	d := time.Duration(ms) * time.Millisecond
	if d > maxT {
		d = maxT
	}
	return d, true
}

// admit wraps a handler with the admission chain. The wrapper runs as
// the mux-matched handler, so path values are available for tenant
// extraction.
func (s *Server) admit(class reqClass, h http.HandlerFunc) http.HandlerFunc {
	a := s.adm
	return func(w http.ResponseWriter, r *http.Request) {
		if a.draining.Load() {
			api.WriteRetryable(w, time.Second, api.CodeDraining,
				"server is draining; retry against another replica")
			return
		}
		tenant := tenantOf(r)
		if ok, wait := a.tenants.allow(tenant, time.Now()); !ok {
			a.quota429.Add(1)
			api.WriteRetryable(w, wait, api.CodeTenantQuota,
				"tenant %q is over its request quota", tenant)
			return
		}
		hist := &a.histFG
		switch class {
		case classForeground:
			if !a.fg.tryAcquire() {
				a.shedFG.Add(1)
				api.WriteRetryable(w, time.Second, api.CodeOverloadedFG,
					"foreground capacity exhausted (%d in flight)", a.fg.inflight())
				return
			}
			defer a.fg.release()
		case classBackground:
			hist = &a.histBG
			if !a.bg.tryAcquire() {
				a.shedBG.Add(1)
				api.WriteRetryable(w, 2*time.Second, api.CodeOverloadedBG,
					"background capacity exhausted (%d in flight)", a.bg.inflight())
				return
			}
			defer a.bg.release()
		case classBackgroundJob:
			hist = &a.histBG
			// The job slot is claimed by the handler and held by the
			// job goroutine; only quota/drain/deadline apply here.
		}
		if d, ok := clientTimeout(r, a.cfg.MaxTimeout); ok {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			r = r.WithContext(ctx)
		}
		start := time.Now()
		h(w, r)
		hist.observe(time.Since(start))
	}
}

// acquireJobSlot claims a background slot for an asynchronous job's
// whole lifetime; the returned release must be called exactly once when
// the job finishes. Reports false (and counts the shed) at saturation.
func (a *admission) acquireJobSlot() (release func(), ok bool) {
	if !a.bg.tryAcquire() {
		a.shedBG.Add(1)
		return nil, false
	}
	var once sync.Once
	return func() { once.Do(a.bg.release) }, true
}

// acquireBackground lends a background slot to internal work
// (checkpoint flushes): blocks up to timeout behind client jobs, then
// proceeds ungated — durability must win over prioritization, and a
// saturated gate must never wedge shutdown. The returned release is
// always safe to call.
func (a *admission) acquireBackground(timeout time.Duration) func() {
	if a.bg.acquire(timeout) {
		var once sync.Once
		return func() { once.Do(a.bg.release) }
	}
	return func() {}
}

// sloView shapes the admission state for healthz.
func (a *admission) sloView() api.SLOView {
	return api.SLOView{
		FG:           a.histFG.view(),
		BG:           a.histBG.view(),
		InflightFG:   a.fg.inflight(),
		InflightBG:   a.bg.inflight(),
		ShedFG:       a.shedFG.Load(),
		ShedBG:       a.shedBG.Load(),
		Quota429:     a.quota429.Load(),
		Timeouts:     a.timeouts.Load(),
		CoalesceHits: a.coalesceHits.Load(),
		Draining:     a.draining.Load(),
	}
}
