package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tesc"
	"tesc/api"
)

// newOverloadEnv is newTestEnv with an explicit server config: the
// overload tests need tight admission bounds instead of the defaults,
// the durable ones a data directory. The caller stops the server.
func newOverloadEnv(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	g := tesc.RandomCommunityGraph(5, 40, 6, 0.5, 42)
	if cfg.IndexCacheCapacity == 0 {
		cfg.IndexCacheCapacity = 4
	}
	srv := New(cfg)
	if cfg.DataDir != "" {
		if _, err := srv.LoadData(); err != nil {
			t.Fatal(err)
		}
	}
	env := serve(srv)
	env.graph = g
	for v := 0; v < 15; v++ {
		env.va = append(env.va, v)
	}
	for v := 160; v < 175; v++ {
		env.vb = append(env.vb, v)
	}
	var edges strings.Builder
	if err := g.WriteGraph(&edges); err != nil {
		t.Fatal(err)
	}
	env.do(t, http.StatusCreated, "POST", "/v1/graphs",
		map[string]any{"name": "g", "edge_list": edges.String()}, nil)
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/events",
		map[string]any{"events": map[string][]int{"left": env.va, "right": env.vb}}, nil)
	return env
}

// rawPost issues one request and returns status, headers and body.
func rawPost(env *testEnv, path string, body any, tenant string) (int, http.Header, []byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, nil, nil, err
	}
	req, err := http.NewRequest("POST", envURL+path, bytes.NewReader(buf))
	if err != nil {
		return 0, nil, nil, err
	}
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	resp, err := env.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw, nil
}

// checkTyped asserts a backpressure response carries Retry-After and
// the unified envelope with one of the allowed codes.
func checkTyped(code int, hdr http.Header, body []byte, codes ...api.ErrorCode) error {
	if hdr.Get("Retry-After") == "" {
		return fmt.Errorf("%d response without Retry-After (body %s)", code, body)
	}
	var r api.Error
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%d body %q is not the unified shape: %v", code, body, err)
	}
	for _, want := range codes {
		if r.Code == want {
			return nil
		}
	}
	return fmt.Errorf("%d code %q, want one of %v", code, r.Code, codes)
}

func p99(lats []time.Duration) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	i := len(lats) * 99 / 100
	if i >= len(lats) {
		i = len(lats) - 1
	}
	return lats[i]
}

// sloSection fetches the healthz "slo" map.
func sloSection(t *testing.T, env *testEnv) map[string]any {
	t.Helper()
	var h struct {
		SLO map[string]any `json:"slo"`
	}
	env.do(t, http.StatusOK, "GET", "/healthz", nil, &h)
	if h.SLO == nil {
		t.Fatal("healthz carries no slo section")
	}
	return h.SLO
}

// The acceptance scenario: under a flood at ~2x foreground capacity
// with background jobs competing, every request gets a terminal answer
// — 200, or a typed 429/503 with Retry-After — foreground tail latency
// stays bounded, background sheds first, and the server ends the storm
// with zero in-flight work.
func TestOverloadFloodShedsTypedAndBoundsForeground(t *testing.T) {
	env := newOverloadEnv(t, Config{
		Admission: AdmissionConfig{MaxInflightFG: 4, MaxInflightBG: 1},
	})
	correlate := map[string]any{"a": "left", "b": "right", "h": 1, "sample_size": 150, "seed": 5}

	// Baseline: unloaded sequential foreground p99.
	var unloaded []time.Duration
	for i := 0; i < 40; i++ {
		start := time.Now()
		code, _, body, err := rawPost(env, "/v1/graphs/g/correlate", correlate, "")
		if err != nil || code != http.StatusOK {
			t.Fatalf("unloaded correlate %d: code %d err %v body %s", i, code, err, body)
		}
		unloaded = append(unloaded, time.Since(start))
	}
	p99Unloaded := p99(unloaded)

	// Flood: 8 clients per foreground slot, several rounds each, with a
	// burst of screen submissions contending for the single background
	// slot. Every request must terminate with 200/202 or a typed shed.
	const clients, rounds, screens = 32, 4, 8
	var (
		mu       sync.Mutex
		accepted []time.Duration
		shed     int
		failures []error
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				start := time.Now()
				code, hdr, body, err := rawPost(env, "/v1/graphs/g/correlate", correlate, "")
				lat := time.Since(start)
				mu.Lock()
				switch {
				case err != nil:
					failures = append(failures, err)
				case code == http.StatusOK:
					accepted = append(accepted, lat)
				case code == http.StatusServiceUnavailable:
					shed++
					if terr := checkTyped(code, hdr, body, api.CodeOverloadedFG); terr != nil {
						failures = append(failures, terr)
					}
				default:
					failures = append(failures, fmt.Errorf("correlate status %d (body %s)", code, body))
				}
				mu.Unlock()
			}
		}()
	}
	for sIdx := 0; sIdx < screens; sIdx++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, hdr, body, err := rawPost(env, "/v1/graphs/g/screen",
				map[string]any{"h": 1, "sample_size": 150, "seed": 11}, "")
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				failures = append(failures, err)
			case code == http.StatusAccepted:
			case code == http.StatusServiceUnavailable:
				if terr := checkTyped(code, hdr, body, api.CodeOverloadedBG); terr != nil {
					failures = append(failures, terr)
				}
			default:
				failures = append(failures, fmt.Errorf("screen status %d (body %s)", code, body))
			}
		}()
	}

	// Zero hung requests: the whole storm must terminate.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("flood requests hung: admission must shed, never park work")
	}
	for _, err := range failures {
		t.Error(err)
	}
	if len(failures) > 0 {
		t.FailNow()
	}
	if len(accepted) == 0 {
		t.Fatal("the flood starved every foreground request; admission must keep serving at capacity")
	}

	// Admitted foreground work stays fast: concurrency is bounded at
	// MaxInflightFG, so the tail cannot grow with offered load. The
	// acceptance bar is 2x the unloaded p99; the floor absorbs
	// scheduler noise on sub-millisecond baselines.
	bound := 2 * p99Unloaded
	if floor := 250 * time.Millisecond; bound < floor {
		bound = floor
	}
	if got := p99(accepted); got > bound {
		t.Fatalf("flood fg p99 = %v, want <= %v (2x unloaded p99 %v): admitted requests are queueing somewhere", got, bound, p99Unloaded)
	}

	// The storm is over: in-flight gauges must drain to zero once the
	// background jobs finish, and the shed counters must have moved.
	deadline := time.Now().Add(30 * time.Second)
	for {
		slo := sloSection(t, env)
		if slo["inflight_fg"].(float64) == 0 && slo["inflight_bg"].(float64) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight work never drained: slo = %v", slo)
		}
		time.Sleep(10 * time.Millisecond)
	}
	slo := sloSection(t, env)
	if shed > 0 && slo["shed_fg"].(float64) == 0 {
		t.Fatalf("observed %d shed responses but shed_fg counter is zero", shed)
	}
	if fg, ok := slo["fg"].(map[string]any); !ok || fg["count"].(float64) == 0 {
		t.Fatalf("fg latency histogram recorded nothing: %v", slo["fg"])
	}
}

// Quotas isolate tenants: a hog burning through its bucket gets typed
// 429s while a polite tenant inside its burst is untouched.
func TestHogTenantIsolation(t *testing.T) {
	env := newOverloadEnv(t, Config{
		Admission: AdmissionConfig{TenantQPS: 50, TenantBurst: 5},
	})
	get := func(tenant string) (int, http.Header, []byte) {
		req, err := http.NewRequest("GET", envURL+"/v1/graphs", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(tenantHeader, tenant)
		resp, err := env.hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, raw
	}

	// The polite tenant's burst of 5 is always admitted.
	for i := 0; i < 5; i++ {
		if code, _, body := get("polite"); code != http.StatusOK {
			t.Fatalf("polite request %d = %d (body %s)", i, code, body)
		}
	}

	// The hog fires 200 back-to-back requests: its bucket holds 5 plus
	// at most a few refills, so most must shed as typed 429s — and
	// never anything else.
	quota := 0
	for i := 0; i < 200; i++ {
		code, hdr, body := get("hog")
		switch code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			quota++
			if err := checkTyped(code, hdr, body, api.CodeTenantQuota); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("hog request %d = %d (body %s)", i, code, body)
		}
	}
	if quota == 0 {
		t.Fatal("200 back-to-back requests against a burst of 5 never hit the quota")
	}

	// The hog exhausted only its own bucket: after a refill interval the
	// polite tenant's sustained rate is still served.
	time.Sleep(500 * time.Millisecond)
	for i := 0; i < 5; i++ {
		if code, _, body := get("polite"); code != http.StatusOK {
			t.Fatalf("polite request %d after the hog storm = %d (body %s): the hog leaked into another tenant's quota", i, code, body)
		}
	}
	if sloSection(t, env)["quota_429"].(float64) == 0 {
		t.Fatal("quota_429 counter never moved")
	}
}

// Graceful drain end to end on a durable server: in-flight jobs are
// cancelled, new requests shed with reason "draining", the WAL is
// flushed, and a fresh boot recovers to exactly the last acked epoch.
func TestDrainFlushesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	env := newOverloadEnv(t, Config{
		DataDir:         dir,
		CheckpointDelay: time.Hour, // durability must come from the drain, not the debounce
	})

	// Acked mutations the recovery must reproduce exactly.
	var mut mutateEdgesResponse
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges",
		map[string]any{"insert": [][2]int{{0, 170}, {1, 171}}}, &mut)
	ackedEpoch := mut.Epoch

	// A running job to drain away.
	job := env.srv.jobs.Start("g", nil, func(ctx context.Context, _ *Job) (*ScreenResultView, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})

	// The drain sequence ListenAndServe runs on SIGTERM.
	env.srv.BeginDrain()
	if !env.srv.adm.draining.Load() {
		t.Fatal("not draining after BeginDrain")
	}
	code, hdr, body, err := rawPost(env, "/v1/graphs/g/correlate",
		map[string]any{"a": "left", "b": "right", "h": 1, "sample_size": 100}, "")
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("correlate during drain = %d, want 503", code)
	}
	if err := checkTyped(code, hdr, body, api.CodeDraining); err != nil {
		t.Fatal(err)
	}

	env.srv.jobs.CancelAll()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if !env.srv.jobs.Wait(ctx) {
		t.Fatal("jobs did not drain in time")
	}
	if got := job.Snapshot().Status; got != JobCancelled {
		t.Fatalf("drained job = %q, want cancelled", got)
	}
	slo := sloSection(t, env) // healthz stays up through the drain
	if slo["inflight_fg"].(float64) != 0 || slo["inflight_bg"].(float64) != 0 {
		t.Fatalf("in-flight work survived the drain: %v", slo)
	}
	if slo["draining"].(bool) != true {
		t.Fatal("slo does not report draining")
	}
	env.srv.Close() // flush snapshots, close the WAL

	// Recovery: a fresh server on the same directory must come back at
	// the acked epoch and serve queries immediately.
	srv2 := New(Config{DataDir: dir, IndexCacheCapacity: 4})
	if _, err := srv2.LoadData(); err != nil {
		t.Fatalf("recovery after drain: %v", err)
	}
	defer srv2.Close()
	env2 := serve(srv2)

	var info graphInfo
	env2.do(t, http.StatusOK, "GET", "/v1/graphs/g", nil, &info)
	if info.Epoch != ackedEpoch {
		t.Fatalf("recovered epoch = %d, want the acked %d", info.Epoch, ackedEpoch)
	}
	var out correlateResponse
	env2.do(t, http.StatusOK, "POST", "/v1/graphs/g/correlate",
		map[string]any{"a": "left", "b": "right", "h": 1, "sample_size": 100, "seed": 5}, &out)
	if out.Epoch != ackedEpoch {
		t.Fatalf("post-recovery correlate ran at epoch %d, want %d", out.Epoch, ackedEpoch)
	}
}
