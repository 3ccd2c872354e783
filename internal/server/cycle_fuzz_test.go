package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sync"
	"testing"
	"time"

	"tesc/api"
	"tesc/internal/graphgen"
	"tesc/internal/monitor"
	"tesc/internal/screen"
	"tesc/internal/wal"
)

// The fuzz targets below each run one cycle of a fault scenario from a
// seed: the seed fixes every request body, batch size and mutation, so
// a failing seed replays the same schedule. Every hop is in process and
// every data directory is a wal.FaultFS, so a kill is Kill plus
// fsys.Crash(), which keeps only the synced bytes. Built with
// GOEXPERIMENT=synctest, each cycle runs in a bubble and time becomes
// deterministic too: the checkpoint and monitor debounces fire when the
// cycle advances fake time, and quota refill is exact. Goroutine
// interleavings stay the scheduler's; running the targets under -race
// is what shakes them.

// flipBody draws k changes from the stream as an edge-mutation body.
func flipBody(stream *graphgen.FlipStream, k int) map[string]any {
	var ins, del [][2]int
	for _, c := range stream.Take(k) {
		p := [2]int{int(c.U), int(c.V)}
		if c.Insert {
			ins = append(ins, p)
		} else {
			del = append(del, p)
		}
	}
	return map[string]any{"insert": ins, "delete": del}
}

// FuzzMonitorChurn runs an edge mutator, an event mutator, a manual
// monitor refresher and two readers concurrently against a server whose
// two auto monitors re-screen on their debounce timers. Every request
// must succeed. In a bubble, one more second must leave each auto
// monitor re-screened: nothing pending and its last sample at the
// graph's epoch. Then a forced refresh of the manual monitor must equal
// a from-scratch screen.Run at its epoch, bit for bit.
func FuzzMonitorChurn(f *testing.F) {
	f.Add(uint64(7))
	f.Fuzz(func(t *testing.T, seed uint64) { bubble(func() { monitorChurn(t, seed) }) })
}

func monitorChurn(t *testing.T, seed uint64) {
	env := newTestEnv(t)
	defer env.srv.Close()
	rng := rand.New(rand.NewPCG(seed, seed^77))
	for _, body := range []map[string]any{
		{"a": "left", "b": "right", "h": 2, "sample_size": 100, "seed": rng.Uint64(), "debounce_ms": 25},
		{"a": "left", "b": "right", "h": 1, "sample_size": 100, "seed": rng.Uint64(), "debounce_ms": 10},
	} {
		env.do(t, http.StatusCreated, "POST", "/v1/graphs/g/monitors", body, nil)
	}
	var manual monitorJSON
	env.do(t, http.StatusCreated, "POST", "/v1/graphs/g/monitors",
		map[string]any{"a": "left", "b": "right", "h": 1, "sample_size": 80, "seed": rng.Uint64(), "policy": "manual"}, &manual)

	// Every body is drawn before the goroutines start, so the seed
	// fixes them whatever the interleaving. The stream mirrors the
	// server's edge set: only the edge mutator changes edges.
	const rounds = 20
	stream := graphgen.NewFlipStream(env.graph.Internal(), 0.5, rand.New(rand.NewPCG(seed^1, 3)))
	edgeBodies := make([]map[string]any, rounds)
	eventBodies := make([]map[string]any, rounds)
	for i := range edgeBodies {
		edgeBodies[i] = flipBody(stream, 1+rng.IntN(8))
		name := []string{"left", "right"}[rng.IntN(2)]
		eventBodies[i] = map[string]any{"events": map[string][]int{name: {rng.IntN(env.graph.NumNodes())}}}
	}
	refresh := "/v1/graphs/g/monitors/" + manual.ID + "/refresh"
	var wg sync.WaitGroup
	loop := func(name string, step func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := step(i); err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
			}
		}()
	}
	loop("edge mutator", func(i int) error {
		return env.doErr(http.StatusOK, "POST", "/v1/graphs/g/edges", edgeBodies[i], nil)
	})
	loop("event mutator", func(i int) error {
		return env.doErr(http.StatusOK, "POST", "/v1/graphs/g/events", eventBodies[i], nil)
	})
	loop("refresher", func(int) error {
		return env.doErr(http.StatusOK, "POST", refresh, map[string]any{}, nil)
	})
	for r := 0; r < 2; r++ {
		loop(fmt.Sprintf("reader %d", r), func(int) error {
			if err := env.doErr(http.StatusOK, "GET", "/v1/graphs/g/monitors", nil, nil); err != nil {
				return err
			}
			return env.doErr(http.StatusOK, "GET", "/healthz", nil, nil)
		})
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Past both debounces every auto monitor has re-screened the last
	// mutation. Only a fake clock makes that a fact: on the real clock
	// the churn can end before the first debounce does.
	advance(time.Second)
	snap := env.srv.registry.mustGet(t, "g").Snapshot()
	for _, m := range env.srv.monitors.List("g") {
		last, _ := m.Last()
		if inBubble && m.Def().Mode == monitor.Auto && (m.Pending() != 0 || last.Epoch != snap.Epoch) {
			t.Fatalf("auto monitor %s: %d batches pending, last sample at epoch %d, want 0 and %d",
				m.Def().ID, m.Pending(), last.Epoch, snap.Epoch)
		}
	}

	env.do(t, http.StatusOK, "POST", refresh+"?force=1", map[string]any{}, nil)
	var st monitor.State
	for _, s := range env.srv.monitors.States("g") {
		if s.Def.ID == manual.ID {
			st = s
		}
	}
	if len(st.History) == 0 {
		t.Fatalf("manual monitor %s has no history", manual.ID)
	}
	last, def := st.History[len(st.History)-1], st.Def
	res, err := screen.Run(snap.Graph.Internal(), snap.Store, [][2]string{{def.A, def.B}}, screen.Config{
		H: def.H, SampleSize: def.SampleSize, Alpha: def.Alpha, Alternative: def.Alternative, Seed: def.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Pairs[0]
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if last.Epoch != snap.Epoch || !same(last.Tau, want.Tau) || !same(last.Z, want.Z) || !same(last.P, want.P) ||
		last.Significant != want.Significant || last.Skipped != want.Skipped {
		t.Fatalf("forced refresh at epoch %d: tau=%v z=%v p=%v sig=%v skip=%q; from-scratch at epoch %d: tau=%v z=%v p=%v sig=%v skip=%q",
			last.Epoch, last.Tau, last.Z, last.P, last.Significant, last.Skipped,
			snap.Epoch, want.Tau, want.Z, want.P, want.Significant, want.Skipped)
	}
}

// durableConfig is the write path the recovery cycles exercise: every
// ack fsynced to fsys, and a checkpoint debounce that fires only when a
// bubble advances fake time past it (the cycles take far less real
// time), so a crash recovers through the WAL tail.
func durableConfig(fsys *wal.FaultFS) Config {
	return Config{IndexCacheCapacity: 4, DataDir: "data", FS: fsys, CheckpointDelay: 2 * time.Second, FsyncPolicy: "always"}
}

// reboot stops env's server by kill plus a crash of fsys (nothing
// survives beyond the synced bytes) or by Close (snapshots flushed, WAL
// compacted), and boots cfg over the same data directory.
func reboot(t *testing.T, env *testEnv, cfg Config, fsys *wal.FaultFS, kill bool) *testEnv {
	t.Helper()
	if kill {
		env.srv.Kill()
		fsys.Crash()
	} else {
		env.srv.Close()
	}
	srv := New(cfg)
	if _, err := srv.LoadData(); err != nil {
		t.Fatalf("reboot: %v", err)
	}
	return serve(srv)
}

// FuzzRecoverCycle streams FlipStream batches into a durable server,
// lets the checkpoint debounce pass, streams more, then kills it with a
// crash of its filesystem and reboots; then it does the same but stops
// the server cleanly. Each reboot must land on the last acked epoch, so
// an ack whose record was not synced fails it. The crash recovery must
// replay WAL records, in a bubble exactly the batches after the
// checkpoint; the clean one must replay none.
func FuzzRecoverCycle(f *testing.F) {
	f.Add(uint64(11))
	f.Fuzz(func(t *testing.T, seed uint64) { bubble(func() { recoverCycle(t, seed) }) })
}

func recoverCycle(t *testing.T, seed uint64) {
	fsys := wal.NewFaultFS()
	cfg := durableConfig(fsys)
	env := newOverloadEnv(t, cfg)
	defer func() { env.srv.Close() }()
	rng := rand.New(rand.NewPCG(seed, seed^99))
	wantEpoch := env.srv.registry.mustGet(t, "g").Epoch()
	for _, kill := range []bool{true, false} {
		// The stream mirrors the recovered edge set, so every flip is
		// genuine and every acked batch bumps the epoch by one.
		g := env.srv.registry.mustGet(t, "g").Graph().Internal()
		stream := graphgen.NewFlipStream(g, 0.5, rand.New(rand.NewPCG(seed, wantEpoch)))
		post := func(n int) {
			for ; n > 0; n-- {
				env.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges", flipBody(stream, 1+rng.IntN(8)), nil)
				wantEpoch++
			}
		}
		post(5 + rng.IntN(10))
		saved := health(t, env)["snapshot_saved"].(float64)
		advance(cfg.CheckpointDelay + time.Second)
		if inBubble && health(t, env)["snapshot_saved"].(float64) == saved {
			t.Fatal("no checkpoint written once the debounce passed")
		}
		tail := 5 + rng.IntN(10)
		post(tail)
		env = reboot(t, env, cfg, fsys, kill)
		if got := env.srv.registry.mustGet(t, "g").Epoch(); got != wantEpoch {
			t.Fatalf("kill=%v: recovered epoch %d, want the acked %d", kill, got, wantEpoch)
		}
		replayed := health(t, env)["wal_replayed"].(float64)
		switch {
		case kill && inBubble && replayed != float64(tail):
			t.Fatalf("crash recovery replayed %v WAL records, want the %d batches after the checkpoint", replayed, tail)
		case kill && replayed == 0:
			t.Fatal("crash recovery replayed no WAL records")
		case !kill && replayed != 0:
			t.Fatalf("clean restart replayed %v WAL records, want 0", replayed)
		}
	}
}

// FuzzOverloadCycle runs one overload cycle against a durable server
// with tight admission bounds: a flood of correlates and screens from
// a default and a hog tenant, acked mutations under their own tenant,
// a graceful drain and a reboot. Every flood reply must be an accept
// or a typed shed, and the flood must shed; the drain probe must get
// the typed draining 503 and the drain must retire every job; the
// reboot must land on the acked epoch. In a bubble no time passes
// during the flood, so the hog gets exactly its burst past the quota
// and every quota shed asks for exactly one token's refill time.
func FuzzOverloadCycle(f *testing.F) {
	f.Add(uint64(17))
	f.Fuzz(func(t *testing.T, seed uint64) { bubble(func() { overloadCycle(t, seed) }) })
}

func overloadCycle(t *testing.T, seed uint64) {
	fsys := wal.NewFaultFS()
	cfg := durableConfig(fsys)
	cfg.Admission = AdmissionConfig{MaxInflightFG: 4, MaxInflightBG: 1, TenantQPS: 50, TenantBurst: 10}
	env := newOverloadEnv(t, cfg)
	defer func() { env.srv.Close() }()
	rng := rand.New(rand.NewPCG(seed, seed^44))

	// 1. Flood: 12 clients, every third under the hog tenant, every
	// fourth submitting screens.
	const clients, requests = 12, 6
	type call struct {
		path, tenant string
		body         map[string]any
	}
	calls := make([][]call, clients)
	for c := range calls {
		tenant := ""
		if c%3 == 0 {
			tenant = "hog"
		}
		for i := 0; i < requests; i++ {
			if c%4 == 3 {
				calls[c] = append(calls[c], call{"/v1/graphs/g/screen", tenant,
					map[string]any{"h": 1, "sample_size": 150, "min_occurrences": 1, "seed": rng.Uint64()}})
			} else {
				calls[c] = append(calls[c], call{"/v1/graphs/g/correlate", tenant,
					map[string]any{"a": "left", "b": "right", "h": 1, "sample_size": 200, "seed": rng.Uint64()}})
			}
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	shed, hogQuota := 0, 0
	for _, cs := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range cs {
				code, hdr, body, err := rawPost(env, c.path, c.body, c.tenant)
				switch {
				case err != nil:
					t.Errorf("%s: %v", c.path, err)
				case code == http.StatusOK || code == http.StatusAccepted:
				default:
					if err := checkTyped(code, hdr, body, api.CodeTenantQuota, api.CodeOverloadedFG, api.CodeOverloadedBG, api.CodeTimeout); err != nil {
						t.Errorf("%s: %v", c.path, err)
					}
					var e api.Error
					_ = json.Unmarshal(body, &e) // checkTyped reported a body that does not decode
					if inBubble && e.Code == api.CodeTenantQuota && e.RetryAfterMS != 20 {
						t.Errorf("%s: quota shed asks to retry after %d ms, want the 20 ms one token takes at 50 qps", c.path, e.RetryAfterMS)
					}
					mu.Lock()
					shed++
					if e.Code == api.CodeTenantQuota && c.tenant == "hog" {
						hogQuota++
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if shed == 0 {
		t.Fatal("the flood never shed: the admission bounds were not exercised")
	}
	if hogRequests := (clients + 2) / 3 * requests; inBubble && hogQuota != hogRequests-10 {
		t.Fatalf("hog got %d quota sheds of %d requests, want all but its burst of 10", hogQuota, hogRequests)
	}

	// 2. Acked mutations, under their own tenant: the flood drained
	// the default bucket, and only acked batches count toward the
	// epoch recovery must reach.
	wantEpoch := env.srv.registry.mustGet(t, "g").Epoch()
	stream := graphgen.NewFlipStream(env.graph.Internal(), 0.5, rand.New(rand.NewPCG(seed, 3)))
	for i := 3 + rng.IntN(5); i > 0; i-- {
		code, _, body, err := rawPost(env, "/v1/graphs/g/edges", flipBody(stream, 1+rng.IntN(6)), "mutator")
		if err != nil || code != http.StatusOK {
			t.Fatalf("edge batch: %d %s %v", code, body, err)
		}
		wantEpoch++
	}

	// 3. Graceful drain: new work gets the typed draining 503, and
	// every job retires.
	env.srv.BeginDrain()
	code, hdr, body, err := rawPost(env, "/v1/graphs/g/correlate",
		map[string]any{"a": "left", "b": "right", "h": 1, "sample_size": 100, "seed": rng.Uint64()}, "")
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("correlate during drain = %d, want 503 (body %s)", code, body)
	}
	if err := checkTyped(code, hdr, body, api.CodeDraining); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if !env.srv.Drain(ctx) {
		t.Fatal("drain did not retire every job in 30s")
	}

	// 4. Reboot: recovery lands on the acked epoch.
	env = reboot(t, env, cfg, fsys, false)
	if got := env.srv.registry.mustGet(t, "g").Epoch(); got != wantEpoch {
		t.Fatalf("recovered epoch %d, want the acked %d", got, wantEpoch)
	}
}
