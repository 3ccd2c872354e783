package server

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tesc/api"
	"tesc/internal/graphgen"
	"tesc/internal/monitor"
	"tesc/internal/screen"
)

// The fuzz targets below each run one cycle of a fault scenario from a
// seed: the seed fixes every request body, batch size and mutation, so
// a failing seed replays the same schedule. Goroutine interleavings are
// the scheduler's; running the targets under -race is what shakes them.

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
// must succeed and some re-screen must run. Then a forced refresh of
// the manual monitor must equal a from-scratch screen.Run at its epoch,
// bit for bit.
func FuzzMonitorChurn(f *testing.F) {
	f.Add(uint64(7))
	f.Fuzz(func(t *testing.T, seed uint64) {
		env := newTestEnv(t)
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

		env.do(t, http.StatusOK, "POST", refresh+"?force=1", map[string]any{}, nil)
		if env.srv.monitors.Reruns() == 0 {
			t.Fatal("no monitor re-screen ran")
		}
		snap := env.srv.registry.mustGet(t, "g").Snapshot()
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
	})
}

// durableConfig is the write path the recovery cycles exercise: every
// ack fsynced, and a checkpoint debounce longer than any cycle so a
// crash recovers through the WAL tail, not a fresh snapshot.
func durableConfig(dir string) Config {
	return Config{IndexCacheCapacity: 4, DataDir: dir, CheckpointDelay: time.Hour, FsyncPolicy: "always"}
}

// reboot stops env's listener, stops its server by kill (a crash:
// nothing flushed beyond the fsynced WAL) or by Close (snapshots
// flushed, WAL compacted), and boots cfg over the same data directory.
func reboot(t *testing.T, env *testEnv, cfg Config, kill bool) *testEnv {
	t.Helper()
	env.ts.Close()
	if kill {
		env.srv.Kill()
	} else {
		env.srv.Close()
	}
	srv := New(cfg)
	if _, err := srv.LoadData(); err != nil {
		t.Fatalf("reboot: %v", err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testEnv{srv: srv, ts: ts}
}

// FuzzRecoverCycle streams FlipStream batches into a durable server on
// the real filesystem, kills it and reboots from its data directory,
// then streams more, stops it cleanly and reboots again. Each reboot
// must land on the last acked epoch; the crash recovery must replay
// WAL records, the clean one none.
func FuzzRecoverCycle(f *testing.F) {
	f.Add(uint64(11))
	f.Fuzz(func(t *testing.T, seed uint64) {
		cfg := durableConfig(t.TempDir())
		env := newOverloadEnv(t, cfg)
		rng := rand.New(rand.NewPCG(seed, seed^99))
		wantEpoch := env.srv.registry.mustGet(t, "g").Epoch()
		for _, kill := range []bool{true, false} {
			// The stream mirrors the recovered edge set, so every flip is
			// genuine and every acked batch bumps the epoch by one.
			g := env.srv.registry.mustGet(t, "g").Graph().Internal()
			stream := graphgen.NewFlipStream(g, 0.5, rand.New(rand.NewPCG(seed, wantEpoch)))
			for i := 10 + rng.IntN(20); i > 0; i-- {
				env.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges", flipBody(stream, 1+rng.IntN(8)), nil)
				wantEpoch++
			}
			env = reboot(t, env, cfg, kill)
			if got := env.srv.registry.mustGet(t, "g").Epoch(); got != wantEpoch {
				t.Fatalf("kill=%v: recovered epoch %d, want the acked %d", kill, got, wantEpoch)
			}
			replayed := health(t, env)["wal_replayed"].(float64)
			if kill && replayed == 0 {
				t.Fatal("crash recovery replayed no WAL records")
			}
			if !kill && replayed != 0 {
				t.Fatalf("clean restart replayed %v WAL records, want 0", replayed)
			}
		}
	})
}

// FuzzOverloadCycle runs one overload cycle against a durable server
// with tight admission bounds: a flood of correlates and screens from
// a default and a hog tenant, acked mutations under their own tenant,
// a graceful drain and a reboot. Every flood reply must be an accept
// or a typed shed, and the flood must shed; the drain probe must get
// the typed draining 503 and the drain must retire every job; the
// reboot must land on the acked epoch.
func FuzzOverloadCycle(f *testing.F) {
	f.Add(uint64(17))
	f.Fuzz(func(t *testing.T, seed uint64) {
		cfg := durableConfig(t.TempDir())
		cfg.Admission = AdmissionConfig{MaxInflightFG: 4, MaxInflightBG: 1, TenantQPS: 50, TenantBurst: 10}
		env := newOverloadEnv(t, cfg)
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
		shed := 0
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
						mu.Lock()
						shed++
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
		env = reboot(t, env, cfg, false)
		if got := env.srv.registry.mustGet(t, "g").Epoch(); got != wantEpoch {
			t.Fatalf("recovered epoch %d, want the acked %d", got, wantEpoch)
		}
	})
}
