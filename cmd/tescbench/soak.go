package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"tesc"
	"tesc/internal/graphgen"
	"tesc/internal/server"
)

// runSoak drives a live in-process tescd with FlipStream mutations
// against standing monitors for the given duration: one edge mutator,
// one event mutator, concurrent monitor readers and a manual-monitor
// refresher, with auto monitors re-screening on their debounce timers
// throughout. Built for the nightly -race job: its value is the
// interleavings, not the numbers.
func runSoak(d time.Duration, seed uint64, w io.Writer) error {
	srv := server.New(server.Config{IndexCacheCapacity: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	base := ts.URL
	client := ts.Client()

	g := tesc.RandomCoauthorshipGraph(0.2, seed) // ~20k nodes
	rng := rand.New(rand.NewPCG(seed, seed^77))
	var va, vb []int
	for i := 0; i < 200; i++ {
		va = append(va, rng.IntN(4000))
		vb = append(vb, rng.IntN(4000))
	}
	var sb strings.Builder
	if err := g.WriteGraph(&sb); err != nil {
		return err
	}
	if err := postJSON(client, base+"/v1/graphs", map[string]any{"name": "soak", "edge_list": sb.String()}, nil); err != nil {
		return fmt.Errorf("registering graph: %w", err)
	}
	if err := postJSON(client, base+"/v1/graphs/soak/events",
		map[string]any{"events": map[string][]int{"soak-a": va, "soak-b": vb}}, nil); err != nil {
		return fmt.Errorf("registering events: %w", err)
	}
	var manual struct {
		ID string `json:"id"`
	}
	for i, body := range []map[string]any{
		{"a": "soak-a", "b": "soak-b", "h": 2, "sample_size": 300, "seed": 1, "debounce_ms": 25},
		{"a": "soak-a", "b": "soak-b", "h": 1, "sample_size": 300, "seed": 2, "debounce_ms": 10},
		{"a": "soak-a", "b": "soak-b", "h": 1, "sample_size": 200, "seed": 3, "policy": "manual"},
	} {
		var out struct {
			ID string `json:"id"`
		}
		if err := postJSON(client, base+"/v1/graphs/soak/monitors", body, &out); err != nil {
			return fmt.Errorf("registering monitor %d: %w", i, err)
		}
		if body["policy"] == "manual" {
			manual = out
		}
	}

	deadline := time.Now().Add(d)
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	spawn := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil {
				select {
				case errc <- err:
				default:
				}
			}
		}()
	}

	// Edge mutator: FlipStream batches. The stream mirrors the server's
	// edge set because this is the only goroutine mutating edges.
	spawn(func() error {
		stream := graphgen.NewFlipStream(g.Internal(), 0.5, rand.New(rand.NewPCG(seed^1, 3)))
		for time.Now().Before(deadline) {
			flips := stream.Take(1 + rng.IntN(8))
			var ins, del [][2]int
			for _, c := range flips {
				p := [2]int{int(c.U), int(c.V)}
				if c.Insert {
					ins = append(ins, p)
				} else {
					del = append(del, p)
				}
			}
			if err := postJSON(client, base+"/v1/graphs/soak/edges",
				map[string]any{"insert": ins, "delete": del}, nil); err != nil {
				return fmt.Errorf("edge mutator: %w", err)
			}
		}
		return nil
	})
	// Event mutator: occurrences of the monitored pair flicker.
	spawn(func() error {
		erng := rand.New(rand.NewPCG(seed^2, 9))
		for time.Now().Before(deadline) {
			node := erng.IntN(4000)
			name := []string{"soak-a", "soak-b"}[erng.IntN(2)]
			if err := postJSON(client, base+"/v1/graphs/soak/events",
				map[string]any{"events": map[string][]int{name: {node}}}, nil); err != nil {
				return fmt.Errorf("event mutator: %w", err)
			}
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	})
	// Manual-monitor refresher.
	spawn(func() error {
		for time.Now().Before(deadline) {
			if err := postJSON(client, base+"/v1/graphs/soak/monitors/"+manual.ID+"/refresh", map[string]any{}, nil); err != nil {
				return fmt.Errorf("refresher: %w", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		return nil
	})
	// Readers: monitor listings and healthz.
	for r := 0; r < 2; r++ {
		spawn(func() error {
			for time.Now().Before(deadline) {
				resp, err := client.Get(base + "/v1/graphs/soak/monitors")
				if err != nil {
					return fmt.Errorf("reader: %w", err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				resp, err = client.Get(base + "/healthz")
				if err != nil {
					return fmt.Errorf("reader: %w", err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				time.Sleep(time.Millisecond)
			}
			return nil
		})
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
	}
	// One final synchronous drain so lingering debounce timers are
	// exercised before the listener dies.
	if err := postJSON(client, base+"/v1/graphs/soak/monitors/"+manual.ID+"/refresh?force=1", map[string]any{}, nil); err != nil {
		return err
	}

	mons := srv.Monitors()
	if mons.Reruns() == 0 {
		return fmt.Errorf("soak: no monitor re-screens happened in %v", d)
	}
	fmt.Fprintf(w, "== soak (%v) ==\n", d)
	fmt.Fprintf(w, "monitors: %d active, %d re-screens, %d density evals reused, %d recomputed\n",
		mons.Active(), mons.Reruns(), mons.NodesReused(), mons.NodesRecomputed())
	return nil
}

// runSoakRecover exercises the durability contract end to end on the
// real filesystem: a tescd with a data directory ingests FlipStream
// edge batches over HTTP, is torn down — srv.Kill() on odd cycles (a
// crash: nothing flushed beyond what the WAL fsynced), srv.Close() on
// even ones (clean shutdown: snapshots flushed, WAL compacted) — and
// rebooted from snapshot + WAL tail. Every cycle asserts the recovered
// epoch equals the last acknowledged one: zero lost acks, by
// construction of the fsync=always append-before-publish path. Built
// for the nightly job; see docs/DURABILITY.md.
func runSoakRecover(d time.Duration, seed uint64, w io.Writer) error {
	dir, err := os.MkdirTemp("", "tescbench-soak-recover-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	boot := func() (*server.Server, *httptest.Server, error) {
		srv := server.New(server.Config{
			IndexCacheCapacity: 4,
			DataDir:            dir,
			// A debounce longer than any cycle forces crash recovery to
			// run through the WAL tail, not a conveniently fresh snapshot.
			CheckpointDelay: time.Hour,
			FsyncPolicy:     "always",
		})
		if _, err := srv.LoadData(); err != nil {
			return nil, nil, err
		}
		return srv, httptest.NewServer(srv.Handler()), nil
	}

	srv, ts, err := boot()
	if err != nil {
		return err
	}
	g := tesc.RandomCommunityGraph(4, 500, 6, 0.5, seed)
	var sb strings.Builder
	if err := g.WriteGraph(&sb); err != nil {
		return err
	}
	if err := postJSON(ts.Client(), ts.URL+"/v1/graphs", map[string]any{"name": "soak", "edge_list": sb.String()}, nil); err != nil {
		return fmt.Errorf("registering graph: %w", err)
	}
	reg, ok := srv.Registry().Get("soak")
	if !ok {
		return fmt.Errorf("graph vanished after registration")
	}
	wantEpoch := reg.Epoch()

	rng := rand.New(rand.NewPCG(seed, seed^99))
	deadline := time.Now().Add(d)
	var cycles, crashes, batches int
	var replayed uint64
	for {
		// Stream a cycle of mutation batches. The FlipStream mirrors the
		// recovered edge set, so flips stay genuine and every acked batch
		// bumps the epoch by exactly one.
		entry, ok := srv.Registry().Get("soak")
		if !ok {
			return fmt.Errorf("cycle %d: graph missing after recovery", cycles)
		}
		stream := graphgen.NewFlipStream(entry.Graph().Internal(), 0.5, rand.New(rand.NewPCG(seed^uint64(cycles), 3)))
		for i := 0; i < 10+rng.IntN(20); i++ {
			var ins, del [][2]int
			for _, c := range stream.Take(1 + rng.IntN(8)) {
				p := [2]int{int(c.U), int(c.V)}
				if c.Insert {
					ins = append(ins, p)
				} else {
					del = append(del, p)
				}
			}
			if err := postJSON(ts.Client(), ts.URL+"/v1/graphs/soak/edges",
				map[string]any{"insert": ins, "delete": del}, nil); err != nil {
				return fmt.Errorf("cycle %d: edge batch: %w", cycles, err)
			}
			wantEpoch++
			batches++
		}
		cycles++

		crash := cycles%2 == 1
		ts.Close()
		if crash {
			crashes++
			srv.Kill()
		} else {
			srv.Close()
		}

		if srv, ts, err = boot(); err != nil {
			return fmt.Errorf("cycle %d: reboot: %w", cycles, err)
		}
		entry, ok = srv.Registry().Get("soak")
		if !ok {
			return fmt.Errorf("cycle %d: graph lost across restart", cycles)
		}
		if got := entry.Epoch(); got != wantEpoch {
			return fmt.Errorf("cycle %d: recovered epoch %d, want %d — lost acknowledged mutations", cycles, got, wantEpoch)
		}
		var health struct {
			WALReplayed uint64 `json:"wal_replayed"`
		}
		if err := getJSON(ts.Client(), ts.URL+"/healthz", &health); err != nil {
			return fmt.Errorf("cycle %d: healthz: %w", cycles, err)
		}
		if crash && health.WALReplayed == 0 {
			return fmt.Errorf("cycle %d: crash recovery replayed no WAL records", cycles)
		}
		if !crash && health.WALReplayed != 0 {
			return fmt.Errorf("cycle %d: clean restart replayed %d WAL records, want 0", cycles, health.WALReplayed)
		}
		replayed += health.WALReplayed

		if !time.Now().Before(deadline) {
			srv.Close()
			ts.Close()
			break
		}
	}
	fmt.Fprintf(w, "== soak-recover (%v) ==\n", d)
	fmt.Fprintf(w, "cycles: %d (%d crash, %d clean); batches acked: %d; WAL records replayed: %d; final epoch: %d\n",
		cycles, crashes, cycles-crashes, batches, replayed, wantEpoch)
	fmt.Fprintf(w, "epoch continuity held on every restart: zero lost acknowledged mutations\n")
	return nil
}
