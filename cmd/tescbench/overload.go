package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tesc"
	"tesc/api"
	"tesc/internal/graphgen"
	"tesc/internal/server"
)

// Every 429/503/504 carries the unified api.Error envelope (see
// docs/OVERLOAD.md); shed accounting keys on its machine code.

// overloadResult is one classified response: terminal status and the
// shed reason when typed.
type overloadResult struct {
	status  int
	reason  string
	retryOK bool
	body    string // raw reply, kept for violation diagnostics
}

// overloadPost fires one request with an optional tenant header and
// classifies the reply. Shed replies must carry the unified body and a
// Retry-After header or the caller treats them as protocol violations.
func overloadPost(client *http.Client, url, tenant string, body any) (overloadResult, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return overloadResult{}, err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		return overloadResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tesc-Tenant", tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		return overloadResult{}, err
	}
	defer resp.Body.Close()
	out := overloadResult{status: resp.StatusCode}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if len(raw) > 200 {
		out.body = string(raw[:200])
	} else {
		out.body = string(raw)
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable ||
		resp.StatusCode == http.StatusGatewayTimeout {
		var tr api.Error
		if json.Unmarshal(raw, &tr) == nil && tr.Code != "" && tr.RetryAfterMS > 0 {
			out.reason = string(tr.Code)
		}
		out.retryOK = resp.Header.Get("Retry-After") != ""
	}
	return out, nil
}

// runSoakOverload is the -soak-overload mode, built for the nightly
// -race job: cycles of flood burst + acked mutations + graceful drain +
// reboot, each cycle asserting that every response is typed, the drain
// retires all jobs, and recovery lands on exactly the acknowledged
// epoch. It composes the overload ladder with the durability contract:
// shedding under pressure must never cost an acknowledged write.
func runSoakOverload(d time.Duration, seed uint64, w io.Writer) error {
	dir, err := os.MkdirTemp("", "tescbench-soak-overload-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	boot := func() (*server.Server, *httptest.Server, error) {
		srv := server.New(server.Config{
			IndexCacheCapacity: 4,
			DataDir:            dir,
			// Stay on the WAL tail: recovery after every cycle must
			// replay, not ride a conveniently fresh snapshot.
			CheckpointDelay: time.Hour,
			FsyncPolicy:     "always",
			Admission: server.AdmissionConfig{
				MaxInflightFG: 4,
				MaxInflightBG: 1,
				TenantQPS:     50,
				TenantBurst:   10,
			},
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
	g := tesc.RandomCommunityGraph(4, 400, 6, 0.5, seed)
	var sb strings.Builder
	if err := g.WriteGraph(&sb); err != nil {
		return err
	}
	if err := postJSON(ts.Client(), ts.URL+"/v1/graphs", map[string]any{"name": "ovl", "edge_list": sb.String()}, nil); err != nil {
		return fmt.Errorf("registering graph: %w", err)
	}
	occ := func(lo int) []int {
		ids := make([]int, 30)
		for i := range ids {
			ids[i] = lo + i
		}
		return ids
	}
	if err := postJSON(ts.Client(), ts.URL+"/v1/graphs/ovl/events",
		map[string]any{"events": map[string][]int{"ovl-a": occ(0), "ovl-b": occ(500)}}, nil); err != nil {
		return fmt.Errorf("registering events: %w", err)
	}
	reg, ok := srv.Registry().Get("ovl")
	if !ok {
		return fmt.Errorf("graph vanished after registration")
	}
	wantEpoch := reg.Epoch()

	rng := rand.New(rand.NewPCG(seed, seed^44))
	deadline := time.Now().Add(d)
	var cycles, floods, sheds, accepted, batches int64
	for {
		cycles++
		client := ts.Client()

		// 1. flood burst: mixed correlates (default + hog tenant) and
		// screens against the tight admission bounds. Every reply must be
		// an accept or a typed shed.
		var wg sync.WaitGroup
		var violations atomic.Int64
		var firstViolation atomic.Value
		violate := func(msg string) {
			violations.Add(1)
			firstViolation.CompareAndSwap(nil, msg)
		}
		var cShed, cOK atomic.Int64
		for c := 0; c < 12; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				tenant := ""
				if c%3 == 0 {
					tenant = "hog"
				}
				for i := 0; i < 6; i++ {
					var r overloadResult
					var err error
					if c%4 == 3 {
						r, err = overloadPost(client, ts.URL+"/v1/graphs/ovl/screen", tenant,
							map[string]any{"h": 1, "sample_size": 150, "min_occurrences": 1, "seed": uint64(c*100 + i)})
					} else {
						r, err = overloadPost(client, ts.URL+"/v1/graphs/ovl/correlate", tenant,
							map[string]any{"a": "ovl-a", "b": "ovl-b", "h": 1, "sample_size": 200,
								"seed": uint64(cycles)<<20 | uint64(c)<<10 | uint64(i)})
					}
					if err != nil {
						violate(fmt.Sprintf("client %d: %v", c, err))
						return
					}
					switch {
					case r.status == http.StatusOK || r.status == http.StatusAccepted:
						cOK.Add(1)
					case r.reason != "" && r.retryOK:
						cShed.Add(1)
					default:
						violate(fmt.Sprintf("client %d: status %d reason %q retry-after %v body %q", c, r.status, r.reason, r.retryOK, r.body))
					}
				}
			}(c)
		}
		wg.Wait()
		if n := violations.Load(); n > 0 {
			return fmt.Errorf("cycle %d: %d untyped or failed responses under flood (first: %s)", cycles, n, firstViolation.Load())
		}
		floods += 12 * 6
		sheds += cShed.Load()
		accepted += cOK.Load()

		// 2. acked mutations: each acknowledged batch bumps the epoch by
		// exactly one; these are the writes drain+recovery must keep.
		entry, ok := srv.Registry().Get("ovl")
		if !ok {
			return fmt.Errorf("cycle %d: graph missing", cycles)
		}
		stream := graphgen.NewFlipStream(entry.Graph().Internal(), 0.5, rand.New(rand.NewPCG(seed^uint64(cycles), 3)))
		for i := 0; i < 3+rng.IntN(5); i++ {
			var ins, del [][2]int
			for _, c := range stream.Take(1 + rng.IntN(6)) {
				p := [2]int{int(c.U), int(c.V)}
				if c.Insert {
					ins = append(ins, p)
				} else {
					del = append(del, p)
				}
			}
			// The mutator runs under its own tenant: the flood just drained
			// the default bucket, and only acknowledged batches may count
			// toward the epoch the recovery check demands.
			r, err := overloadPost(client, ts.URL+"/v1/graphs/ovl/edges", "mutator",
				map[string]any{"insert": ins, "delete": del})
			if err != nil {
				return fmt.Errorf("cycle %d: edge batch: %w", cycles, err)
			}
			if r.status != http.StatusOK {
				return fmt.Errorf("cycle %d: edge batch got %d (reason %q)", cycles, r.status, r.reason)
			}
			wantEpoch++
			batches++
		}

		// 3. graceful drain: new work is refused with the typed
		// "draining" 503, jobs retire, and the WAL closes with every ack
		// on disk.
		srv.BeginDrain()
		r, err := overloadPost(client, ts.URL+"/v1/graphs/ovl/correlate", "",
			map[string]any{"a": "ovl-a", "b": "ovl-b", "h": 1, "sample_size": 100, "seed": uint64(cycles)})
		if err != nil {
			return fmt.Errorf("cycle %d: probe during drain: %w", cycles, err)
		}
		if r.status != http.StatusServiceUnavailable || r.reason != "draining" || !r.retryOK {
			return fmt.Errorf("cycle %d: drain probe got %d reason %q, want typed 503 draining", cycles, r.status, r.reason)
		}
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		drained := srv.Drain(drainCtx)
		cancel()
		if !drained {
			return fmt.Errorf("cycle %d: drain did not retire all jobs in 30s", cycles)
		}
		ts.Close()
		srv.Close()

		// 4. reboot and verify the acked epoch survived.
		if srv, ts, err = boot(); err != nil {
			return fmt.Errorf("cycle %d: reboot: %w", cycles, err)
		}
		entry, ok = srv.Registry().Get("ovl")
		if !ok {
			return fmt.Errorf("cycle %d: graph lost across restart", cycles)
		}
		if got := entry.Epoch(); got != wantEpoch {
			return fmt.Errorf("cycle %d: recovered epoch %d, want %d — drain lost acknowledged mutations", cycles, got, wantEpoch)
		}

		if !time.Now().Before(deadline) {
			srv.Close()
			ts.Close()
			break
		}
	}
	if sheds == 0 {
		return fmt.Errorf("soak-overload: the flood never shed — bounds not exercised")
	}
	fmt.Fprintf(w, "== soak-overload (%v) ==\n", d)
	fmt.Fprintf(w, "cycles: %d; flood requests: %d (%d accepted, %d typed sheds); batches acked: %d; final epoch: %d\n",
		cycles, floods, accepted, sheds, batches, wantEpoch)
	fmt.Fprintf(w, "every cycle: all responses typed, drain retired all jobs, recovery replayed to the exact acked epoch\n")
	return nil
}
