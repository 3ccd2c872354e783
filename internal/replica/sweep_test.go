package replica_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tesc"
	"tesc/api"
	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/replica"
	"tesc/internal/server"
	"tesc/internal/wal"
)

// ---- one tescd instance ---------------------------------------------

type node struct {
	srv *server.Server
	fs  *wal.FaultFS
}

// bootNode starts (or restarts) a server over the data directory on
// fsys, replaying whatever snapshots and WAL tail it holds. The
// checkpoint debounce is effectively off: flushes happen only when the
// schedule asks, so a seed fully determines every durable-state
// transition.
func bootNode(t *testing.T, fsys *wal.FaultFS, readOnly bool) *node {
	t.Helper()
	srv := server.New(server.Config{
		IndexCacheCapacity: 4,
		DataDir:            "data",
		FS:                 fsys,
		FsyncPolicy:        "always",
		CheckpointDelay:    time.Hour,
		ReadOnly:           readOnly,
	})
	if _, err := srv.LoadData(); err != nil {
		t.Fatalf("LoadData: %v", err)
	}
	return &node{srv: srv, fs: fsys}
}

// do drives the node through its real HTTP handler, no listener.
func (n *node) do(t *testing.T, method, path string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshaling %s %s body: %v", method, path, err)
		}
		rd = bytes.NewReader(buf)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	n.srv.Handler().ServeHTTP(rec, req)
	if rec.Code >= 500 {
		t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body.String())
	}
	return rec.Code, rec.Body.Bytes()
}

// ---- exactly-once decorator -----------------------------------------

// checkingState wraps the follower's State and asserts the sweep's
// core invariant: within one generation of a graph (the span between
// installs/drops), no epoch is ever applied twice.
type checkingState struct {
	replica.State
	t       *testing.T
	gen     map[string]int
	applied map[string]map[uint64]bool
}

func newCheckingState(t *testing.T, st replica.State) *checkingState {
	return &checkingState{State: st, t: t, gen: map[string]int{}, applied: map[string]map[uint64]bool{}}
}

func (c *checkingState) record(name string, epoch uint64) {
	key := fmt.Sprintf("%s@%d", name, c.gen[name])
	set := c.applied[key]
	if set == nil {
		set = map[uint64]bool{}
		c.applied[key] = set
	}
	if set[epoch] {
		c.t.Errorf("epoch %d applied twice to %s (generation %d)", epoch, name, c.gen[name])
	}
	set[epoch] = true
}

func (c *checkingState) Apply(rec *wal.Record) error {
	err := c.State.Apply(rec)
	if err == nil {
		c.record(rec.Graph, rec.Epoch)
	}
	return err
}

func (c *checkingState) Drop(name string) error {
	err := c.State.Drop(name)
	if err == nil {
		c.gen[name]++
	}
	return err
}

func (c *checkingState) Install(name string, data []byte) error {
	err := c.State.Install(name, data)
	if err == nil {
		c.gen[name]++
	}
	return err
}

// ---- bit-for-bit state comparison -----------------------------------

// fingerprint renders a node's whole observable state — graphs with
// adjacency, events with intensities, epochs, monitor definitions and
// histories (listed over HTTP) — into a canonical string two replicas
// must agree on. Wall-clock fields (sample timestamps, elapsed times)
// are the only exclusions.
func fingerprint(t *testing.T, n *node) string {
	t.Helper()
	var b strings.Builder
	names := append([]string(nil), n.srv.Registry().Names()...)
	sort.Strings(names)
	for _, name := range names {
		e, ok := n.srv.Registry().Get(name)
		if !ok {
			continue
		}
		snap := e.Snapshot()
		fmt.Fprintf(&b, "graph %s epoch=%d gv=%d nodes=%d edges=%d\n",
			name, snap.Epoch, snap.GraphVersion, snap.Graph.NumNodes(), snap.Graph.NumEdges())
		for v := 0; v < snap.Graph.NumNodes(); v++ {
			nb := snap.Graph.Neighbors(v)
			sort.Ints(nb)
			fmt.Fprintf(&b, " %d:%v\n", v, nb)
		}
		evNames := append([]string(nil), snap.Store.Names()...)
		sort.Strings(evNames)
		for _, ev := range evNames {
			occ := append([]graph.NodeID(nil), snap.Store.Occurrences(ev)...)
			sort.Slice(occ, func(i, j int) bool { return occ[i] < occ[j] })
			fmt.Fprintf(&b, " ev %s %v [", ev, occ)
			for _, v := range occ {
				fmt.Fprintf(&b, "%g ", snap.Store.Intensity(ev, v))
			}
			b.WriteString("]\n")
		}
		var mons []api.MonitorView
		decode(t, n, "/v1/graphs/"+name+"/monitors", &mons)
		sort.Slice(mons, func(i, j int) bool { return mons[i].ID < mons[j].ID })
		for _, m := range mons {
			fmt.Fprintf(&b, " mon %s a=%s b=%s h=%d n=%d alpha=%g seed=%d policy=%s cap=%d\n",
				m.ID, m.A, m.B, m.H, m.SampleSize, m.Alpha, m.Seed, m.Policy, m.HistoryCap)
			var d api.MonitorDetail
			decode(t, n, "/v1/graphs/"+name+"/monitors/"+m.ID, &d)
			for _, s := range d.History {
				fmt.Fprintf(&b, "  sample epoch=%d tau=%g z=%g p=%g sig=%v skip=%q\n",
					s.Epoch, s.Tau, s.Z, s.P, s.Significant, s.Skipped)
			}
		}
	}
	return b.String()
}

// decode GETs path from the node and decodes the 200 body into out.
func decode(t *testing.T, n *node, path string, out any) {
	t.Helper()
	code, body := n.do(t, "GET", path, nil)
	if code != 200 {
		t.Fatalf("GET %s: %d %s", path, code, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: decoding %s: %v", path, body, err)
	}
}

// differentialQueries runs the same deterministic correlate and screen
// workload against both servers and fails on any outcome mismatch —
// the follower must not just hold the same bytes but answer the same
// questions identically.
func differentialQueries(t *testing.T, primary, follower *server.Server) {
	t.Helper()
	for _, name := range primary.Registry().Names() {
		pe, ok := primary.Registry().Get(name)
		if !ok {
			continue
		}
		fe, ok := follower.Registry().Get(name)
		if !ok {
			t.Errorf("graph %s missing on follower", name)
			continue
		}
		ps, fs := pe.Snapshot(), fe.Snapshot()
		evNames := append([]string(nil), ps.Store.Names()...)
		sort.Strings(evNames)
		if len(evNames) < 2 {
			continue
		}
		ev := make(tesc.EventSet, len(evNames))
		fev := make(tesc.EventSet, len(evNames))
		for _, n := range evNames {
			ev[n], fev[n] = occurrences(ps.Store, n), occurrences(fs.Store, n)
		}
		opts := tesc.ScreenOptions{H: 1, SampleSize: 60, Alpha: 0.05, MinOccurrences: 1, Workers: 1, Seed: 999}
		pres, perr := tesc.Screen(ps.Graph, ev, opts)
		fres, ferr := tesc.Screen(fs.Graph, fev, opts)
		if (perr == nil) != (ferr == nil) {
			t.Errorf("graph %s: screen errors differ: primary %v, follower %v", name, perr, ferr)
			continue
		}
		if perr != nil {
			continue
		}
		if fmt.Sprintf("%+v", pres.Pairs) != fmt.Sprintf("%+v", fres.Pairs) {
			t.Errorf("graph %s: screen results differ:\nprimary  %+v\nfollower %+v", name, pres.Pairs, fres.Pairs)
		}
		copts := tesc.Options{H: 1, SampleSize: 60, Seed: 5}
		pa, pb := ev[evNames[0]], ev[evNames[1]]
		fa, fb := fev[evNames[0]], fev[evNames[1]]
		pc, perr := tesc.Correlation(ps.Graph, pa, pb, copts)
		fc, ferr := tesc.Correlation(fs.Graph, fa, fb, copts)
		if (perr == nil) != (ferr == nil) {
			t.Errorf("graph %s: correlate errors differ: primary %v, follower %v", name, perr, ferr)
			continue
		}
		if perr == nil && (pc.Tau != fc.Tau || pc.Z != fc.Z || pc.P != fc.P || pc.Significant != fc.Significant || pc.N != fc.N) {
			t.Errorf("graph %s: correlate results differ:\nprimary  %+v\nfollower %+v", name, pc, fc)
		}
	}
}

// ---- the schedule driver --------------------------------------------

var sweepGraphNames = []string{"alpha", "beta", "gamma"}
var sweepEventNames = []string{"e0", "e1", "e2", "e3"}

type sweepDriver struct {
	t       *testing.T
	rng     *rand.Rand
	primary *node
	nodes   map[string]int // registered graph → node count
	monSeq  int
}

// step performs one randomized primary-side operation. Client errors
// (4xx) are expected for some draws — a rejected request appends no
// log record, so both sides agree it never happened.
func (d *sweepDriver) step() {
	names := make([]string, 0, len(d.nodes))
	for n := range d.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	pick := func() (string, int) {
		n := names[d.rng.Intn(len(names))]
		return n, d.nodes[n]
	}
	op := d.rng.Intn(20)
	if len(names) == 0 {
		op = 19 // bootstrap the world first
	}
	switch {
	case op < 6: // edge churn
		name, n := pick()
		var ins, del [][2]int
		for k := d.rng.Intn(4) + 1; k > 0; k-- {
			u, v := d.rng.Intn(n), d.rng.Intn(n)
			if u == v {
				v = (v + 1) % n
			}
			if d.rng.Intn(3) == 0 {
				del = append(del, [2]int{u, v})
			} else {
				ins = append(ins, [2]int{u, v})
			}
		}
		d.primary.do(d.t, "POST", "/v1/graphs/"+name+"/edges",
			map[string]any{"insert": ins, "delete": del})
	case op < 11: // event churn
		name, n := pick()
		ev := sweepEventNames[d.rng.Intn(len(sweepEventNames))]
		occs := make([]int, d.rng.Intn(3)+1)
		for i := range occs {
			occs[i] = d.rng.Intn(n)
		}
		body := map[string]any{"events": map[string][]int{ev: occs}}
		if d.rng.Intn(4) == 0 {
			rm := sweepEventNames[d.rng.Intn(len(sweepEventNames))]
			body["remove"] = map[string][]int{rm: {d.rng.Intn(n)}}
		}
		d.primary.do(d.t, "POST", "/v1/graphs/"+name+"/events", body)
	case op < 13: // checkpoint + rotate + compact: lagging cursors go TooOld
		d.primary.srv.FlushSnapshots()
	case op < 15: // create a manual standing query
		name, _ := pick()
		d.monSeq++
		d.primary.do(d.t, "POST", "/v1/graphs/"+name+"/monitors", map[string]any{
			"id": fmt.Sprintf("m%d", d.monSeq), "a": "e0", "b": "e1",
			"h": 1, "sample_size": 40, "seed": 7, "policy": "manual",
		})
	case op < 16: // delete a monitor (maybe one that exists)
		name, _ := pick()
		id := fmt.Sprintf("m%d", d.rng.Intn(d.monSeq+1))
		d.primary.do(d.t, "DELETE", "/v1/graphs/"+name+"/monitors/"+id, nil)
	case op < 17 && len(names) > 1: // drop — next re-register reuses the name
		name, _ := pick()
		d.primary.do(d.t, "DELETE", "/v1/graphs/"+name, nil)
		delete(d.nodes, name)
	default: // register a pool name not currently present
		name := sweepGraphNames[d.rng.Intn(len(sweepGraphNames))]
		if _, exists := d.nodes[name]; exists {
			return
		}
		n := 16 + d.rng.Intn(8)
		g := tesc.RandomCommunityGraph(2, n/2, 3, 0.4, d.rng.Uint64())
		var edges strings.Builder
		if err := g.WriteGraph(&edges); err != nil {
			d.t.Fatalf("WriteGraph: %v", err)
		}
		code, body := d.primary.do(d.t, "POST", "/v1/graphs",
			map[string]any{"name": name, "edge_list": edges.String()})
		if code != 201 {
			d.t.Fatalf("registering %s: %d %s", name, code, body)
		}
		d.nodes[name] = g.NumNodes()
		d.primary.do(d.t, "POST", "/v1/graphs/"+name+"/events", map[string]any{
			"events": map[string][]int{"e0": {0, 1, 2}, "e1": {n - 1, n - 2}},
		})
	}
}

// ---- the sweep ------------------------------------------------------

// TestReplicaConsistencySweep is the deterministic differential proof
// of the replication subsystem: hundreds of seeded mutation schedules
// run against a primary while a follower replicates through a
// FaultTransport that injects drops, stale replays, truncations,
// corruption and partitions at every transport operation — and on odd
// seeds the follower is additionally killed mid-stream and rebooted
// from its own data directory. After the transport heals, the follower
// must converge to a bit-for-bit copy of the primary (graphs, events,
// epochs, monitors with their histories) and answer an identical query
// workload identically — with no acknowledged mutation lost or applied
// twice (the checkingState invariant).
func TestReplicaConsistencySweep(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 60
	}
	// Guard against a vacuous pass: if the injector never fired or no
	// anomaly ever forced a re-bootstrap, the sweep proved nothing.
	var totalFaults, totalBootstraps, totalDiscards atomic.Int64
	t.Cleanup(func() {
		if totalFaults.Load() == 0 || totalBootstraps.Load() == 0 || totalDiscards.Load() == 0 {
			t.Errorf("sweep under-exercised: faults=%d bootstraps=%d discards=%d",
				totalFaults.Load(), totalBootstraps.Load(), totalDiscards.Load())
		}
	})
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			m := runSweepSeed(t, int64(seed), sweepRig{followers: 1})
			totalFaults.Add(m.Faults)
			totalBootstraps.Add(m.Bootstraps)
			totalDiscards.Add(m.Discards)
		})
	}
}

// FuzzReplicaSweep runs one sweep schedule per seed with two
// followers, each pulling through its own FaultTransport over the
// production replica.HTTPTransport, whose client reaches the primary's
// handler in process: the HTTP codec is fuzzed too. Both must converge
// to the primary within the sweep's round bound. A failing seed
// replays its schedule, fault draws and reboot point exactly. Built
// with GOEXPERIMENT=synctest the sweep runs in a bubble on a fake
// clock; goroutine interleavings stay the scheduler's.
func FuzzReplicaSweep(f *testing.F) {
	f.Add(uint64(13))
	f.Fuzz(func(t *testing.T, seed uint64) {
		bubble(func() { runSweepSeed(t, int64(seed&^(1<<63)), sweepRig{followers: 2, overHTTP: true}) })
	})
}

// sweepRig is the substrate one sweep runs on. Every node's data
// directory is an in-memory FaultFS.
type sweepRig struct {
	followers int
	// overHTTP ships the log through replica.HTTPTransport and the
	// primary's handler; otherwise followers pull from
	// server.ReplicaSource.
	overHTTP bool
}

// sweepFollower is one replica of a sweep: its node, the faulty wire
// it pulls through, and the follower driving it.
type sweepFollower struct {
	node *node
	ft   *replica.FaultTransport
	fol  *replica.Follower
}

func runSweepSeed(t *testing.T, seed int64, rig sweepRig) (total replica.Metrics) {
	accumulate := func(m replica.Metrics) {
		total.RecordsApplied += m.RecordsApplied
		total.RecordsSkipped += m.RecordsSkipped
		total.Pulls += m.Pulls
		total.Bootstraps += m.Bootstraps
		total.Discards += m.Discards
		total.Faults += m.Faults
	}
	rng := rand.New(rand.NewSource(seed))
	primary := bootNode(t, wal.NewFaultFS(), false)
	defer primary.srv.Close()
	var wire replica.Transport = server.ReplicaSource{S: primary.srv}
	if rig.overHTTP {
		wire = &replica.HTTPTransport{Base: "http://primary", Client: &http.Client{Transport: handlerHop{primary.srv.Handler()}}}
	}

	maxPull := 64 + rng.Intn(4096)
	followers := make([]*sweepFollower, rig.followers)
	for i := range followers {
		f := &sweepFollower{node: bootNode(t, wal.NewFaultFS(), true), ft: replica.NewFaultTransport(wire, seed*7919+13+int64(i), 0.35)}
		f.fol = replica.New(f.ft, newCheckingState(t, f.node.srv.FollowerState()), nil)
		f.fol.SetMaxPull(maxPull)
		followers[i] = f
	}
	defer func() {
		for _, f := range followers {
			f.node.srv.Close()
		}
	}()

	d := &sweepDriver{t: t, rng: rng, primary: primary, nodes: map[string]int{}}
	steps := 40 + rng.Intn(40)
	rebootAt := -1
	if seed%2 == 1 {
		rebootAt = steps / 2
	}
	for i := 0; i < steps; i++ {
		d.step()
		if t.Failed() {
			return total
		}
		for _, f := range followers {
			for k := rng.Intn(3); k > 0; k-- {
				_ = f.fol.Sync() // errors are injected faults; Sync must stay safe
			}
		}
		if i == rebootAt {
			// Crash one follower (no flush, unsynced bytes lost) and
			// reboot it from its own data directory: local snapshots +
			// WAL tail restore the applied prefix, the saved cursor
			// resumes the pull, and the epoch gate absorbs any overlap.
			f := followers[int(seed/2)%len(followers)]
			accumulate(f.fol.Metrics())
			f.node.srv.Kill()
			f.node.fs.Crash()
			f.node = bootNode(t, f.node.fs, true)
			f.fol = replica.New(f.ft, newCheckingState(t, f.node.srv.FollowerState()), nil)
			f.fol.SetMaxPull(maxPull)
		}
	}

	// Quiesce and heal, then every follower must fully converge.
	for i, f := range followers {
		f.ft.Heal()
		var want, got string
		for round := 0; round < 30; round++ {
			if err := f.fol.Sync(); err != nil {
				t.Fatalf("follower %d: healed sync failed: %v", i, err)
			}
			want, got = fingerprint(t, primary), fingerprint(t, f.node)
			if want == got {
				break
			}
		}
		if want != got {
			t.Fatalf("seed %d: follower %d did not converge:\n--- primary ---\n%s\n--- follower ---\n%s", seed, i, want, got)
		}
		m := f.fol.Metrics()
		if m.LagEpochs != 0 {
			t.Errorf("follower %d converged but lag reports %d epochs", i, m.LagEpochs)
		}
		accumulate(m)
		differentialQueries(t, primary.srv, f.node.srv)
	}
	return total
}

// occurrences returns an event's occurrence nodes as the public input
// type.
func occurrences(s *events.Store, name string) []int {
	occ := s.Occurrences(name)
	out := make([]int, len(occ))
	for i, v := range occ {
		out[i] = int(v)
	}
	return out
}
