package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"tesc"
	"tesc/api"
	"tesc/client"
	"tesc/internal/events"
	"tesc/internal/graphgen"
	"tesc/internal/server"
	"tesc/internal/snapshot"
	"tesc/internal/vicinity"
	"tesc/internal/wal"
)

const (
	churnBatchRate  = 40 // edge batches per second, open loop
	churnFlips      = 10 // edge flips per batch
	churnRefreshGap = 5  // a monitor refresh after every 5th batch
	monitorID       = "watch"
)

// churnWorld is churn-rw's inputs: a correlate world at h=2 plus a
// pre-generated stream of edge-flip batches.
type churnWorld struct {
	*correlateWorld
	batches    []api.MutateEdgesRequest
	monitorReq api.CreateMonitorRequest
}

func newChurnWorld(r *run) (*churnWorld, error) {
	cw, err := newCorrelateWorld(r, correlateSpec{nodes: 100000, occ: 1000, h: 2, method: "importance"})
	if err != nil {
		return nil, err
	}
	// Enough batches for the whole run: the open loop's 40/s through
	// warm-up and measurement, and the traced replay's one batch per
	// traced read (about 50/s) in a traced run's second half.
	count := int(60*r.seconds.Seconds()) + 100
	stream := graphgen.NewFlipStream(cw.g.Internal(), 0.5, rand.New(rand.NewPCG(r.seed, 0xf11b)))
	w := &churnWorld{correlateWorld: cw, batches: make([]api.MutateEdgesRequest, 0, count)}
	// A batch never touches one edge twice: the node applies a batch's
	// insertions before its deletions, so a repeated edge would make the
	// applied order differ from the stream's and every later flip of the
	// stream could silently turn into a no-op.
	var cur api.MutateEdgesRequest
	seen := make(map[[2]int]bool)
	for len(w.batches) < count {
		c := stream.Next()
		e := [2]int{int(min(c.U, c.V)), int(max(c.U, c.V))}
		if seen[e] || len(cur.Insert)+len(cur.Delete) == churnFlips {
			w.batches = append(w.batches, cur)
			cur, seen = api.MutateEdgesRequest{}, make(map[[2]int]bool)
		}
		seen[e] = true
		if c.Insert {
			cur.Insert = append(cur.Insert, e)
		} else {
			cur.Delete = append(cur.Delete, e)
		}
	}
	w.monitorReq = api.CreateMonitorRequest{
		ID: monitorID, A: cw.names[0][0], B: cw.names[0][1],
		H: 2, Tail: "positive", Seed: splitmix64(r.seed ^ 0x303), Policy: "manual",
	}
	return w, nil
}

// changes lists a batch as the node applies it: insertions, then
// deletions.
func changes(b api.MutateEdgesRequest) []tesc.EdgeChange {
	out := make([]tesc.EdgeChange, 0, len(b.Insert)+len(b.Delete))
	for _, e := range b.Insert {
		out = append(out, tesc.EdgeChange{U: e[0], V: e[1], Insert: true})
	}
	for _, e := range b.Delete {
		out = append(out, tesc.EdgeChange{U: e[0], V: e[1]})
	}
	return out
}

// churnState tracks what the node has acknowledged: the epoch after
// set-up and every acked batch in order (batch i published epoch
// base+i+1).
type churnState struct {
	base  uint64
	acked []int // indices into churnWorld.batches
	next  int   // next batch to send
}

// churnResult is one untraced churn phase.
type churnResult struct {
	reads, writes, refreshes loadResult
	log                      recordLog
}

// churnPhase runs the churn traffic for d on a two-connection pool
// (poolLoop). The write schedule is an open loop with slots every
// 25·5/6 ms — five edge batches, then one monitor refresh — so batches
// are due at 40/s; between due writes both connections send h=2
// importance correlates back to back, which keeps both cores busy.
// Writes are timed from their due time: a write due while both
// connections are reading waits for one to free, as it would in an
// application sharing its pool.
func (w *churnWorld) churnPhase(r *run, cl *client.Client, graphName string, st *churnState, d time.Duration) *churnResult {
	res := &churnResult{}
	const cycle = churnRefreshGap + 1
	period := time.Second * churnRefreshGap / (churnBatchRate * cycle)
	write := func(i int) error {
		if i%cycle == churnRefreshGap {
			_, err := cl.RefreshMonitor(r.ctx, graphName, monitorID, false)
			if err != nil {
				r.note(fmt.Errorf("monitor refresh: %w", err))
			}
			return err
		}
		if st.next >= len(w.batches) {
			return fmt.Errorf("batch stream exhausted")
		}
		b := st.next
		st.next++
		resp, err := cl.MutateEdges(r.ctx, graphName, w.batches[b])
		if err != nil {
			r.note(fmt.Errorf("edge batch %d: %w", b, err))
			return err
		}
		st.acked = append(st.acked, b)
		if want := st.base + uint64(len(st.acked)); resp.Epoch != want {
			err := fmt.Errorf("edge batch %d acked at epoch %d, want %d", b, resp.Epoch, want)
			r.note(err)
			return err
		}
		return nil
	}
	sched, reads := poolLoop(realClock{}, 2, time.Now(), d, period, write, w.correlateOp(r, cl, graphName, &res.log))
	res.reads = reads
	// Split the schedule into its two request kinds.
	for i, lat := range sched.at {
		kind := &res.writes
		if i%cycle == churnRefreshGap {
			kind = &res.refreshes
		}
		kind.attempted++
		if lat < 0 {
			kind.failed++
			continue
		}
		kind.lat = append(kind.lat, lat)
	}
	res.writes.late = sched.late
	return res
}

// mirror is the benchmark's own copy of the churned graph, rolled
// forward batch by batch as the node acknowledged them.
type mirror struct {
	w       *churnWorld
	st      *churnState
	g       *tesc.Graph
	applied int // acked batches folded into g
}

// at returns the copy at epoch e with a freshly built vicinity index.
func (m *mirror) at(e uint64) (libState, error) {
	upto := int(e - m.st.base)
	if upto < m.applied || upto > len(m.st.acked) {
		return libState{}, fmt.Errorf("epoch %d outside the acked range [%d, %d]", e, m.st.base+uint64(m.applied), m.st.base+uint64(len(m.st.acked)))
	}
	var all []tesc.EdgeChange
	for _, b := range m.st.acked[m.applied:upto] {
		all = append(all, changes(m.w.batches[b])...)
	}
	if len(all) > 0 {
		g, _, err := m.g.ApplyEdgeChanges(all)
		if err != nil {
			return libState{}, err
		}
		m.g = g
	}
	m.applied = upto
	return newLibState(m.g, 2, true)
}

// checkFinal runs churn-rw's closing output checks: durability was
// really on (wal_fsyncs ≥ acked batches), the node's epoch is exactly
// the acked count past set-up, sampled reads equal the library at their
// epochs, and a final monitor refresh equals a from-scratch library
// screen of the replayed graph.
func (w *churnWorld) checkFinal(r *run, cl *client.Client, graphName string, st *churnState, reads []correlateRecord) error {
	health, err := cl.Health(r.ctx)
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if health.WALFsyncs < int64(len(st.acked)) {
		r.fail("wal_fsyncs %d < %d acked batches: durability was not on", health.WALFsyncs, len(st.acked))
	}
	info, err := cl.GetGraph(r.ctx, graphName)
	if err != nil {
		return fmt.Errorf("final graph info: %w", err)
	}
	if want := st.base + uint64(len(st.acked)); info.Epoch != want {
		r.fail("final epoch %d, want %d (set-up epoch %d + %d acked batches)", info.Epoch, want, st.base, len(st.acked))
	}
	m := &mirror{w: w, st: st, g: w.g}
	if err := verifySampled(r, reads, w.va, w.vb, m.at); err != nil {
		return err
	}
	r.attempted++
	ref, err := cl.RefreshMonitor(r.ctx, graphName, monitorID, false)
	if err != nil || ref.Last == nil {
		r.fail("final monitor refresh: %v", err)
		return nil
	}
	final, err := m.at(st.base + uint64(len(st.acked)))
	if err != nil {
		return err
	}
	lib, err := tesc.Screen(final.g, tesc.EventSet{w.monitorReq.A: w.va[0], w.monitorReq.B: w.vb[0]},
		tesc.ScreenOptions{H: w.monitorReq.H, Tail: tesc.PositiveTail, Seed: w.monitorReq.Seed})
	if err != nil {
		return fmt.Errorf("library screen: %w", err)
	}
	p := lib.Pairs[0]
	if l := ref.Last; l.Epoch != info.Epoch || l.Tau != p.Tau || l.Z != p.Z || l.P != p.P {
		r.fail("monitor at epoch %d: tau=%v z=%v p=%v; from-scratch screen at epoch %d: tau=%v z=%v p=%v",
			l.Epoch, l.Tau, l.Z, l.P, info.Epoch, p.Tau, p.Z, p.P)
	}
	return nil
}

// runChurn is churn-rw: a durable node (WAL at fsync=always, background
// checkpoints every 2 s) on the 100k-node surrogate takes 10-flip edge
// batches at 40/s and a manual monitor refresh after every 5th batch,
// while h=2 importance correlates fill the two connections between
// writes. The primary request is the read, the auxiliary one the batch
// ack.
func runChurn(r *run) error {
	w, err := newChurnWorld(r)
	if err != nil {
		return err
	}
	dataDir := filepath.Join(r.tmp, "data")
	n, err := startNode(server.Config{DataDir: dataDir, FsyncPolicy: "always"})
	if err != nil {
		return err
	}
	defer n.close()
	tr := newTransport()
	defer tr.CloseIdleConnections()
	cl := client.New(n.url, client.WithHTTPClient(&http.Client{Transport: tr}))
	const graphName = "perf"
	up := func() error {
		if err := registerGraph(r.ctx, cl, graphName, w.edges, w.events); err != nil {
			return err
		}
		if _, err := cl.CreateMonitor(r.ctx, graphName, w.monitorReq); err != nil {
			return fmt.Errorf("creating monitor: %w", err)
		}
		_, err := cl.Correlate(r.ctx, graphName, w.request(0))
		return err
	}
	setup, err := setupCycles(up, func() error { return cl.DeleteGraph(r.ctx, graphName) })
	if err != nil {
		return err
	}
	r.set("setup_s", setup)
	info, err := cl.GetGraph(r.ctx, graphName)
	if err != nil {
		return err
	}
	st := &churnState{base: info.Epoch}

	half := r.seconds
	if r.trace {
		half /= 2
	}
	var res *churnResult
	var before, after api.Health
	var healthErr error
	r.measure(half, func(d time.Duration, timed bool) {
		if timed {
			before, healthErr = cl.Health(r.ctx)
		}
		p := w.churnPhase(r, cl, graphName, st, d)
		for _, lr := range []loadResult{p.reads, p.writes, p.refreshes} {
			r.count(lr)
		}
		if timed && healthErr == nil {
			res = p
			after, healthErr = cl.Health(r.ctx)
		}
	})
	if healthErr != nil {
		return fmt.Errorf("healthz: %w", healthErr)
	}
	readMS, writeMS := msAll(res.reads.lat), msAll(res.writes.lat)
	if r.trace {
		built := after.IndexBuilt - before.IndexBuilt
		r.set("cache.index_built", float64(built))
		r.set("cache.index_refreshed", float64(after.IndexRefreshed-before.IndexRefreshed))
		r.set("cache.read_rebuild_ratio", float64(built)/float64(max(len(res.reads.lat), 1)))
		r.set("wal.fsyncs", float64(after.WALFsyncs-before.WALFsyncs))
		r.set("load.late_p99_ms", percentile(msAll(res.writes.late), 0.99))
		if err := w.trace(r, n, cl, graphName, st, time.Now().Add(r.seconds-half), median(readMS)); err != nil {
			return err
		}
	} else {
		r.set("p50_ms", typical(readMS))
		r.set("tail_ms", tail(readMS, 0.99))
		r.set("qps", res.reads.qps())
		r.set("aux_p50_ms", typical(writeMS))
	}
	return w.checkFinal(r, cl, graphName, st, res.log.recs)
}

// trace is churn-rw's traced replay, one request at a time in this
// goroutine, while a closed loop of reads runs on the other connection
// as in the untraced measurement. Edge batches fall due at 40/s as
// before; each due batch goes through the client and is then replayed
// on the benchmark's own copies (writeReplay), and between batches
// correlates run down the whole read chain, so reads and writes mix in
// about the untraced proportion. Allocation counts come from a quiet
// pass at the end (quietAllocs).
func (w *churnWorld) trace(r *run, n *node, cl *client.Client, graphName string, st *churnState, deadline time.Time, untracedP50 float64) error {
	t := r.spans
	rp := &writeReplay{w: w, st: st, graphName: graphName, walDir: filepath.Join(r.tmp, "wal")}
	rp.own = &mirror{w: w, st: st, g: w.g}
	var err error
	var lib libState
	_, dBuild := t.timed("vicinity.build", -1, -1, func() { lib, err = rp.own.at(st.base + uint64(len(st.acked))) })
	if err != nil {
		return err
	}
	rp.idx = lib.idx
	r.set("vicinity.build_ms", ms(dBuild))
	if rp.log, _, err = wal.Open(rp.walDir, wal.Options{Policy: wal.SyncAlways}); err != nil {
		return fmt.Errorf("opening the replay WAL: %w", err)
	}
	defer rp.log.Close() // scratch log: every append was already synced
	rp.store = storeOf(w.g.NumNodes(), w.events)

	var bg loadResult
	bgDone := make(chan struct{})
	go func() {
		defer close(bgDone)
		bg = closedLoop(realClock{}, 1, deadline, w.correlateOp(r, cl, graphName, &recordLog{}))
	}()
	layers := make(layerSamples)
	c := chain{front: cl, handler: n.srv.Handler(), graph: graphName}
	due := time.Now()
	for i := 0; time.Now().Before(deadline); i++ {
		if !time.Now().Before(due) {
			due = due.Add(time.Second / churnBatchRate)
			if err := rp.write(r, t, cl, i, layers); err != nil {
				return err
			}
			continue
		}
		served, err := servedState(n.srv, graphName, 2, true)
		if err != nil {
			return err
		}
		k := i % len(w.names)
		r.attempted++
		m, err := traceCorrelate(r, t, i, c, served, w.request(k), w.va[k], w.vb[k], false)
		if err != nil {
			r.fail("traced read %d: %v", i, err)
			continue
		}
		layers.add(m)
	}
	<-bgDone
	r.count(bg)
	served, err := servedState(n.srv, graphName, 2, true)
	if err != nil {
		return err
	}
	quietAllocs(r, w.correlateWorld, c, served, layers)
	layers.report(r)
	r.set("wal.bytes_per_flip", float64(dirBytes(rp.walDir))/float64(max(rp.flips, 1)))
	r.set("trace.overhead", median(layers["client.request_ms"])/untracedP50-1)
	return nil
}

// writeReplay is the traced write path: the benchmark's own graph copy,
// vicinity index, WAL and event store, kept in step with the node.
type writeReplay struct {
	w         *churnWorld
	st        *churnState
	graphName string
	own       *mirror
	idx       *tesc.VicinityIndex
	log       *wal.Log
	walDir    string
	store     *events.Store
	flips     int
	lastSave  time.Time
}

// write sends the next edge batch through the client and replays it
// through tesc.Graph.ApplyEdgeChanges, index repair (Clone +
// ApplyDeltaDirty) and a WAL append at fsync=always; after every 5th
// batch it refreshes the monitor, and every 2 s it saves the copy as a
// snapshot, the cost background checkpoints pay. Check failures are
// recorded on r; an error means the replay itself broke.
func (rp *writeReplay) write(r *run, t *recorder, cl *client.Client, i int, layers layerSamples) error {
	st := rp.st
	if st.next >= len(rp.w.batches) {
		r.fail("batch stream exhausted after %d batches", st.next)
		return nil
	}
	b := st.next
	st.next++
	batch := rp.w.batches[b]
	r.attempted++
	var resp api.MutateEdgesResponse
	var err error
	root, _ := t.timed("client.mutate", -1, i, func() { resp, err = cl.MutateEdges(r.ctx, rp.graphName, batch) })
	if err != nil {
		r.fail("traced batch %d: %v", b, err)
		return nil
	}
	st.acked = append(st.acked, b)
	if want := st.base + uint64(len(st.acked)); resp.Epoch != want {
		r.fail("traced batch %d acked at epoch %d, want %d", b, resp.Epoch, want)
	}
	var next *tesc.Graph
	var applied []tesc.EdgeChange
	_, dApply := t.timed("graph.apply", root, i, func() { next, applied, err = rp.own.g.ApplyEdgeChanges(changes(batch)) })
	if err != nil {
		return fmt.Errorf("replaying batch %d: %w", b, err)
	}
	repaired := rp.idx.Clone()
	_, dRepair := t.timed("vicinity.repair", root, i, func() { _, err = repaired.ApplyDeltaDirty(next, applied, 0) })
	if err != nil {
		return fmt.Errorf("repairing the index after batch %d: %w", b, err)
	}
	rp.own.g, rp.own.applied, rp.idx = next, len(st.acked), repaired
	rec := &wal.Record{Kind: wal.KindEdges, Graph: rp.graphName, Epoch: resp.Epoch, GraphVersion: uint64(len(st.acked)), Changes: walChanges(applied)}
	_, dAppend := t.timed("wal.append", root, i, func() { err = rp.log.Append(rec) })
	if err != nil {
		return fmt.Errorf("appending to the replay WAL: %w", err)
	}
	rp.flips += len(applied)
	layers.add(map[string]float64{"graph.apply_ms": ms(dApply), "vicinity.repair_ms": ms(dRepair), "wal.append_ms": ms(dAppend)})

	if len(st.acked)%churnRefreshGap == 0 {
		r.attempted++
		var ref api.MonitorRefreshResponse
		_, dRefresh := t.timed("client.refresh", -1, i, func() { ref, err = cl.RefreshMonitor(r.ctx, rp.graphName, monitorID, false) })
		if err != nil || ref.Last == nil {
			r.fail("traced monitor refresh: %v", err)
		} else {
			layers.add(map[string]float64{"monitor.refresh_ms": ms(dRefresh), "monitor.nodes_reused": float64(ref.Last.Reused)})
		}
	}
	if time.Since(rp.lastSave) >= 2*time.Second {
		path := filepath.Join(filepath.Dir(rp.walDir), "replay.tescsnap")
		var size int64
		_, dSave := t.timed("snapshot.save", -1, i, func() {
			size, err = snapshot.SaveFile(path, &snapshot.Snapshot{Graph: rp.own.g.Internal(), Store: rp.store, Indexes: []*vicinity.Index{rp.idx.Internal()}, Epoch: resp.Epoch, GraphVersion: uint64(len(st.acked))})
		})
		if err != nil {
			return fmt.Errorf("saving the replay snapshot: %w", err)
		}
		rp.lastSave = time.Now()
		layers.add(map[string]float64{"snapshot.save_ms": ms(dSave), "snapshot.bytes": float64(size)})
	}
	return nil
}

func walChanges(cs []tesc.EdgeChange) []wal.EdgeChange {
	out := make([]wal.EdgeChange, len(cs))
	for i, c := range cs {
		out[i] = wal.EdgeChange{U: c.U, V: c.V, Insert: c.Insert}
	}
	return out
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}
