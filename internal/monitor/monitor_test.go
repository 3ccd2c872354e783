package monitor

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"tesc/internal/graphgen"
	"tesc/internal/screen"
)

func testWorld(t *testing.T, seed uint64) (*Manager, *world, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^1))
	mgr := NewManager()
	w := newWorld("g", mgr, graphgen.WattsStrogatz(300, 2, 0.1, rng))
	seedEvents(w, rng, 25)
	return mgr, w, rng
}

func TestDefinitionDefaultsAndValidation(t *testing.T) {
	d := Definition{A: "x", B: "y", H: 2}
	if err := d.Normalize(); err != nil {
		t.Fatal(err)
	}
	if d.SampleSize != 900 || d.Alpha != 0.05 ||
		d.Debounce != DefaultDebounce || d.HistoryCap != DefaultHistory {
		t.Fatalf("defaults not applied: %+v", d)
	}
	bad := []Definition{
		{A: "", B: "y", H: 1},
		{A: "x", B: "x", H: 1},
		{A: "x", B: "y", H: 0},
		{A: "x", B: "y", H: 1, SampleSize: 1},
		{A: "x", B: "y", H: 1, Alpha: 1.5},
		{A: "x", B: "y", H: 1, Alpha: math.NaN()},
		{A: "x", B: "y", H: 1, HistoryCap: MaxHistory + 1},
		{A: "x", B: "y", H: 1, Debounce: -time.Second},
	}
	for i, d := range bad {
		if err := d.Normalize(); err == nil {
			t.Errorf("bad definition %d accepted: %+v", i, d)
		}
	}
}

// TestCoalescing: a burst of B delta batches folds into ONE re-screen
// whose history entry reports all B batches.
func TestCoalescing(t *testing.T) {
	mgr, w, rng := testWorld(t, 5)
	m, err := mgr.Create("g", Definition{A: "ev-a", B: "ev-b", H: 2, SampleSize: 50, Seed: 3, Mode: Manual}, w.snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.History()) != 1 {
		t.Fatalf("baseline history = %d entries, want 1", len(m.History()))
	}
	stream := graphgen.NewFlipStream(w.g, 0.5, rng)
	const burst = 7
	for i := 0; i < burst; i++ {
		w.applyEdges(t, stream.Take(2))
	}
	if got := m.Pending(); got != burst {
		t.Fatalf("pending batches = %d, want %d", got, burst)
	}
	sample, ran, err := m.Refresh(false)
	if err != nil || !ran {
		t.Fatalf("refresh: ran=%v err=%v", ran, err)
	}
	if sample.Batches != burst {
		t.Fatalf("re-screen folded %d batches, want %d", sample.Batches, burst)
	}
	if len(m.History()) != 2 {
		t.Fatalf("history = %d entries after one coalesced re-screen, want 2", len(m.History()))
	}
	// Nothing pending: a plain refresh is a no-op, a forced one runs.
	if _, ran, _ := m.Refresh(false); ran {
		t.Fatal("refresh with nothing pending ran")
	}
	if _, ran, _ := m.Refresh(true); !ran {
		t.Fatal("forced refresh did not run")
	}
}

// TestFutureEpochDeltaDefers: a batch queued for an epoch the
// snapshot source has not published yet must not be consumed — the
// re-screen it asks for must see it.
func TestFutureEpochDeltaDefers(t *testing.T) {
	mgr, w, _ := testWorld(t, 6)
	m, err := mgr.Create("g", Definition{A: "ev-a", B: "ev-b", H: 1, SampleSize: 40, Seed: 4, Mode: Manual}, w.snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	// Queue a delta two epochs ahead of the published snapshot.
	m.notify(w.epoch + 2)
	if _, ran, _ := m.Refresh(false); ran {
		t.Fatal("refresh consumed a delta whose epoch is not yet visible")
	}
	if m.Pending() != 1 {
		t.Fatalf("pending = %d, want the deferred delta still queued", m.Pending())
	}
	// Publish past the delta's epoch; now it must drain.
	w.epoch += 2
	if _, ran, _ := m.Refresh(false); !ran {
		t.Fatal("refresh did not run after the delta's epoch became visible")
	}
	if m.Pending() != 0 {
		t.Fatalf("pending = %d after drain, want 0", m.Pending())
	}
}

func TestHistoryRingCapacity(t *testing.T) {
	mgr, w, rng := testWorld(t, 7)
	const cap = 5
	m, err := mgr.Create("g", Definition{A: "ev-a", B: "ev-b", H: 1, SampleSize: 40, Seed: 5, Mode: Manual, HistoryCap: cap}, w.snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	stream := graphgen.NewFlipStream(w.g, 0.5, rng)
	for i := 0; i < cap+4; i++ {
		w.applyEdges(t, stream.Take(1))
		if _, _, err := m.Refresh(false); err != nil {
			t.Fatal(err)
		}
	}
	hist := m.History()
	if len(hist) != cap {
		t.Fatalf("history = %d entries, want ring capacity %d", len(hist), cap)
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Epoch < hist[i-1].Epoch {
			t.Fatalf("history epochs out of order: %d after %d", hist[i].Epoch, hist[i-1].Epoch)
		}
	}
	last, ok := m.Last()
	if !ok || last.Epoch != hist[len(hist)-1].Epoch {
		t.Fatalf("Last() = %+v, want newest ring entry", last)
	}
}

// TestAutoModeDebounce: in Auto mode a burst of notifies triggers at
// most a couple of re-screens (timer coalescing), and the monitor
// catches up without any explicit refresh.
func TestAutoModeDebounce(t *testing.T) {
	mgr, w, rng := testWorld(t, 8)
	m, err := mgr.Create("g", Definition{
		A: "ev-a", B: "ev-b", H: 1, SampleSize: 40, Seed: 6,
		Mode: Auto, Debounce: 20 * time.Millisecond,
	}, w.snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	stream := graphgen.NewFlipStream(w.g, 0.5, rng)
	const burst = 10
	for i := 0; i < burst; i++ {
		w.applyEdges(t, stream.Take(1))
	}
	// Wait for the last re-screen to record, not only for the queue to
	// drain: a drain empties the queue before its re-screen finishes.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if last, _ := m.Last(); m.Pending() == 0 && last.Epoch == w.epoch {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto monitor never caught up; pending=%d", m.Pending())
		}
		time.Sleep(5 * time.Millisecond)
	}
	runs := len(m.History()) - 1 // minus the baseline
	if runs < 1 || runs >= burst {
		t.Fatalf("auto mode ran %d re-screens for a burst of %d batches; want coalescing (1 <= runs < %d)", runs, burst, burst)
	}
	if last, _ := m.Last(); last.Epoch != w.epoch {
		t.Fatalf("auto monitor caught up to epoch %d, world at %d", last.Epoch, w.epoch)
	}
}

func TestManagerLifecycle(t *testing.T) {
	mgr, w, _ := testWorld(t, 9)
	def := Definition{A: "ev-a", B: "ev-b", H: 1, SampleSize: 40, Mode: Manual}
	m1, err := mgr.Create("g", def, w.snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Def().ID != "mon-1" {
		t.Fatalf("generated ID = %q, want mon-1", m1.Def().ID)
	}
	def2 := def
	def2.Seed = 1
	if _, err := mgr.Create("g", def2, w.snap, w.lend); err != nil {
		t.Fatal(err)
	}
	if mgr.Active() != 2 {
		t.Fatalf("active = %d, want 2", mgr.Active())
	}
	// Duplicate explicit IDs conflict.
	dup := def
	dup.ID = "mon-1"
	if _, err := mgr.Create("g", dup, w.snap, w.lend); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	// An event with no occurrences yet is allowed at this layer (the
	// REST layer rejects unknown names): the baseline records a skipped
	// sample and the monitor starts tracking when occurrences appear.
	ghost, err := mgr.Create("g", Definition{A: "ev-a", B: "ghost", H: 1, Mode: Manual}, w.snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	if last, _ := ghost.Last(); last.Skipped == "" {
		t.Fatal("baseline over a missing event was not marked skipped")
	}
	mgr.Delete("g", ghost.Def().ID)
	if !mgr.Delete("g", "mon-1") {
		t.Fatal("delete failed")
	}
	if mgr.Delete("g", "mon-1") {
		t.Fatal("double delete succeeded")
	}
	if n := mgr.DropGraph("g"); n != 1 {
		t.Fatalf("DropGraph removed %d monitors, want 1", n)
	}
	if mgr.Active() != 0 {
		t.Fatalf("active = %d after teardown, want 0", mgr.Active())
	}
}

// TestDuplicateIDSentinel pins the typed conflict error: a second
// monitor with a taken ID, created or restored, fails with an error
// wrapping ErrAlreadyRegistered, which the REST layer maps to 409.
func TestDuplicateIDSentinel(t *testing.T) {
	mgr, w, _ := testWorld(t, 17)
	def := Definition{ID: "dup", A: "ev-a", B: "ev-b", H: 1, SampleSize: 40, Mode: Manual}
	if _, err := mgr.Create("g", def, w.snap, w.lend); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create("g", def, w.snap, w.lend); !errors.Is(err, ErrAlreadyRegistered) {
		t.Fatalf("duplicate Create: err = %v, want ErrAlreadyRegistered", err)
	}
	if _, err := mgr.Restore("g", State{Def: def}, w.snap, w.lend); !errors.Is(err, ErrAlreadyRegistered) {
		t.Fatalf("duplicate Restore: err = %v, want ErrAlreadyRegistered", err)
	}
	if _, err := mgr.Create("other", def, w.snap, w.lend); err != nil {
		t.Fatalf("the same ID on another graph: %v", err)
	}
}

func TestRestoreContinuesHistoryAndIDs(t *testing.T) {
	mgr, w, rng := testWorld(t, 10)
	m, err := mgr.Create("g", Definition{A: "ev-a", B: "ev-b", H: 2, SampleSize: 50, Seed: 8, Mode: Manual}, w.snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	stream := graphgen.NewFlipStream(w.g, 0.5, rng)
	for i := 0; i < 3; i++ {
		w.applyEdges(t, stream.Take(2))
		if _, _, err := m.Refresh(false); err != nil {
			t.Fatal(err)
		}
	}
	st := m.State()

	// A fresh manager (a restarted daemon) restores the state: history
	// intact, no baseline re-run, next generated ID does not collide.
	mgr2 := NewManager()
	w2 := &world{name: "g", mgr: mgr2, g: w.g, builder: w.builder, store: w.store, epoch: w.epoch, memos: make(map[memoKey]*screen.SharedMemo)}
	restored, err := mgr2.Restore("g", st, w2.snap, w2.lend)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(restored.History()), len(st.History); got != want {
		t.Fatalf("restored history = %d entries, want %d", got, want)
	}
	if last, _ := restored.Last(); last.Epoch != st.History[len(st.History)-1].Epoch {
		t.Fatal("restored monitor lost its last epoch")
	}
	other, err := mgr2.Create("g", Definition{A: "ev-a", B: "ev-b", H: 1, Seed: 9, Mode: Manual}, w2.snap, w2.lend)
	if err != nil {
		t.Fatal(err)
	}
	if other.Def().ID == restored.Def().ID {
		t.Fatalf("restored and fresh monitors share ID %q", other.Def().ID)
	}
	// The restored monitor's cold cache refills and it keeps tracking.
	w2.applyEdges(t, stream.Take(2))
	sample, ran, err := restored.Refresh(false)
	if err != nil || !ran {
		t.Fatalf("post-restore refresh: ran=%v err=%v", ran, err)
	}
	assertSampleEquals(t, "post-restore", sample, fromScratch(t, w2, restored.Def()))
}

// TestRegistrationRaceWatermark pins the close of the
// notify-before-registration race: a delta notified to the graph
// BEFORE a monitor registers (its mutation not yet published when the
// baseline runs) must still re-screen that monitor once the epoch
// becomes visible — via the entry queued at registration — and the
// memo it borrows, which missed that epoch, resets at its pin.
func TestRegistrationRaceWatermark(t *testing.T) {
	mgr, w, _ := testWorld(t, 12)
	// The in-flight mutation notifies the (empty) monitor list for the
	// epoch it WILL publish.
	target := w.epoch + 1
	mgr.listAndMark("g", target)

	// Registration + baseline happen while the old snapshot is still
	// published: the baseline warms the memo at the old epoch and the
	// registration entry must stay pending.
	m, err := mgr.Create("g", Definition{A: "ev-a", B: "ev-b", H: 1, SampleSize: 40, Seed: 13, Mode: Manual}, w.snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	if last, _ := m.Last(); last.Epoch != w.epoch {
		t.Fatalf("baseline bound epoch %d, want %d", last.Epoch, w.epoch)
	}
	if m.Pending() != 0 {
		// batches is 0 for the registration entry; the entry itself
		// must still be queued.
		t.Fatalf("pending batches = %d, want 0 (the registration entry carries no batch count)", m.Pending())
	}

	// The mutation publishes behind the memo's back. The next drain
	// must reset it: zero reuse despite the baseline having just
	// warmed every entry.
	w.epoch = target
	sample, ran, err := m.Refresh(false)
	if err != nil || !ran {
		t.Fatalf("refresh after publication: ran=%v err=%v", ran, err)
	}
	if sample.Reused != 0 {
		t.Fatalf("post-watermark re-screen reused %d cached densities from a potentially stale memo", sample.Reused)
	}
	if sample.Epoch != target {
		t.Fatalf("re-screen bound epoch %d, want %d", sample.Epoch, target)
	}
	// And a normally-registered monitor is unaffected: a later create
	// sees the watermark already visible, so its registration entry
	// drains with its own baseline.
	m2, err := mgr.Create("g", Definition{A: "ev-a", B: "ev-b", H: 1, SampleSize: 40, Seed: 14, Mode: Manual}, w.snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	if _, ran, _ := m2.Refresh(false); ran {
		t.Fatal("fresh monitor had spurious pending work after baseline")
	}
}

// TestEventDeltaOnlyAffectsItsMonitors: mutations of an unrelated
// event must not queue work for a monitor that does not watch it.
func TestEventDeltaScoping(t *testing.T) {
	mgr, w, _ := testWorld(t, 11)
	w.builder.Add("other", 5)
	w.store = w.builder.Build()
	w.epoch++
	m, err := mgr.Create("g", Definition{A: "ev-a", B: "ev-b", H: 1, SampleSize: 40, Mode: Manual}, w.snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	w.mutateEvent(t, "other", 6, true)
	if m.Pending() != 0 {
		t.Fatalf("unrelated event mutation queued %d batches", m.Pending())
	}
	w.mutateEvent(t, "ev-a", 7, true)
	if m.Pending() != 1 {
		t.Fatalf("watched event mutation queued %d batches, want 1", m.Pending())
	}
}
