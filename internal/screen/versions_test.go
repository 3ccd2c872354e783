package screen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/vicinity"
)

// versionsFixture is a small graph with three events and a memo over
// them, warmed by one sweep pinned at epoch 1.
func versionsFixture(t *testing.T) (*graph.Graph, *events.Store, *SharedMemo) {
	t.Helper()
	g, store := memoFixture(t, 3, 12, 4)
	memo, err := NewSharedMemo(g.NumNodes(), store.Names())
	if err != nil {
		t.Fatal(err)
	}
	if !memo.Pin(1) {
		t.Fatal("a fresh memo refused its first pin")
	}
	if _, err := Run(g, store, AllPairs(store, 1), Config{H: 2, SampleSize: 60, Seed: 1, Memo: memo}); err != nil {
		t.Fatal(err)
	}
	memo.Unpin()
	if memo.Published() == 0 {
		t.Fatal("the warm-up published nothing")
	}
	return g, store, memo
}

// TestMemoPinRefusesStaleEpochs: a pin behind the memo's version is
// refused, and while the memo is pinned a pin at another epoch is
// refused too; a second pin at the pinned epoch shares it.
func TestMemoPinRefusesStaleEpochs(t *testing.T) {
	_, _, memo := versionsFixture(t)
	memo.Advance(2, nil, false)
	if memo.Pin(1) {
		t.Fatal("a pin behind the memo's version was admitted")
	}
	if !memo.Pin(2) {
		t.Fatal("a pin at the memo's version was refused")
	}
	memo.Advance(3, nil, false)
	if memo.Pin(3) {
		t.Fatal("a pin at another epoch shared a pinned memo")
	}
	if !memo.Pin(2) {
		t.Fatal("a second pin at the pinned epoch was refused")
	}
	memo.Unpin()
	memo.Unpin()
	if !memo.Pin(3) {
		t.Fatal("after the last unpin the memo refused its own version")
	}
	memo.Unpin()
}

// TestMemoGapResets: a version the memo missed resets it, whether the
// gap shows at Advance or at Pin.
func TestMemoGapResets(t *testing.T) {
	_, _, memo := versionsFixture(t)
	memo.Advance(3, nil, false) // version 2 was missed
	if n := memo.Published(); n != 0 {
		t.Fatalf("an advance past a missed version kept %d entries", n)
	}
	_, _, memo = versionsFixture(t)
	if !memo.Pin(4) {
		t.Fatal("a pin ahead of the memo's version was refused")
	}
	if n := memo.Published(); n != 0 {
		t.Fatalf("a pin ahead of the memo's version kept %d entries", n)
	}
	memo.Unpin()
}

// TestMemoOwedDropAppliesAtLastUnpin: a drop advanced past a pinned
// memo keeps the entries the pinned sweeps read until the last Unpin,
// which applies it; an owed drop that outnumbers the nodes resets.
func TestMemoOwedDropAppliesAtLastUnpin(t *testing.T) {
	g, _, memo := versionsFixture(t)
	var dirty []graph.NodeID
	for v := range graph.NodeID(g.NumNodes()) {
		if memo.memo.states[v].Load() == 2 && len(dirty) < 5 {
			dirty = append(dirty, v)
		}
	}
	full := memo.Published()
	memo.Pin(1)
	memo.Pin(1)
	memo.Advance(2, dirty, false)
	if n := memo.Published(); n != full {
		t.Fatalf("a drop advanced past pins took effect at once: %d of %d entries left", n, full)
	}
	memo.Unpin()
	if n := memo.Published(); n != full {
		t.Fatalf("a drop took effect before the last unpin: %d of %d entries left", n, full)
	}
	memo.Unpin()
	if n := memo.Published(); n != full-len(dirty) {
		t.Fatalf("after the last unpin %d entries are left, want %d", n, full-len(dirty))
	}

	memo.Pin(2)
	for to := uint64(3); to < 6; to++ {
		memo.Advance(to, make([]graph.NodeID, g.NumNodes()/2), false)
	}
	memo.Unpin()
	if n := memo.Published(); n != 0 {
		t.Fatalf("owed drops past the node count kept %d entries", n)
	}
}

// FuzzMemoVersions drives one memo through a random interleaving of
// edge batches and event mutations (advanced with exact dirty sets, or
// published behind the memo's back), pins and unpins at the current
// and at stale epochs, and sweeps on pinned memos. Every sweep that
// runs must be bit-identical to a memo-less Run at its epoch.
func FuzzMemoVersions(f *testing.F) {
	f.Add(uint64(1), []byte{0, 2, 4, 1, 4, 3, 2, 4})
	f.Add(uint64(2), []byte{2, 4, 2, 4, 0, 1, 4, 3, 3, 2, 4})
	f.Add(uint64(3), []byte{2, 8, 0, 14, 4, 5, 2, 4, 3, 2, 20, 4})
	f.Add(uint64(4), []byte{5, 2, 4, 0, 0, 2, 4, 1, 2, 4, 9, 3, 3, 2, 4})
	f.Add(uint64(35), []byte("2X9012X"))
	f.Add(uint64(120), []byte("200XA92X"))
	f.Add(uint64(144), []byte("2AX092X"))
	f.Fuzz(func(t *testing.T, seed uint64, steps []byte) {
		if len(steps) > 48 {
			steps = steps[:48]
		}
		rng := rand.New(rand.NewPCG(seed, 7))
		g := graphgen.WattsStrogatz(90, 2, 0.1, rng)
		names := []string{"a", "b", "c"}
		b := events.NewBuilder(g.NumNodes())
		for _, name := range names {
			for range 6 {
				b.Add(name, graph.NodeID(rng.IntN(g.NumNodes())))
			}
		}
		h := 1 + int(seed%2)
		type version struct {
			g     *graph.Graph
			store *events.Store
		}
		versions := map[uint64]version{1: {g, b.Build()}}
		epoch := uint64(1)
		memo, err := NewSharedMemo(g.NumNodes(), names)
		if err != nil {
			t.Fatal(err)
		}
		var pins []uint64 // the epochs of the admitted pins
		stream := graphgen.NewFlipStream(g, 0.5, rng)
		for i, s := range steps {
			cur := versions[epoch]
			arg := int(s / 6)
			switch s % 6 {
			case 0: // an edge batch, advanced by its dirty set
				d := graph.NewDelta(cur.g)
				applied, err := d.Apply(stream.Take(1 + arg%3))
				if err != nil || len(applied) == 0 {
					continue
				}
				next := d.Compact()
				dirty, err := vicinity.DirtySet(cur.g, next, applied, h, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				memo.Advance(epoch+1, dirty, false)
				epoch++
				versions[epoch] = version{next, cur.store}
			case 1, 5: // an event mutation; 5 publishes it behind the memo's back
				name, v := names[arg%3], graph.NodeID(rng.IntN(cur.g.NumNodes()))
				if occ := cur.store.Occurrences(name); arg%2 == 1 && len(occ) > 1 {
					v = occ[rng.IntN(len(occ))]
					b.Remove(name, v)
				} else {
					b.Add(name, v)
				}
				if s%6 == 1 {
					memo.Advance(epoch+1, graph.NewBFS(cur.g).Collect([]graph.NodeID{v}, h), false)
				}
				epoch++
				versions[epoch] = version{cur.g, b.Build()}
			case 2: // a pin at the current epoch, or one to three behind it
				at := epoch - min(uint64(arg%4), epoch-1)
				if memo.Pin(at) {
					pins = append(pins, at)
				}
			case 3: // an unpin
				if len(pins) > 0 {
					k := arg % len(pins)
					pins = append(pins[:k], pins[k+1:]...)
					memo.Unpin()
				}
			case 4: // a sweep on a pinned memo
				if len(pins) == 0 {
					continue
				}
				at := pins[arg%len(pins)]
				v := versions[at]
				pairs := AllPairs(v.store, 1)
				cfg := Config{H: h, SampleSize: 30, Seed: seed + uint64(i), Workers: 1 + arg%2}
				want, err := Run(v.g, v.store, pairs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Memo = memo
				got, err := Run(v.g, v.store, pairs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := samePairs(got.Pairs, want.Pairs); err != nil {
					t.Fatalf("step %d: a sweep pinned at epoch %d (memo at %d): %v", i, at, epoch, err)
				}
			}
		}
		for range pins {
			memo.Unpin()
		}
	})
}

// samePairs reports the first pair whose τ, z or p differ bit for bit.
func samePairs(got, want []PairResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.A != w.A || g.B != w.B || g.Skipped != w.Skipped ||
			math.Float64bits(g.Tau) != math.Float64bits(w.Tau) ||
			math.Float64bits(g.Z) != math.Float64bits(w.Z) ||
			math.Float64bits(g.P) != math.Float64bits(w.P) {
			return fmt.Errorf("pair %d: got %+v, want %+v", i, g, w)
		}
	}
	return nil
}
