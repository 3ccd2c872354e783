package core

import (
	"math/rand/v2"
	"testing"

	"tesc/internal/graph"
)

// TestPackCounts: every record whose counts fit 3+3+2 bits round-trips,
// one past any field's bound does not fit, and (0, 0, 0) packs to the
// empty byte.
func TestPackCounts(t *testing.T) {
	for ca := 0; ca <= 8; ca++ {
		for cb := 0; cb <= 8; cb++ {
			for shared := 0; shared <= min(ca, cb, 4); shared++ {
				d := Density{VicinitySize: 20, CountA: ca, CountB: cb, CountUnion: ca + cb - shared, SumA: float64(ca), SumB: float64(cb)}
				b := packCounts(d)
				fits := ca <= 7 && cb <= 7 && shared <= 3 && ca+cb > 0
				if (b != 0) != fits {
					t.Fatalf("counts (%d, %d, %d) packed to %#x, fits %v", ca, cb, shared, b, fits)
				}
				if fits && unpackCounts(b, 20) != d {
					t.Fatalf("counts (%d, %d, %d) came back as %+v", ca, cb, shared, unpackCounts(b, 20))
				}
			}
		}
	}
}

// checkCountMemo runs c's importance or rejection test through one
// memo, cold, repeated, with another seed and pinned to a version the
// memo is not at, and holds each read to the same test without the
// memo: the same sample, densities, τ, z and p bit for bit, no more
// traversals than the larger of its own and n, and at h ≥ 2 one
// traversal per node the memo did not serve. It returns the records the reads took from the memo.
func checkCountMemo(t *testing.T, c sideCase) (hits int64) {
	t.Helper()
	p, idx := sideProblem(t, c)
	memo := NewCountMemo(c.n, c.h, 5)
	for read, at := range []uint64{5, 5, 5, 4, 5} {
		rseed := c.seed + uint64(read/2)
		opts := Options{
			H: c.h, SampleSize: c.size, Alpha: 0.05, Sampler: sideSampler(c.sampler, idx),
			Rand: rand.New(rand.NewPCG(rseed, 7)),
		}
		want, err := Test(p, opts)
		if err != nil {
			return hits // too few references: nothing to compare
		}
		opts.Rand = rand.New(rand.NewPCG(rseed, 7))
		opts.Counts = CountRead{Memo: memo, Epoch: at}
		got, err := Test(p, opts)
		if err != nil {
			t.Fatalf("%v read %d: %v", c, read, err)
		}
		what := c.String()
		sameBits(t, what+" sa", got.SA, want.SA)
		sameBits(t, what+" sb", got.SB, want.SB)
		sameScore(t, what, got, want)
		switch {
		case got.DensityBFS > max(want.DensityBFS, int64(got.N)):
			// At h = 1 the misses may run from the reference side, by
			// ball sum cheaper than the whole sample's event side yet
			// more traversals.
			t.Fatalf("%v read %d: %d traversals, %d without the memo", c, read, got.DensityBFS, want.DensityBFS)
		case at != memo.Epoch() && got.DensityMemoHits != 0:
			t.Fatalf("%v read %d: a read pinned to epoch %d took %d records of epoch %d", c, read, at, got.DensityMemoHits, memo.Epoch())
		case c.h > 1 && got.DensityBFS+got.DensityMemoHits != int64(got.N):
			t.Fatalf("%v read %d: %d traversals + %d hits for %d nodes", c, read, got.DensityBFS, got.DensityMemoHits, got.N)
		}
		hits += got.DensityMemoHits
	}
	return hits
}

// TestCountMemoMatchesPlainTest runs checkCountMemo over seeded random
// cases: h = 1..3, importance with and without batches, rejection.
func TestCountMemoMatchesPlainTest(t *testing.T) {
	var hits int64
	for seed := uint64(1); seed <= 90; seed++ {
		n := 30 + int(seed*37%250)
		hits += checkCountMemo(t, sideCase{
			seed: seed, n: n, m: int(seed*13%5+1) * n / 2,
			h:       1 + int(seed%3),
			occ:     1 + int(seed*7%30),
			sampler: 2 + int(seed%3), // importance, importance-batch3, rejection
			size:    2 + int(seed*11)%n,
		})
	}
	if hits == 0 {
		t.Fatal("no read took a record from its memo")
	}
}

// FuzzCountMemo is checkCountMemo on fuzzed graphs, events and samplers.
func FuzzCountMemo(f *testing.F) {
	f.Add(uint64(1), uint16(50), uint16(60), uint8(1), uint8(5), uint8(0), uint16(900))
	f.Add(uint64(2), uint16(120), uint16(300), uint8(0), uint8(40), uint8(2), uint16(40))
	f.Fuzz(func(t *testing.T, seed uint64, n, m uint16, h, occ, kind uint8, size uint16) {
		c := sideCase{seed: seed, n: 2 + int(n%400), h: 1 + int(h%3), occ: 1 + int(occ%60), sampler: 2 + int(kind%3)}
		c.m = int(m) % (4 * c.n)
		c.size = 2 + int(size)%(c.n+1)
		checkCountMemo(t, c)
	})
}

// TestCountMemoAdvance: an advance from the memo's epoch clears exactly
// the dirty nodes' records; one from another epoch changes nothing.
func TestCountMemoAdvance(t *testing.T) {
	m := NewCountMemo(20, 2, 3)
	m.mu.Lock()
	for v := graph.NodeID(0); v < 20; v++ {
		m.store(v, uint8(v+1))
	}
	m.mu.Unlock()
	if m.Advance(2, 4, []graph.NodeID{1}) || m.Epoch() != 3 || m.load(1) != 2 {
		t.Fatal("an advance from another epoch changed the memo")
	}
	if !m.Advance(3, 4, []graph.NodeID{1, 9, 19}) || m.Epoch() != 4 {
		t.Fatal("an advance from the memo's epoch failed")
	}
	for v := graph.NodeID(0); v < 20; v++ {
		want := uint8(v + 1)
		if v == 1 || v == 9 || v == 19 {
			want = 0
		}
		if got := m.load(v); got != want {
			t.Fatalf("node %d holds %#x after the advance, want %#x", v, got, want)
		}
	}
}
