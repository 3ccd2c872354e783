package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// tieValue decodes one byte into a tie-heavy value: a quarter are
// zeros of either sign, the rest small-integer ratios (num 0..7 over
// den 1..4, so 1/2 and 2/4 tie across different encodings), an eighth
// of them negated.
func tieValue(b byte) float64 {
	switch b >> 5 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	}
	v := float64(b&7) / float64(1+(b>>3)&3)
	if b>>5 == 7 {
		v = -v
	}
	return v
}

// checkPrefixChain feeds x, y to a KendallPrefix in the chunks cuts
// gives and requires every Extend to equal Kendall and KendallNaive on
// the concatenated prefix. Each chunk also goes through ExtendKeys on
// three other prefixes: one keyed by the values' dense ranks, one by a
// random strictly monotone re-encoding of those ranks (rng) — keys
// where only a few bytes vary, at a random byte offset — and one by a
// code whose keys are narrow (below 2^32) up to a random rank and wide
// past it, so that prefix holds words until the first chunk with a wide
// key. All three must return exactly what Extend did. It reports
// whether the mixed prefix switched layouts after its first chunk.
func checkPrefixChain(t *testing.T, p *KendallPrefix, x, y []float64, cuts []int, rng *rand.Rand) (switched bool) {
	t.Helper()
	rx, ry := denseRanks(x), denseRanks(y)
	ex, ey := monotoneRecode(rx, rng), monotoneRecode(ry, rng)
	mx, my := mixedRecode(rx, rng), mixedRecode(ry, rng)
	var ranked, recoded, mixed KendallPrefix
	p.Reset()
	m := 0
	for _, c := range cuts {
		got := p.Extend(x[m:m+c], y[m:m+c])
		byRank := ranked.ExtendKeys(rx[m:m+c], ry[m:m+c])
		byCode := recoded.ExtendKeys(ex[m:m+c], ey[m:m+c])
		wasWide := mixed.wide
		byMixed := mixed.ExtendKeys(mx[m:m+c], my[m:m+c])
		switched = switched || (m > 0 && !wasWide && mixed.wide)
		m += c
		if p.Len() != m || ranked.Len() != m || recoded.Len() != m || mixed.Len() != m {
			t.Fatalf("Len = %d, %d, %d, %d after %d observations", p.Len(), ranked.Len(), recoded.Len(), mixed.Len(), m)
		}
		if want := Kendall(x[:m], y[:m]); got != want {
			t.Fatalf("prefix %d (cuts %v): Extend %+v != Kendall %+v", m, cuts, got, want)
		}
		if want := KendallNaive(x[:m], y[:m]); got != want {
			t.Fatalf("prefix %d (cuts %v): Extend %+v != KendallNaive %+v", m, cuts, got, want)
		}
		if byRank != got {
			t.Fatalf("prefix %d (cuts %v): ExtendKeys on ranks %+v != Extend %+v", m, cuts, byRank, got)
		}
		if byCode != got {
			t.Fatalf("prefix %d (cuts %v): ExtendKeys on re-encoded ranks %+v != Extend %+v", m, cuts, byCode, got)
		}
		if byMixed != got {
			t.Fatalf("prefix %d (cuts %v, wide %v): ExtendKeys on narrow and wide keys %+v != Extend %+v", m, cuts, mixed.wide, byMixed, got)
		}
	}
	return switched
}

// denseRanks returns each value's dense rank in FloatKey order: equal
// values share a rank, and the distinct values are numbered 0, 1, ...
func denseRanks(v []float64) []uint64 {
	keys := make([]uint64, len(v))
	for i, f := range v {
		keys[i] = FloatKey(f)
	}
	distinct := slices.Compact(slices.Sorted(slices.Values(keys)))
	for i, k := range keys {
		keys[i] = uint64(sort.Search(len(distinct), func(j int) bool { return distinct[j] >= k }))
	}
	return keys
}

// monotoneRecode maps ranks through a random strictly increasing code:
// a random base plus the running sum of random gaps (1..256) up to each
// rank, shifted left by a random 0..40 bits. Ranks below 300 then vary
// in at most three adjacent bytes of the code.
func monotoneRecode(ranks []uint64, rng *rand.Rand) []uint64 {
	top := uint64(0)
	for _, r := range ranks {
		top = max(top, r)
	}
	code := make([]uint64, top+1)
	for r := uint64(1); r <= top; r++ {
		code[r] = code[r-1] + 1 + rng.Uint64N(256)
	}
	shift := rng.UintN(41)
	base := rng.Uint64() >> 6 // base + (code << shift) stays below 2^64
	out := make([]uint64, len(ranks))
	for i, r := range ranks {
		out[i] = base + code[r]<<shift
	}
	return out
}

// mixedRecode keeps the ranks below a random split (0..top+1) and maps
// the others to 2^32 + rank: a strictly monotone code that is narrow
// below the split and wide from it on.
func mixedRecode(ranks []uint64, rng *rand.Rand) []uint64 {
	top := uint64(0)
	for _, r := range ranks {
		top = max(top, r)
	}
	split := rng.Uint64N(top + 2)
	out := make([]uint64, len(ranks))
	for i, r := range ranks {
		out[i] = r
		if r >= split {
			out[i] += 1 << 32
		}
	}
	return out
}

// FuzzKendallPrefix pits the incremental prefix against from-scratch
// Kendall at every chunk boundary, on float values and on rank keys,
// narrow, wide and switching from one layout to the other mid-prefix.
// data holds the observations (two bytes each, decoded by tieValue);
// each byte of cuts is one chunk size (0..47, empty chunks included),
// the rest of the sample is the last chunk.
func FuzzKendallPrefix(f *testing.F) {
	f.Add([]byte{0, 32, 1, 9, 9, 1, 200, 200, 64, 65}, []byte{2, 0, 1})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), []byte{7, 7, 1, 30})
	f.Add(make([]byte, 80), []byte{})
	f.Fuzz(func(t *testing.T, data, cutBytes []byte) {
		n := min(len(data)/2, 300)
		x, y := make([]float64, n), make([]float64, n)
		for i := range n {
			x[i], y[i] = tieValue(data[2*i]), tieValue(data[2*i+1])
		}
		var cuts []int
		m := 0
		for _, b := range cutBytes {
			c := min(int(b)%48, n-m)
			cuts = append(cuts, c)
			m += c
		}
		cuts = append(cuts, n-m)
		seed := uint64(len(data))<<32 | uint64(len(cutBytes))
		for _, b := range data {
			seed = seed*31 + uint64(b)
		}
		checkPrefixChain(t, new(KendallPrefix), x, y, cuts, rand.New(rand.NewPCG(seed, 21)))
	})
}

// TestKendallPrefixChains runs the planner's checkpoint chains and
// random chunkings over tie-heavy samples on one reused prefix, so
// scratch left by a longer earlier chain cannot leak into a later one.
// Some chains must switch from words to keyPairs mid-prefix.
func TestKendallPrefixChains(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 26))
	p := new(KendallPrefix)
	switches := 0
	for trial := range 60 {
		n := 2 + rng.IntN(400)
		x, y := make([]float64, n), make([]float64, n)
		for i := range n {
			x[i], y[i] = tieValue(byte(rng.Uint32())), tieValue(byte(rng.Uint32()))
		}
		var cuts []int
		if trial%2 == 0 {
			prev := 0
			for _, m := range plannerSchedule(n) {
				cuts = append(cuts, m-prev)
				prev = m
			}
		} else {
			for m := 0; m < n; {
				c := min(rng.IntN(150), n-m)
				cuts = append(cuts, c)
				m += c
			}
		}
		if checkPrefixChain(t, p, x, y, cuts, rng) {
			switches++
		}
	}
	if switches == 0 {
		t.Fatal("no chain switched layouts mid-prefix")
	}
}

// plannerSchedule is the screening planner's longest checkpoint
// schedule for a sample of n, the one of its deterministic-only bound
// (first checkpoint 64: doubling, then n·4/8..7/8), ending with n
// itself. The default bound's schedule is its doubling prefix up to
// n/2.
func plannerSchedule(n int) []int {
	var cps []int
	seen := map[int]bool{}
	add := func(m int) {
		if m >= KendallNaiveCutoff && m < n && !seen[m] {
			seen[m] = true
			cps = append(cps, m)
		}
	}
	for m := KendallNaiveCutoff; m < n; m *= 2 {
		add(m)
	}
	for num := 4; num < 8; num++ {
		add(n * num / 8)
	}
	slices.Sort(cps)
	return append(cps, n)
}

// densitySample draws n density-like pairs: occurrence counts over
// vicinity sizes, so values repeat (ties) as real screening densities
// do.
func densitySample(n int, seed uint64) (x, y []float64) {
	rng := rand.New(rand.NewPCG(seed, 900))
	x, y = make([]float64, n), make([]float64, n)
	for i := range n {
		size := float64(20 + rng.IntN(180))
		c := float64(rng.IntN(12))
		x[i] = c / size
		y[i] = float64(rng.IntN(12)+int(c)/2) / size
	}
	return x, y
}

// BenchmarkKendallCheckpointChain is one completing pair of the
// screening planner at n = 900 under the deterministic-only bound: τ
// at every checkpoint (64, 128, 256, 450, 512, 562, 675, 787) and at
// the full sample. "prefix" extends one
// KendallPrefix by each chunk; "scratch" runs Kendall over each whole
// prefix, the cost before the prefix existed.
func BenchmarkKendallCheckpointChain(b *testing.B) {
	const n = 900
	x, y := densitySample(n, 1)
	cps := plannerSchedule(n)
	b.Run("prefix", func(b *testing.B) {
		p := new(KendallPrefix)
		b.ReportAllocs()
		for b.Loop() {
			p.Reset()
			prev := 0
			for _, m := range cps {
				p.Extend(x[prev:m], y[prev:m])
				prev = m
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, m := range cps {
				Kendall(x[:m], y[:m])
			}
		}
	})
}

// BenchmarkSortKeyPairs times both sort kernels on density keys at the
// planner's chunk sizes; insertionSortMax sits where they cross.
func BenchmarkSortKeyPairs(b *testing.B) {
	for _, n := range []int{32, 64, 128, 192, 256} {
		x, y := densitySample(n, 2)
		src := make([]keyPair, n)
		for i := range src {
			src[i] = keyPair{FloatKey(x[i]), FloatKey(y[i])}
		}
		a, buf := make([]keyPair, n), make([]keyPair, n)
		b.Run(fmt.Sprintf("insertion/%d", n), func(b *testing.B) {
			for b.Loop() {
				copy(a, src)
				insertionSortKeyPairs(a)
			}
		})
		b.Run(fmt.Sprintf("radix/%d", n), func(b *testing.B) {
			for b.Loop() {
				copy(a, src)
				radixSortKeyPairs(a, buf)
			}
		})
	}
}

// BenchmarkSortWords times both word sorts on rank keys packed as
// kx<<32 | ky at the planner's chunk sizes; insertionSortWordsMax sits
// where they cross.
func BenchmarkSortWords(b *testing.B) {
	for _, n := range []int{32, 64, 96, 128, 192, 256} {
		x, y := densitySample(n, 2)
		rx, ry := denseRanks(x), denseRanks(y)
		src := make([]uint64, n)
		for i := range src {
			src[i] = rx[i]<<32 | ry[i]
		}
		a, buf := make([]uint64, n), make([]uint64, n)
		b.Run(fmt.Sprintf("insertion/%d", n), func(b *testing.B) {
			for b.Loop() {
				copy(a, src)
				insertionSortWords(a)
			}
		})
		b.Run(fmt.Sprintf("radix/%d", n), func(b *testing.B) {
			for b.Loop() {
				copy(a, src)
				radixSortWords(a, buf)
			}
		})
	}
}

// BenchmarkKendallRankKeys is one pair of an exhaustive sweep at n =
// 900: a whole-sample Kendall on float keys (Extend) against the same
// sample keyed by its dense ranks (ExtendKeys), which a warm shared
// memo serves. Both return the same TauResult.
func BenchmarkKendallRankKeys(b *testing.B) {
	const n = 900
	x, y := densitySample(n, 1)
	rx, ry := denseRanks(x), denseRanks(y)
	p := new(KendallPrefix)
	b.Run("float", func(b *testing.B) {
		for b.Loop() {
			p.Reset()
			p.Extend(x, y)
		}
	})
	b.Run("rank", func(b *testing.B) {
		for b.Loop() {
			p.Reset()
			p.ExtendKeys(rx, ry)
		}
	})
}
