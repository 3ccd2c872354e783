package stats

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
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

// chainPrefixes are the three prefixes checkPrefixChain extends.
type chainPrefixes struct{ float, ranked, recoded KendallPrefix }

// chainFates reports what a chain made its prefixes do.
type chainFates struct {
	renumbered       bool // a float chunk renumbered a nonempty prefix
	renumberedPeeled bool // ... a peeled one
	peeled           bool // a prefix peeled its first chunk
}

// checkPrefixChain feeds x, y to a KendallPrefix in the chunks cuts
// gives and requires every Extend to equal Kendall and KendallNaive on
// the concatenated prefix. Each chunk also goes through ExtendKeys on
// two other prefixes: one keyed by the values' dense ranks, and one by
// a random strictly monotone re-encoding of those ranks (rng) — keys
// below 2^32 where only a few bytes vary, at a random byte offset.
// Both must return exactly what Extend did. The prefixes are reset
// first, so scratch a longer earlier chain left must not leak in. It
// reports whether an Extend moved the rank of a value already in the
// prefix (a new value below an old one renumbers the prefix's words),
// whether one did so to a peeled prefix, and whether the float or the
// ranked prefix peeled a chunk (rank 0 is then zero: x and y hold no
// negative values).
func checkPrefixChain(t *testing.T, ps *chainPrefixes, x, y []float64, cuts []int, rng *rand.Rand) (fates chainFates) {
	t.Helper()
	rx, ry := denseRanks(x), denseRanks(y)
	ex, ey := monotoneRecode(rx, rng), monotoneRecode(ry, rng)
	p, ranked, recoded := &ps.float, &ps.ranked, &ps.recoded
	for _, q := range []*KendallPrefix{p, ranked, recoded} {
		q.Reset()
	}
	m := 0
	for _, c := range cuts {
		oldX, oldY, wasPeeled := slices.Clone(p.xDict.keys), slices.Clone(p.yDict.keys), p.peeled
		got := p.Extend(x[m:m+c], y[m:m+c])
		if m > 0 && (!slices.Equal(p.xDict.keys[:len(oldX)], oldX) || !slices.Equal(p.yDict.keys[:len(oldY)], oldY)) {
			fates.renumbered = true
			fates.renumberedPeeled = fates.renumberedPeeled || wasPeeled
		}
		byRank := ranked.ExtendKeys(rx[m:m+c], ry[m:m+c])
		byCode := recoded.ExtendKeys(ex[m:m+c], ey[m:m+c])
		fates.peeled = fates.peeled || p.peeled || ranked.peeled
		m += c
		if p.Len() != m || ranked.Len() != m || recoded.Len() != m {
			t.Fatalf("Len = %d, %d, %d after %d observations", p.Len(), ranked.Len(), recoded.Len(), m)
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
	}
	return fates
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

// monotoneRecode maps ranks through a random strictly increasing code
// below 2^32: a random base plus the running sum of random gaps
// (1..256) up to each rank, shifted left by as many random bits as the
// codes leave room for. Ranks below 400 then vary in at most three
// adjacent bytes of the code.
func monotoneRecode(ranks []uint64, rng *rand.Rand) []uint64 {
	top := uint64(0)
	for _, r := range ranks {
		top = max(top, r)
	}
	code := make([]uint64, top+1)
	for r := uint64(1); r <= top; r++ {
		code[r] = code[r-1] + 1 + rng.Uint64N(256)
	}
	shift := rng.UintN(uint(32-bits.Len64(code[top])) + 1)
	base := rng.Uint64N(1<<32 - code[top]<<shift) // base + code[top]<<shift < 2^32
	out := make([]uint64, len(ranks))
	for i, r := range ranks {
		out[i] = base + code[r]<<shift
	}
	return out
}

// tescPair decodes two bytes into a pair shaped like an exhaustive
// screen's densities: nonnegative, tie-heavy (tieValue's magnitudes),
// and zero in one coordinate unless a's low bits are 3. Zero is then
// rank 0, and at most a quarter of the pairs (fewer, since tieValue is
// often zero) is nonzero in both, so a first chunk of more than 96
// such pairs takes ExtendKeys' peel.
func tescPair(a, b byte) (x, y float64) {
	v := math.Abs(tieValue(b))
	switch a & 3 {
	case 0:
		return v, 0
	case 1, 2:
		return 0, v
	}
	return math.Abs(tieValue(a)), v
}

// tiePair decodes two bytes into two independent tieValues.
func tiePair(a, b byte) (x, y float64) { return tieValue(a), tieValue(b) }

// FuzzKendallPrefix pits the incremental prefix against from-scratch
// Kendall at every chunk boundary, on float values (renumbered as new
// values arrive) and on rank keys, peeled or not; then the whole sample
// goes through one-shot Kendall. data
// holds the observations (two bytes each, decoded once by tiePair and
// once by tescPair); each byte of cuts is one chunk size (0..159, empty
// chunks included), the rest of the sample is the last chunk.
func FuzzKendallPrefix(f *testing.F) {
	f.Add([]byte{0, 32, 1, 9, 9, 1, 200, 200, 64, 65}, []byte{2, 0, 1})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), []byte{7, 7, 1, 30})
	f.Add(make([]byte, 80), []byte{})
	f.Add([]byte(strings.Repeat("peel the zero ranks: 1/2 3/4 ", 12)), []byte{140, 0, 30})
	f.Fuzz(func(t *testing.T, data, cutBytes []byte) {
		n := min(len(data)/2, 300)
		var cuts []int
		m := 0
		for _, b := range cutBytes {
			c := min(int(b)%160, n-m)
			cuts = append(cuts, c)
			m += c
		}
		cuts = append(cuts, n-m)
		seed := uint64(len(data))<<32 | uint64(len(cutBytes))
		for _, b := range data {
			seed = seed*31 + uint64(b)
		}
		rng := rand.New(rand.NewPCG(seed, 21))
		ps := new(chainPrefixes)
		x, y := make([]float64, n), make([]float64, n)
		for _, decode := range []func(a, b byte) (float64, float64){tiePair, tescPair} {
			for i := range n {
				x[i], y[i] = decode(data[2*i], data[2*i+1])
			}
			checkPrefixChain(t, ps, x, y, cuts, rng)
			// The chain's prefix, its scratch grown by the chain, as a
			// whole-sample Kendall.
			if got, want := ps.float.Kendall(x, y), KendallNaive(x, y); got != want {
				t.Fatalf("one-shot Kendall %+v != KendallNaive %+v", got, want)
			}
		}
	})
}

// TestKendallPrefixChains runs the planner's checkpoint chains and
// random chunkings over tie-heavy samples on one reused set of
// prefixes, so scratch left by a longer earlier chain cannot leak into
// a later one. Every third sample is shaped like an exhaustive screen's
// (tescPair). Some float chains must renumber their prefix, at least
// one of them after a peeled first chunk, and some chains must peel.
func TestKendallPrefixChains(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 26))
	ps := new(chainPrefixes)
	renumbers, peeledRenumbers, peels := 0, 0, 0
	for trial := range 120 {
		n := 2 + rng.IntN(400)
		decode := tiePair
		if trial%3 == 2 {
			decode = tescPair
		}
		x, y := make([]float64, n), make([]float64, n)
		for i := range n {
			x[i], y[i] = decode(byte(rng.Uint32()), byte(rng.Uint32()))
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
		fates := checkPrefixChain(t, ps, x, y, cuts, rng)
		if fates.renumbered {
			renumbers++
		}
		if fates.renumberedPeeled {
			peeledRenumbers++
		}
		if fates.peeled {
			peels++
		}
	}
	if renumbers == 0 || peeledRenumbers == 0 || peels == 0 {
		t.Fatalf("%d chains renumbered their prefix, %d a peeled one, and %d peeled; want some of each",
			renumbers, peeledRenumbers, peels)
	}
}

// TestKendallPeel pins the peel guard's edges and its classes on
// hand-made rank keys, chunk by chunk against KendallNaive on the keys
// as floats: whether the first chunk peels, and that a peeled prefix
// extended by later chunks, one with a new largest key, stays Kendall
// of the whole.
func TestKendallPeel(t *testing.T) {
	// zeroHeavy is c observations, the i-th keyed (i%7+1, 0), (0, i%5+1)
	// or (0, 0) by i%3 (the last a tie in both), with the first b moved
	// to keys nonzero in both.
	zeroHeavy := func(c, b int) (kx, ky []uint64) {
		kx, ky = make([]uint64, c), make([]uint64, c)
		for i := range c {
			switch i % 3 {
			case 0:
				kx[i] = uint64(i%7 + 1)
			case 1:
				ky[i] = uint64(i%5 + 1)
			}
			if i < b {
				kx[i], ky[i] = uint64(i%4+1), uint64(i%7+1)
			}
		}
		return kx, ky
	}
	type peelCase struct {
		name   string
		kx, ky []uint64
		cuts   []int
		peels  bool // the first nonempty chunk
	}
	const c = 120
	var cases []peelCase
	add := func(name string, kx, ky []uint64, cuts []int, peels bool) {
		cases = append(cases, peelCase{name, kx, ky, cuts, peels})
	}
	{
		kx, ky := zeroHeavy(c, 0)
		add("empty B", kx, ky, []int{c}, true)
	}
	{
		kx, ky := zeroHeavy(c, 1)
		add("one B", kx, ky, []int{c}, true)
	}
	{
		kx, ky := zeroHeavy(c, c/2)
		add("B at the share guard", kx, ky, []int{c}, true)
	}
	{
		kx, ky := zeroHeavy(c, c/2+1)
		add("B past the share guard", kx, ky, []int{c}, false)
	}
	{
		kx, ky := make([]uint64, c), make([]uint64, c)
		add("all zero in both", kx, ky, []int{c}, true)
	}
	for _, size := range []int{insertionSortWordsMax, insertionSortWordsMax + 1} {
		// A chunk the insertion sort takes is sorted.
		kx, ky := zeroHeavy(size, 0)
		add(fmt.Sprintf("chunk of %d", size), kx, ky, []int{size}, size > insertionSortWordsMax)
	}
	for _, extra := range []uint64{0, 1} {
		// The last observation carries the largest keys: max kx + max ky
		// just below peelSpan·c peels, at it does not.
		kx, ky := zeroHeavy(c, 3)
		kx[c-1], ky[c-1] = peelSpan*c/2, peelSpan*c/2-1+extra
		add(fmt.Sprintf("span %d", kx[c-1]+ky[c-1]), kx, ky, []int{c}, extra == 0)
	}
	{
		kx, ky := zeroHeavy(3*c, 2)
		add("peeled, then narrow chunks", kx, ky, []int{c, 0, c / 2, c / 2, c}, true)
	}
	{
		kx, ky := zeroHeavy(2*c, 5)
		kx[c+3] = 1<<32 - 1
		add("peeled, then a new largest key", kx, ky, []int{c, c}, true)
	}
	{
		kx, ky := zeroHeavy(2*c, 0)
		add("an empty chunk first", kx, ky, []int{0, c, c}, true)
	}
	for _, tc := range cases {
		var p KendallPrefix
		x, y := make([]float64, len(tc.kx)), make([]float64, len(tc.ky))
		for i := range x {
			x[i], y[i] = float64(tc.kx[i]), float64(tc.ky[i])
		}
		m := 0
		for j, c := range tc.cuts {
			got := p.ExtendKeys(tc.kx[m:m+c], tc.ky[m:m+c])
			if m == 0 && c > 0 && p.peeled != tc.peels {
				t.Errorf("%s: first chunk peeled = %v, want %v", tc.name, p.peeled, tc.peels)
			}
			if m > 0 && p.peeled {
				t.Errorf("%s: chunk %d peeled a non-empty prefix", tc.name, j)
			}
			m += c
			if want := KendallNaive(x[:m], y[:m]); got != want {
				t.Fatalf("%s: prefix %d: ExtendKeys %+v != KendallNaive %+v", tc.name, m, got, want)
			}
		}
	}
}

// TestExtendKeysWidePanics pins ExtendKeys' panic on a key of 2^32 or
// more, in x or in y, on both of its narrowness checks: the peel
// guard's on a first chunk longer than the insertion sort's, and the
// plain one on a short first chunk and on a later chunk.
func TestExtendKeysWidePanics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		first, c int // the first chunk's length, the wide chunk's
		wideX    bool
	}{
		{"long first chunk, x", 0, insertionSortWordsMax + 1, true},
		{"long first chunk, y", 0, insertionSortWordsMax + 1, false},
		{"short first chunk, x", 0, 10, true},
		{"later chunk, y", 20, insertionSortWordsMax + 1, false},
	} {
		var p KendallPrefix
		p.ExtendKeys(make([]uint64, tc.first), make([]uint64, tc.first))
		kx, ky := make([]uint64, tc.c), make([]uint64, tc.c)
		if tc.wideX {
			kx[tc.c/2] = 1 << 32
		} else {
			ky[tc.c/2] = 1 << 32
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ExtendKeys took a key of 2^32 without a panic", tc.name)
				}
			}()
			p.ExtendKeys(kx, ky)
		}()
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
		if m >= 64 && m < n && !seen[m] {
			seen[m] = true
			cps = append(cps, m)
		}
	}
	for m := 64; m < n; m *= 2 {
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
// prefix, the cost before the prefix existed. Both run densitySample,
// whose sides hold about 0.65n distinct values each; "prefix-read" is
// "prefix" on churn-rw's read shape (readSample, 149 × 153 distinct
// values), whose values repeat as real densities do.
func BenchmarkKendallCheckpointChain(b *testing.B) {
	const n = 900
	x, y := densitySample(n, 1)
	rx, ry, _ := readSample(n, 24, 0.15, 1)
	cps := plannerSchedule(n)
	chain := func(x, y []float64) func(b *testing.B) {
		return func(b *testing.B) {
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
		}
	}
	b.Run("prefix", chain(x, y))
	b.Run("prefix-read", chain(rx, ry))
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, m := range cps {
				Kendall(x[:m], y[:m])
			}
		}
	})
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

// tescSample draws n density pairs shaped like an exhaustive screen's:
// a reference node is drawn near a or b, so it is positive for one of
// the two events (x for 55% of them) and zero for the other, except a
// share both of nodes positive for both.
func tescSample(n int, both float64, seed uint64) (x, y []float64) {
	rng := rand.New(rand.NewPCG(seed, 37))
	x, y = make([]float64, n), make([]float64, n)
	density := func() float64 { return float64(1+rng.IntN(11)) / float64(20+rng.IntN(180)) }
	for i := range n {
		switch u := rng.Float64(); {
		case u < both:
			x[i], y[i] = density(), density()
		case u < both+(1-both)*0.55:
			x[i] = density()
		default:
			y[i] = density()
		}
	}
	return x, y
}

// BenchmarkKendallRankKeys is a whole-sample Kendall at n = 900 on
// floats (Extend, which ranks them first) against the same sample keyed
// by its dense ranks (ExtendKeys), which a warm shared memo serves;
// both return the same TauResult. "float" and "rank" run densitySample, which is zero-light
// (about 8% of x and almost no y is zero), so its rank keys are sorted:
// the cost of ExtendKeys' peel guard on a sample it rejects. "tesc"
// runs tescSample with 1% of the nodes positive for both events, the
// shape of one pair of an exhaustive sweep, which ExtendKeys peels.
func BenchmarkKendallRankKeys(b *testing.B) {
	const n = 900
	x, y := densitySample(n, 1)
	rx, ry := denseRanks(x), denseRanks(y)
	tx, ty := tescSample(n, 0.01, 1)
	sx, sy := denseRanks(tx), denseRanks(ty)
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
	b.Run("tesc", func(b *testing.B) {
		for b.Loop() {
			p.Reset()
			p.ExtendKeys(sx, sy)
		}
	})
}
