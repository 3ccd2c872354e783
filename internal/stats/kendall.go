// Package stats implements the rank-correlation statistics underlying the
// TESC test: Kendall's τ (naive quadratic and O(n log n) variants, plus a
// weighted variant for the importance-sampling estimator of Eq. 8), the
// tie-corrected null variance of the τ numerator (paper Eq. 5/6), normal
// tail probabilities, Kendall's τ_b for the Transaction Correlation
// baseline, and Spearman's ρ as the alternative rank statistic §8
// mentions.
//
// Everything here is pure computation over float slices; no graph types
// leak in. Every entry reads only the order and the ties of its values,
// so each may key them as it likes: every sample is counted on dense
// ranks, one word per observation. Densities are ratios of small
// integers with few distinct values, so a whole sample (Kendall,
// WeightedTau) is hashed to its ranks and counted from their
// contingency table or sorted as words. The screening planner's
// growing prefixes rank their float chunks against the distinct values
// seen so far (KendallPrefix.Extend) or take the shared memo's ranks
// (KendallPrefix.ExtendKeys); a first chunk mostly zero in one of the
// two is counted from histograms instead of sorted.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// TauResult carries every quantity of a Kendall rank-correlation test
// between two paired samples x and y of common length n.
type TauResult struct {
	N          int     // number of paired observations
	Concordant int64   // # pairs (i<j) with (xi-xj)(yi-yj) > 0
	Discordant int64   // # pairs with (xi-xj)(yi-yj) < 0
	TiesX      int64   // # pairs tied in x only
	TiesY      int64   // # pairs tied in y only
	TiesBoth   int64   // # pairs tied in both x and y
	Tau        float64 // (C-D) / (n(n-1)/2), the paper's Eq. 3/4 normalization
	VarNum     float64 // Var(C-D) under H0, tie-corrected (Eq. 6)
	Z          float64 // (C-D)/sqrt(VarNum) (Eq. 7)
}

// Numerator returns C − D, the numerator of Eq. 4.
func (r TauResult) Numerator() int64 { return r.Concordant - r.Discordant }

// TotalPairs returns n(n−1)/2.
func (r TauResult) TotalPairs() int64 { return int64(r.N) * int64(r.N-1) / 2 }

// String summarizes the result.
func (r TauResult) String() string {
	return fmt.Sprintf("tau=%.4f z=%.2f (n=%d, C=%d, D=%d)",
		r.Tau, r.Z, r.N, r.Concordant, r.Discordant)
}

// KendallNaive computes the Kendall τ test by enumerating all pairs in
// O(n²). It is the differential-testing oracle for Kendall and the
// reference implementation of Definition 4's concordance function
// aggregated by Eq. 3: concordance +1, discordance −1, ties 0.
func KendallNaive(x, y []float64) TauResult {
	n := mustSameLen(x, y)
	var r TauResult
	r.N = n
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := x[i] - x[j]
			dy := y[i] - y[j]
			switch {
			case dx == 0 && dy == 0:
				r.TiesBoth++
			case dx == 0:
				r.TiesX++
			case dy == 0:
				r.TiesY++
			case dx*dy > 0:
				r.Concordant++
			default:
				r.Discordant++
			}
		}
	}
	finishTau(&r, TieSizes(x), TieSizes(y))
	return r
}

// FloatKey maps a float64 to a uint64 whose unsigned order equals the
// float order, with -0 normalized to +0 so key equality coincides with
// float equality. NaNs map to the extremes of the key space; like the
// rest of the package, Kendall's output on NaN inputs is unspecified.
func FloatKey(f float64) uint64 {
	if f == 0 {
		f = 0 // collapse -0 onto +0: they compare equal as floats
	}
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// Kendall computes the same TauResult as KendallNaive in O(n log n):
// KendallPrefix.Kendall on a pooled prefix.
func Kendall(x, y []float64) TauResult {
	p := prefixPool.Get().(*KendallPrefix)
	defer prefixPool.Put(p)
	return p.Kendall(x, y)
}

// KendallPrefix is Kendall's τ over a paired sample that grows in
// chunks — the screening planner's checkpoints, where a pair's density
// prefix is tested at m = 64, 128, 256, ... of its n references. It
// keeps the prefix's observations sorted by (x, y), so a chunk is sorted
// alone and merged in, instead of re-sorting everything seen at every
// checkpoint; Knight's tie scans and inversion count then run on the
// merged array. An observation is one word, kx<<32 | ky, whose unsigned
// order is the (x, y) order: its keys are ranks, the shared memo's
// (ExtendKeys) or, for float chunks (Extend), the dense ranks among the
// values seen since Reset, which each side's dictionary keeps. A first
// chunk that is mostly zeros in one of the two keys is counted by peel
// instead of sorted; its words are sorted only when a later chunk
// extends it. The zero value is an empty prefix; its scratch is
// retained across Reset, so one prefix per worker allocates only while
// it grows. Not safe for concurrent use.
type KendallPrefix struct {
	words, wbuf    []uint64  // the prefix sorted (unless peeled); merge/radix scratch
	peeled         bool      // words is one peeled chunk, in input order
	kx, ky         []uint64  // a chunk's or a whole sample's ranks
	xDict, yDict   rankDict  // each side's values since Reset (Extend's ranks)
	ks, kbuf       []uint64  // ky in prefix order; inversion-merge scratch; WeightedTau's orders
	xSizes, ySizes []int64   // tie-group runs (appended; capacity retained)
	hist           []int64   // peel's four histograms; table's cells; WeightedTau's group starts
	fen            []float64 // WeightedTau's Fenwick tree
}

var prefixPool = sync.Pool{New: func() any { return new(KendallPrefix) }}

// Reset empties the prefix, keeping its scratch.
func (p *KendallPrefix) Reset() {
	p.words, p.peeled = p.words[:0], false
	p.xDict.reset()
	p.yDict.reset()
}

// Len returns the number of observations in the prefix.
func (p *KendallPrefix) Len() int { return len(p.words) }

// Extend appends the paired observations (x[i], y[i]) to the prefix and
// returns the TauResult of the whole prefix — exactly Kendall (and
// KendallNaive) of the concatenation of every chunk since Reset: the
// sorted order, and with it every count and tie-group size, does not
// depend on how the sample was chunked. It keys the chunk by each
// side's dense ranks among the values since Reset and calls ExtendKeys;
// a chunk's new value below an earlier one renumbers the prefix through
// the monotone old-to-new rank map, which keeps sorted words sorted. A
// prefix is extended by Extend or by ExtendKeys since Reset, not both.
func (p *KendallPrefix) Extend(x, y []float64) TauResult {
	c := mustSameLen(x, y)
	p.kx, p.ky = grow(p.kx, c), grow(p.ky, c)
	if mx, my := p.xDict.add(x, p.kx), p.yDict.add(y, p.ky); mx != nil || my != nil {
		renumber(p.words, mx, my)
	}
	return p.ExtendKeys(p.kx, p.ky)
}

// ExtendKeys is Extend over observations given as order keys below
// 2^32: any encoding whose unsigned order and equality coincide with
// the values' — such as each value's dense rank among the sample's
// values — yields the TauResult of the values themselves, because
// Knight's algorithm reads only their order and ties. It panics on a
// key of 2^32 or more. It is the sorting kernel's one entry point. The
// radix sort skips byte positions that are equal in every word of a
// chunk, so ranks below 2^16 sort in four passes.
//
// The first chunk of an empty prefix is not sorted at all when it is
// longer than the insertion sort's, its keys are small (max kx + max ky
// below peelSpan·c) and at most a 1/peelBothDiv share of its
// observations is nonzero in both keys: one pair of an exhaustive
// screen, whose reference nodes lie near one event and mostly far from
// the other, so that most densities rank 0 for one of the two. peel
// counts such a chunk from histograms instead.
func (p *KendallPrefix) ExtendKeys(kx, ky []uint64) TauResult {
	c := len(kx)
	if len(ky) != c {
		panic(fmt.Sprintf("stats: paired keys of different lengths %d and %d", c, len(ky)))
	}
	if p.peeled {
		p.wbuf = grow(p.wbuf, len(p.words))
		sortWords(p.words, p.wbuf)
		p.peeled = false
	}
	if len(p.words) == 0 && c > insertionSortWordsMax {
		if peel, nx, ny := peelGuard(kx, ky); peel {
			return p.peel(kx, ky, nx, ny)
		}
	} else {
		var or uint64
		for i := range kx {
			or |= kx[i] | ky[i]
		}
		mustNarrow(or)
	}
	p.extendWords(kx, ky)
	return p.knight()
}

// mustNarrow panics unless k, the OR or the largest of a chunk's keys,
// is below 2^32.
func mustNarrow(k uint64) {
	if k>>32 != 0 {
		panic("stats: an ExtendKeys key is not below 2^32")
	}
}

// knight runs Knight's scans over the sorted prefix: pair ties and the
// x tie groups from run lengths, discordant pairs as y-inversions, and
// the y tie groups from the inversion count's sorted output.
func (p *KendallPrefix) knight() TauResult {
	n := p.Len()
	if n < 2 {
		r := TauResult{N: n}
		finishTau(&r, nil, nil)
		return r
	}

	// Pair-tie counts and x tie-group sizes from run lengths in the
	// sorted order (rank equality == float equality).
	p.ks = grow(p.ks, n)
	tiesXpairs, tiesBothPairs := p.scanWords(p.words) // pairs tied in x (incl. both), both
	kys := p.ks

	// countInversions merge-sorts kys in place as a side effect, so the
	// y tie-group scan below reads the sorted vector for free — no
	// separate O(n log n) pass over y. Inversion and tie structure are
	// identical on ranks and floats.
	p.kbuf = grow(p.kbuf, n)
	swaps := countInversionsBuf(kys, p.kbuf)

	var tiesYpairs int64 // pairs tied in y (incl. both)
	ySizes := p.ySizes[:0]
	runY := int64(1)
	for i := 1; i < n; i++ {
		if kys[i] == kys[i-1] {
			runY++
		} else {
			tiesYpairs += pairs(runY)
			ySizes = append(ySizes, runY)
			runY = 1
		}
	}
	tiesYpairs += pairs(runY)
	// Retain the grown tie-run capacity (append may have reallocated
	// past it).
	p.ySizes = append(ySizes, runY)

	// Discordant pairs are exactly the y-inversions among pairs not tied
	// in x (within an x-run, ys is ascending, contributing no inversions).
	return p.result(n, swaps, tiesXpairs, tiesYpairs, tiesBothPairs)
}

// result assembles the TauResult of n observations from Knight's counts
// — discordant pairs, pairs tied in x and in y (each including those
// tied in both) and pairs tied in both — and the tie groups in
// p.xSizes and p.ySizes. NumeratorVariance reads the groups
// synchronously; nothing aliases them after return.
func (p *KendallPrefix) result(n int, discordant, tiesXpairs, tiesYpairs, tiesBothPairs int64) TauResult {
	r := TauResult{N: n, Discordant: discordant, TiesBoth: tiesBothPairs}
	r.TiesX = tiesXpairs - tiesBothPairs
	r.TiesY = tiesYpairs - tiesBothPairs
	r.Concordant = pairs(int64(n)) - r.TiesX - r.TiesY - r.TiesBoth - r.Discordant
	finishTau(&r, p.xSizes, p.ySizes)
	return r
}

// pairs is c choose 2.
func pairs(c int64) int64 { return c * (c - 1) / 2 }

// KendallAuto is Kendall, under the name existing callers use.
func KendallAuto(x, y []float64) TauResult { return Kendall(x, y) }

// finishTau fills Tau, VarNum and Z from the pair counts and tie-group
// sizes.
func finishTau(r *TauResult, tiesX, tiesY []int64) {
	n0 := r.TotalPairs()
	if n0 > 0 {
		r.Tau = float64(r.Numerator()) / float64(n0)
	}
	r.VarNum = NumeratorVariance(r.N, tiesX, tiesY)
	r.Z = ZFromNumerator(float64(r.Numerator()), r.VarNum)
}

// grow returns s resliced to length n, reallocated (contents dropped)
// when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// countInversionsBuf counts pairs i<j with ys[i] > ys[j] via bottom-up
// merge sort over caller-supplied scratch (len(buf) >= len(ys)),
// destroying ys.
func countInversionsBuf[T cmp.Ordered](ys, buf []T) int64 {
	n := len(ys)
	var inv int64
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n-width; lo += 2 * width {
			mid := lo + width
			hi := mid + width
			if hi > n {
				hi = n
			}
			if ys[mid-1] <= ys[mid] {
				continue // blocks already ordered: zero inversions here
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if ys[i] <= ys[j] {
					buf[k] = ys[i]
					i++
				} else {
					buf[k] = ys[j]
					j++
					inv += int64(mid - i)
				}
				k++
			}
			copy(buf[k:], ys[i:mid])
			copy(buf[k+mid-i:], ys[j:hi])
			copy(ys[lo:hi], buf[lo:hi])
		}
	}
	return inv
}

// TieSizes returns the sizes of the tie groups of v (groups of equal
// values), including singleton groups. These are the u_i / v_i of Eq. 6.
func TieSizes(v []float64) []int64 {
	if len(v) == 0 {
		return nil
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	var sizes []int64
	run := int64(1)
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			run++
		} else {
			sizes = append(sizes, run)
			run = 1
		}
	}
	return append(sizes, run)
}

func mustSameLen(x, y []float64) int {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: paired samples of different lengths %d and %d", len(x), len(y)))
	}
	return len(x)
}

// extendWords sorts the 32-bit keys (kx, ky) in as words.
func (p *KendallPrefix) extendWords(kx, ky []uint64) {
	c := len(kx)
	m := len(p.words)
	n := m + c
	p.words = slices.Grow(p.words, c)[:n]
	p.wbuf = grow(p.wbuf, n)
	chunk := p.words[m:]
	for i := range chunk {
		chunk[i] = kx[i]<<32 | ky[i]
	}
	sortWords(chunk, p.wbuf[:c])
	if m > 0 && c > 0 && chunk[0] < p.words[m-1] {
		mergeWords(p.wbuf[:n], p.words[:m], chunk)
		p.words, p.wbuf = p.wbuf[:n], p.words
	}
}

// scanWords is knight's run-length scan over sorted words (the prefix,
// or peel's observations nonzero in both keys): it fills p.ks and
// p.xSizes and returns the pairs tied in x (including both) and in
// both. Equal high halves are an x tie, equal words a tie in both.
func (p *KendallPrefix) scanWords(words []uint64) (tiesXpairs, tiesBothPairs int64) {
	kys := p.ks
	xSizes := p.xSizes[:0]
	runX, runXY := int64(1), int64(1)
	kys[0] = words[0] & (1<<32 - 1)
	for i := 1; i < len(words); i++ {
		w, prev := words[i], words[i-1]
		kys[i] = w & (1<<32 - 1)
		if w>>32 == prev>>32 {
			runX++
			if w == prev {
				runXY++
			} else {
				tiesBothPairs += pairs(runXY)
				runXY = 1
			}
		} else {
			tiesXpairs += pairs(runX)
			tiesBothPairs += pairs(runXY)
			xSizes = append(xSizes, runX)
			runX, runXY = 1, 1
		}
	}
	p.xSizes = append(xSizes, runX)
	return tiesXpairs + pairs(runX), tiesBothPairs + pairs(runXY)
}

// mergeWords merges the sorted runs a and b into dst (len(dst) ==
// len(a)+len(b), aliasing neither).
func mergeWords(dst, a, b []uint64) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || (i < len(a) && b[j] >= a[i]) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}

// insertionSortWordsMax is the input size up to which sortWords uses
// insertion sort: a radix sort's fixed cost (a histogram of 256
// counters per varying byte) dominates small inputs. The planner's
// default schedule cuts a sample of 900 into chunks of 64, 64, 128 and
// 644 observations; the deterministic bound's eighths add chunks of
// 50–200. On rank words (BenchmarkSortWords), whose radix sort makes
// four passes, insertion sort takes ~0.7 µs at 64 against ~1.4 µs, and
// they cross near 112.
const insertionSortWordsMax = 96

// sortWords sorts words ascending, using buf (len(buf) >= len(a)) as
// scratch.
func sortWords(a, buf []uint64) {
	if len(a) <= insertionSortWordsMax {
		insertionSortWords(a)
	} else {
		radixSortWords(a, buf)
	}
}

func insertionSortWords(a []uint64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i
		for ; j > 0 && v < a[j-1]; j-- {
			a[j] = a[j-1]
		}
		a[j] = v
	}
}

// radixSortWords is an LSD radix sort of words: a histogram and a pass
// only for the byte positions where some two words differ — four for
// rank keys below 2^16. Each pass is a counting sort — no comparisons,
// no data-dependent branches, which is what beats comparison sorts on
// density ranks: their heavy ties make every comparison branch a coin
// flip. All the histograms are filled in one counting sweep.
func radixSortWords(a, buf []uint64) {
	orK, andK := uint64(0), ^uint64(0)
	for _, w := range a {
		orK |= w
		andK &= w
	}
	var shifts [8]uint
	np := 0
	for s := uint(0); s < 64; s += 8 {
		if byte((orK^andK)>>s) != 0 {
			shifts[np] = s
			np++
		}
	}
	var hist [8][256]int32
	for _, w := range a {
		for j := range np {
			hist[j][byte(w>>shifts[j])]++
		}
	}
	src, dst := a, buf
	for j := range np {
		h, shift := &hist[j], shifts[j]
		sum := int32(0)
		for b := range h {
			h[b], sum = sum, sum+h[b]
		}
		for _, w := range src {
			b := byte(w >> shift)
			dst[h[b]] = w
			h[b]++
		}
		src, dst = dst, src
	}
	if np%2 == 1 {
		copy(a, src)
	}
}

// peelBothDiv and peelSpan guard ExtendKeys' peel: at most c/peelBothDiv
// of a chunk's c observations may be nonzero in both keys, and
// max kx + max ky, which sizes the histograms, must stay below
// peelSpan·c. On 900 rank keys (BenchmarkKendallRankKeys' samples, and
// copies with the ranks stretched) peeling took half the word sort's
// time at 50% nonzero in both, was even at 70% and 30% slower at 90%
// (the zero-light "rank" row); with none nonzero in both it still won
// at a span of 6n.
const (
	peelBothDiv = 2
	peelSpan    = 4
)

// peelGuard is peel's guard on the first chunk of an empty prefix,
// folded into one pass with ExtendKeys' narrowness check (it panics on
// a key of 2^32 or more): it reports whether the chunk peels and the
// lengths of its x and y histograms. Later chunks, which never peel,
// take the plain check.
func peelGuard(kx, ky []uint64) (peel bool, nx, ny int) {
	var mx, my uint64
	zeros := 0
	for i := range kx {
		x, y := kx[i], ky[i]
		mx, my = max(mx, x), max(my, y)
		zeros += int(((x - 1) | (y - 1)) >> 63) // x-1 wraps past 2^63 only at 0
	}
	mustNarrow(mx | my)
	c := len(kx)
	return (c-zeros)*peelBothDiv <= c && mx+my < uint64(peelSpan*c), int(mx) + 1, int(my) + 1
}

// peel is Knight's counts of a first chunk of keys (kx below nx,
// ky below ny) without sorting it. Its observations fall into four
// classes: zero in both keys (Z), in x only (X0), in y only (Y0), and
// in neither (B). Every Z×B pair is concordant and every X0×Y0 pair
// discordant; a pair within Z ties in both, a pair within X0 ties in
// both exactly when the y keys are equal (and likewise within Y0); an
// X0×B pair is discordant when X0's y is larger and a Y0×B pair when
// Y0's x is. The x and y histograms give every tie count and the tie
// groups in ascending key order, as Knight's scans would; X0's y and
// Y0's x histograms, summed from the top, give the X0×B and Y0×B
// discordances. Only B goes through the word sort, its tie scan and
// the inversion count. The chunk's words stay in p.words, unsorted.
func (p *KendallPrefix) peel(kx, ky []uint64, nx, ny int) TauResult {
	n := len(kx)
	p.words = grow(p.words, n)
	p.wbuf = grow(p.wbuf, n)
	p.hist = grow(p.hist, 2*(nx+ny))
	clear(p.hist)
	hx, hy := p.hist[:nx], p.hist[nx:nx+ny]
	y0x, x0y := p.hist[nx+ny:2*nx+ny], p.hist[2*nx+ny:] // Z counts at index 0 of both
	both := p.wbuf[:0]
	for i := range kx {
		x, y := kx[i], ky[i]
		w := x<<32 | y
		p.words[i] = w
		hx[x]++
		hy[y]++
		var zx, zy int64
		if x == 0 {
			zx = 1
		}
		if y == 0 {
			zy = 1
		}
		x0y[y] += zx
		y0x[x] += zy
		if zx|zy == 0 {
			both = append(both, w)
		}
	}
	z := x0y[0]
	discordant := (hx[0] - z) * (hy[0] - z) // X0×Y0
	tiesBothPairs := pairs(z)
	// X0×B: the B observations at y (the y histogram less X0's) against
	// the X0 observations above y; within X0, equal y ties in both.
	var above int64
	for y := ny - 1; y > 0; y-- {
		discordant += (hy[y] - x0y[y]) * above
		above += x0y[y]
		tiesBothPairs += pairs(x0y[y])
	}
	above = 0
	for x := nx - 1; x > 0; x-- {
		discordant += (hx[x] - y0x[x]) * above
		above += y0x[x]
		tiesBothPairs += pairs(y0x[x])
	}
	if len(both) > 1 {
		p.ks, p.kbuf = grow(p.ks, len(both)), grow(p.kbuf, len(both))
		sortWords(both, p.kbuf)
		_, bothTies := p.scanWords(both)
		tiesBothPairs += bothTies
		discordant += countInversionsBuf(p.ks, p.kbuf)
	}
	tiesXpairs, tiesYpairs := histSizes(hx, &p.xSizes), histSizes(hy, &p.ySizes)
	p.peeled = true
	return p.result(n, discordant, tiesXpairs, tiesYpairs, tiesBothPairs)
}

// histSizes sets *sizes to the nonzero counts of h, the tie groups in
// ascending key order, and returns the pairs they tie.
func histSizes(h []int64, sizes *[]int64) (tiePairs int64) {
	s := grow(*sizes, len(h))
	k := 0
	for _, c := range h {
		s[k] = c
		k += int((uint64(c) | -uint64(c)) >> 63) // branch-free c != 0
		tiePairs += c * (c - 1)
	}
	*sizes = s[:k]
	return tiePairs / 2
}

// The dense-rank front end: each side's dictionary of distinct values,
// and Kendall and WeightedTau over a whole sample.

// Kendall returns the TauResult of (x, y) as one whole sample: that of
// Extend on an empty prefix, which it leaves empty. It ranks each
// side's values densely and counts the ranks' contingency table when it
// has at most tableCells cells per observation (table); otherwise
// Knight's algorithm runs on the ranks through ExtendKeys: sort by
// (x, y), count pairwise ties from run lengths and discordant pairs as
// y-inversions via merge sort, and read the tie groups Eq. 6 needs off
// the same sorted orders, in the ascending order TieSizes gives, so the
// variance sums are bit-identical.
func (p *KendallPrefix) Kendall(x, y []float64) TauResult {
	dx, dy := p.rankSample(x, y)
	var r TauResult
	if dx*dy <= tableCells*len(x) {
		r = p.table(dx, dy)
	} else {
		r = p.ExtendKeys(p.kx, p.ky)
	}
	p.Reset()
	return r
}

// tableCells routes Kendall. The contingency table costs about 3 ns a
// cell against the word path's 50–60 ns an observation, at n = 323 as
// at 900 (BenchmarkKendallDensities' generator): the two cross between
// 12 and 16 cells per observation.
const tableCells = 12

// rankSample empties the prefix, sets p.kx and p.ky to the dense ranks
// of x and y, and returns how many values of each are distinct. A whole
// sample needs only the ranks, so one dictionary serves both sides in
// turn, and one table stays in cache.
func (p *KendallPrefix) rankSample(x, y []float64) (dx, dy int) {
	n := mustSameLen(x, y)
	p.Reset()
	p.kx, p.ky = grow(p.kx, n), grow(p.ky, n)
	p.xDict.add(x, p.kx)
	dx = len(p.xDict.keys)
	p.xDict.reset()
	p.xDict.add(y, p.ky)
	return dx, len(p.xDict.keys)
}

// rankDict is one side's dictionary: the distinct FloatKeys of the
// values a prefix has seen since Reset, sorted, so that a key's
// position is its dense rank (the number of distinct values below it,
// −0 tying +0), and an open-addressing table from each key to its rank.
// The table is linearly probed and holds at least twice as many slots
// as there may be keys; a slot counts only under the table's current
// stamp, so the table is never cleared, only restamped when it grows
// (reset shrinks it to nothing).
// Only the distinct keys are sorted, by pdqsort: on 150 float keys it
// took a quarter of sortWords' time, whose radix passes and histograms
// suit many keys with few varying bytes.
type rankDict struct {
	keys, fresh []uint64   // the sorted distinct keys; a chunk's new keys
	buf         []uint64   // merge scratch
	remap       []uint32   // old rank → new rank
	slots       []rankSlot // the table is slots[:1<<width]
	width       int        // 0 after reset
	gen         uint32     // the table's stamp
}

// rankSlot is one slot of a rankDict's table: a distinct key, the stamp
// of the table that stored it, and the key's rank.
type rankSlot struct {
	key       uint64
	gen, rank uint32
}

// rankHashMul is Fibonacci hashing's multiplier, 2^64 over the golden
// ratio: a key's product keeps its high bits as the slot.
const rankHashMul = 0x9e3779b97f4a7c15

// reset empties the dictionary, keeping its scratch.
func (d *rankDict) reset() { d.keys, d.width = d.keys[:0], 0 }

// probe returns the slot of key k in the table slots (of 2^(64-shift)
// slots, stamped gen), or the empty slot where k would go.
func probe(slots []rankSlot, gen uint32, shift uint, k uint64) int {
	h := int(k * rankHashMul >> shift)
	for slots[h].gen == gen && slots[h].key != k {
		h = (h + 1) & (len(slots) - 1)
	}
	return h
}

// add merges the FloatKeys of v into the dictionary and sets ranks[i] to
// v[i]'s dense rank in it. When a new key lands below an old one, it
// returns the map from the old keys' ranks to their new ones, which is
// strictly increasing; otherwise nil.
func (d *rankDict) add(v []float64, ranks []uint64) (remap []uint32) {
	width := bits.Len(uint(2*max(len(d.keys)+len(v), 1) - 1))
	grown := width > d.width
	if grown { // restamp the table, then put the old keys back
		d.width = width
		if len(d.slots) < 1<<width {
			d.slots = make([]rankSlot, 1<<width)
		}
		if d.gen++; d.gen == 0 { // the stamp wrapped: forget every stored slot
			clear(d.slots)
			d.gen = 1
		}
	}
	slots, gen, shift := d.slots[:1<<d.width], d.gen, uint(64-d.width)
	if grown {
		for r, k := range d.keys {
			slots[probe(slots, gen, shift, k)] = rankSlot{key: k, gen: gen, rank: uint32(r)}
		}
	}
	fresh := d.fresh[:0]
	for i, f := range v {
		k := FloatKey(f)
		h := probe(slots, gen, shift, k)
		if slots[h].gen != gen {
			slots[h] = rankSlot{key: k, gen: gen}
			fresh = append(fresh, k)
		}
		ranks[i] = uint64(h)
	}
	d.fresh = fresh
	if len(fresh) > 0 {
		var from int // the first rank a new key takes or moves
		from, remap = d.merge()
		for r := from; r < len(d.keys); r++ {
			slots[probe(slots, gen, shift, d.keys[r])].rank = uint32(r)
		}
	}
	for i, h := range ranks[:len(v)] {
		ranks[i] = uint64(slots[h].rank)
	}
	return remap
}

// merge sorts d.fresh, the new keys, into d.keys and returns the first
// rank that a new key took or an old key left. When an old key moved,
// it also returns the map from the old keys' ranks to their new ones.
func (d *rankDict) merge() (from int, remap []uint32) {
	old, fresh := d.keys, d.fresh
	m := len(old)
	slices.Sort(fresh)
	if m == 0 || fresh[0] > old[m-1] {
		d.keys = append(old, fresh...)
		return m, nil
	}
	from, _ = slices.BinarySearch(old, fresh[0])
	remap = grow(d.remap, m)
	for r := range from {
		remap[r] = uint32(r)
	}
	n := m + len(fresh)
	merged := grow(d.buf, n)
	copy(merged, old[:from])
	i, j := from, 0
	for k := from; k < n; k++ {
		if j == len(fresh) || (i < m && old[i] < fresh[j]) {
			merged[k], remap[i] = old[i], uint32(k)
			i++
		} else {
			merged[k] = fresh[j]
			j++
		}
	}
	d.keys, d.buf, d.remap = merged, old, remap
	return from, remap
}

// renumber maps the words' x and y ranks through mx and my (nil: the
// identity). Both maps are strictly increasing, so sorted words stay
// sorted.
func renumber(words []uint64, mx, my []uint32) {
	for i, w := range words {
		x, y := w>>32, w&(1<<32-1)
		if mx != nil {
			x = uint64(mx[x])
		}
		if my != nil {
			y = uint64(my[y])
		}
		words[i] = x<<32 | y
	}
}

// table is Knight's counts of the dense ranks in p.kx (below dx) and
// p.ky (below dy) read off their dx × dy contingency table instead of
// a sort. One pass fills the cells and the two marginals; a sweep over
// the rows in ascending x keeps, per column, the count of the rows
// already swept, so a cell at y is discordant with those at larger y.
// Pairs within a cell tie in both, and the marginals are the tie
// groups in ascending order.
func (p *KendallPrefix) table(dx, dy int) TauResult {
	n := len(p.kx)
	p.hist = grow(p.hist, dx*dy+dx+2*dy)
	clear(p.hist)
	cells, hx := p.hist[:dx*dy], p.hist[dx*dy:dx*dy+dx]
	hy, seen := p.hist[dx*dy+dx:dx*dy+dx+dy], p.hist[dx*dy+dx+dy:]
	for i, x := range p.kx {
		y := p.ky[i]
		cells[int(x)*dy+int(y)]++
		hx[x]++
		hy[y]++
	}
	var discordant, tiesBoth int64
	for x := range dx {
		row := cells[x*dy : x*dy+dy]
		var above int64 // the swept rows' observations at larger y
		for y := dy - 1; y >= 0; y-- {
			c := row[y]
			discordant += c * above
			tiesBoth += c * (c - 1)
			above += seen[y]
			seen[y] += c
		}
	}
	tiesXpairs, tiesYpairs := histSizes(hx, &p.xSizes), histSizes(hy, &p.ySizes)
	return p.result(n, discordant, tiesXpairs, tiesYpairs, tiesBoth/2)
}
