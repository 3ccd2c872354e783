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
// so each may key them as it likes. A whole sample (Kendall,
// WeightedTau) is hashed to dense ranks first: densities are ratios of
// small integers with few distinct values, and their ranks are counted
// from a contingency table or sorted as one word per observation. The
// screening planner's growing prefixes key their chunks as floats
// (KendallPrefix.Extend) or by the shared memo's ranks
// (KendallPrefix.ExtendKeys), which sort as one word per observation
// and, when most are zero in one of the two, are counted from
// histograms instead of sorted.
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

// keyPair packs one paired observation as order-encoded uint64 keys
// (FloatKey or ranks), so Knight's (x, y) sort runs branch-free over radix
// passes instead of paying a comparison per element pair — the sort
// was the hottest loop of a Kendall evaluation at the paper's n = 900,
// and a standing-query re-screen pays one Kendall per mutation batch.
type keyPair struct{ kx, ky uint64 }

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
// keeps the prefix's observations sorted by (x, y), so Extend sorts only
// the new chunk and merges it in, instead of re-sorting everything seen
// at every checkpoint; Knight's tie scans and inversion count then run
// on the merged array. While every key fits in 32 bits (rank keys) an
// observation is one word, kx<<32 | ky, whose unsigned order is the
// (x, y) order; the first wider chunk (float keys) converts the prefix
// to keyPairs for good. A first chunk of rank keys that is mostly zeros
// is counted by peel instead of sorted; its words are sorted only when
// a later chunk extends it. The zero value is an empty prefix; its
// scratch is retained across Reset, so one prefix per worker allocates
// only while it grows. Not safe for concurrent use.
type KendallPrefix struct {
	words, wbuf    []uint64   // narrow prefix sorted (unless peeled); merge/radix scratch
	peeled         bool       // words is one peeled chunk, in input order
	pts, buf       []keyPair  // wide prefix sorted by (kx, ky); merge/radix scratch
	wide           bool       // the prefix is in pts; words is empty
	kx, ky         []uint64   // Extend's chunk keys; a whole sample's dense ranks
	ks, kbuf       []uint64   // ky in prefix order; inversion-merge scratch; WeightedTau's orders
	xSizes, ySizes []int64    // tie-group runs (appended; capacity retained)
	hist           []int64    // peel's four histograms; the rank table; WeightedTau's group starts
	slots          []rankSlot // rank's hash table
	gen            uint32     // the stamp of rank's current call
	distinct       []uint64   // rank's distinct keys
	fen            []float64  // WeightedTau's Fenwick tree
}

var prefixPool = sync.Pool{New: func() any { return new(KendallPrefix) }}

// Reset empties the prefix, keeping its scratch.
func (p *KendallPrefix) Reset() {
	p.words, p.pts, p.wide, p.peeled = p.words[:0], p.pts[:0], false, false
}

// Len returns the number of observations in the prefix.
func (p *KendallPrefix) Len() int { return len(p.words) + len(p.pts) }

// Extend appends the paired observations (x[i], y[i]) to the prefix and
// returns the TauResult of the whole prefix — exactly Kendall (and
// KendallNaive) of the concatenation of every chunk since Reset: the
// sorted order, and with it every count and tie-group size, does not
// depend on how the sample was chunked. It is FloatKey plus ExtendKeys.
func (p *KendallPrefix) Extend(x, y []float64) TauResult {
	c := mustSameLen(x, y)
	p.kx, p.ky = grow(p.kx, c), grow(p.ky, c)
	for i := range c {
		p.kx[i], p.ky[i] = FloatKey(x[i]), FloatKey(y[i])
	}
	return p.ExtendKeys(p.kx, p.ky)
}

// ExtendKeys is Extend over observations given as order keys: any
// encoding whose unsigned order and equality coincide with the
// values' — FloatKey of each value, or its dense rank among the
// sample's values — yields the TauResult of the values themselves,
// because Knight's algorithm reads only their order and ties. It is
// the sorting kernel's one entry point. The radix sorts skip byte positions
// that are equal in every key of a chunk, so keys with few varying
// bytes (ranks below 2^16: two bytes each of x and y) sort in a
// quarter of the passes float keys need, over half the bytes.
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
	if !p.wide {
		var narrow, peel bool
		var nx, ny int
		if len(p.words) == 0 && c > insertionSortWordsMax {
			narrow, peel, nx, ny = peelGuard(kx, ky)
		} else {
			narrow = true
			for i := range kx {
				if (kx[i]|ky[i])>>32 != 0 {
					narrow = false
					break
				}
			}
		}
		if peel {
			return p.peel(kx, ky, nx, ny)
		}
		if narrow {
			p.extendWords(kx, ky)
			return p.knight()
		}
		p.widen()
	}
	p.extendPairs(kx, ky)
	return p.knight()
}

// extendPairs sorts the keys (kx, ky) in as keyPairs.
func (p *KendallPrefix) extendPairs(kx, ky []uint64) {
	c := len(kx)
	m := len(p.pts)
	n := m + c
	p.pts = slices.Grow(p.pts, c)[:n]
	p.buf = grow(p.buf, n)
	chunk := p.pts[m:]
	for i := range chunk {
		chunk[i] = keyPair{kx[i], ky[i]}
	}
	sortKeyPairs(chunk, p.buf[:c])
	if m > 0 && c > 0 && chunk[0].less(p.pts[m-1]) {
		mergeKeyPairs(p.buf[:n], p.pts[:m], chunk)
		p.pts, p.buf = p.buf[:n], p.pts
	}
}

// knight runs Knight's scans over the sorted prefix: pair ties and the
// x tie groups from run lengths, discordant pairs as y-inversions, and
// the y tie groups from the inversion count's sorted output.
func (p *KendallPrefix) knight() TauResult {
	n := p.Len()
	r := TauResult{N: n}
	if n < 2 {
		finishTau(&r, nil, nil)
		return r
	}

	// Pair-tie counts and x tie-group sizes from run lengths in the
	// sorted order (key equality == float equality).
	p.ks = grow(p.ks, n)
	var tiesXpairs, tiesBothPairs int64 // pairs tied in x (incl. both), both
	if p.wide {
		tiesXpairs, tiesBothPairs = p.scanPairs()
	} else {
		tiesXpairs, tiesBothPairs = p.scanWords(p.words)
	}
	kys := p.ks

	// countInversions merge-sorts kys in place as a side effect, so the
	// y tie-group scan below reads the sorted vector for free — no
	// separate O(n log n) pass over y. Inversion and tie structure are
	// identical on keys and floats (FloatKey is order- and
	// equality-preserving).
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
	ySizes = append(ySizes, runY)

	n0 := pairs(int64(n))
	// Discordant pairs are exactly the y-inversions among pairs not tied
	// in x (within an x-run, ys is ascending, contributing no inversions).
	r.Discordant = swaps
	r.TiesBoth = tiesBothPairs
	r.TiesX = tiesXpairs - tiesBothPairs
	r.TiesY = tiesYpairs - tiesBothPairs
	r.Concordant = n0 - r.TiesX - r.TiesY - r.TiesBoth - r.Discordant

	finishTau(&r, p.xSizes, ySizes)
	// Retain the grown tie-run capacity (append may have reallocated
	// past it). NumeratorVariance consumed the slices synchronously;
	// nothing aliases them after return.
	p.ySizes = ySizes
	return r
}

// pairs is c choose 2.
func pairs(c int64) int64 { return c * (c - 1) / 2 }

// scanPairs is knight's run-length scan over the keyPair prefix: it
// fills p.ks and p.xSizes and returns the pairs tied in x (including
// both) and in both.
func (p *KendallPrefix) scanPairs() (tiesXpairs, tiesBothPairs int64) {
	pts, kys := p.pts, p.ks
	xSizes := p.xSizes[:0]
	runX, runXY := int64(1), int64(1)
	kys[0] = pts[0].ky
	for i := 1; i < len(pts); i++ {
		kys[i] = pts[i].ky
		if pts[i].kx == pts[i-1].kx {
			runX++
			if pts[i].ky == pts[i-1].ky {
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

// KendallNaiveCutoff is the sample size at which KendallAuto switches
// from the quadratic kernel to Knight's O(n log n) algorithm. Below it
// the naive double loop wins on constant factors (no sorting, no index
// permutation, no merge buffer); at or above it the asymptotics take
// over — and a TESC test at the paper's n = 900 must never pay the
// O(n²) pair enumeration. The selection test pins this value; change it
// deliberately, with a benchmark.
const KendallNaiveCutoff = 64

// UseNaiveKendall reports whether KendallAuto routes a sample of size n
// through the quadratic kernel. Exported so the routing policy is
// testable: the core test and the screening sweep must route every
// n >= KendallNaiveCutoff sample through Knight's algorithm.
func UseNaiveKendall(n int) bool { return n < KendallNaiveCutoff }

// KendallAuto computes the Kendall τ test, selecting the kernel by
// sample size: the naive quadratic loop for tiny samples, Knight's
// O(n log n) algorithm from KendallNaiveCutoff up. Both kernels return
// identical TauResults (see the cross-validation tests), so the switch
// is invisible to callers.
func KendallAuto(x, y []float64) TauResult {
	if UseNaiveKendall(mustSameLen(x, y)) {
		return KendallNaive(x, y)
	}
	return Kendall(x, y)
}

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

// less orders observations by (kx, ky).
func (a keyPair) less(b keyPair) bool {
	return a.kx < b.kx || (a.kx == b.kx && a.ky < b.ky)
}

// mergeKeyPairs merges the sorted runs a and b into dst (len(dst) ==
// len(a)+len(b), aliasing neither).
func mergeKeyPairs(dst, a, b []keyPair) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || (i < len(a) && !b[j].less(a[i])) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}

// insertionSortMax and insertionSortWordsMax are the input sizes up to
// which sortKeyPairs and sortWords use insertion sort: a radix sort's
// fixed cost (a histogram of 256 counters per varying byte) dominates
// small inputs. The planner's default schedule cuts a sample of 900
// into chunks of 64, 64, 128 and 644 observations; the deterministic
// bound's eighths add chunks of 50–200. On float density keys
// (BenchmarkSortKeyPairs) insertion sort takes ~2 µs at 64 against
// radix's ~10 µs, and the two cross between 192 and 256. On rank words
// (BenchmarkSortWords), whose radix sort makes four passes, insertion
// sort takes ~0.7 µs at 64 against ~1.4 µs, and they cross near 112.
const (
	insertionSortMax      = 224
	insertionSortWordsMax = 96
)

// sortKeyPairs sorts observations by (kx, ky) ascending, using buf
// (len(buf) >= len(a)) as scratch.
func sortKeyPairs(a, buf []keyPair) {
	if len(a) <= insertionSortMax {
		insertionSortKeyPairs(a)
	} else {
		radixSortKeyPairs(a, buf)
	}
}

func insertionSortKeyPairs(a []keyPair) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i
		for ; j > 0 && v.less(a[j-1]); j-- {
			a[j] = a[j-1]
		}
		a[j] = v
	}
}

// radixSortKeyPairs is an LSD radix sort: byte-passes over ky, then
// over kx (LSD stability makes the ky order survive as the secondary
// key). Each pass is a counting sort — no comparisons, no
// data-dependent branches, which is what beats comparison sorts on
// density vectors: their heavy ties make every comparison branch a coin
// flip. A byte position equal in every key would be the identity pass
// and is skipped: one OR/AND sweep finds the highest byte that varies,
// so the high bytes of rank keys get neither a histogram nor a pass,
// and a uniform lower byte (the high exponent bytes of same-magnitude
// densities) is skipped after the histogram.
func radixSortKeyPairs(a, buf []keyPair) {
	n := len(a)
	if n < 2 {
		return
	}
	orK, andK := uint64(0), ^uint64(0)
	for i := range a {
		orK |= a[i].kx | a[i].ky
		andK &= a[i].kx & a[i].ky
	}
	w := (bits.Len64(orK^andK) + 7) / 8 // bytes 0..w-1 may vary
	// All the histograms are filled in ONE counting sweep (classic
	// multi-histogram radix): the scatter passes each read the data
	// once, so the total traffic is 2w+2 passes instead of 4w.
	// Float keys (w = 8) keep the constant-bound loop: the variable
	// bound costs them 20–30% on BenchmarkSortKeyPairs.
	var hist [16][256]int32
	if w == 8 {
		for i := range a {
			kx, ky := a[i].kx, a[i].ky
			for b := 0; b < 8; b++ {
				hist[b][byte(ky>>(8*uint(b)))]++
				hist[8+b][byte(kx>>(8*uint(b)))]++
			}
		}
	} else {
		for i := range a {
			kx, ky := a[i].kx, a[i].ky
			for b := 0; b < w; b++ {
				s := uint(8 * b)
				hist[b&7][byte(ky>>s)]++
				hist[8+b&7][byte(kx>>s)]++
			}
		}
	}
	src, dst := a, buf
	for p := 0; p < 16; p++ {
		if p%8 >= w {
			continue // above the highest varying byte
		}
		h := &hist[p]
		shift := uint(8 * (p % 8))
		useX := p >= 8
		var first byte
		if useX {
			first = byte(src[0].kx >> shift)
		} else {
			first = byte(src[0].ky >> shift)
		}
		if int(h[first]) == n {
			continue // uniform byte: the pass would be the identity
		}
		sum := int32(0)
		for b := range h {
			h[b], sum = sum, sum+h[b]
		}
		if useX {
			for i := range src {
				b := byte(src[i].kx >> shift)
				dst[h[b]] = src[i]
				h[b]++
			}
		} else {
			for i := range src {
				b := byte(src[i].ky >> shift)
				dst[h[b]] = src[i]
				h[b]++
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
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

// The word layout's functions come last in the file: placed before
// radixSortKeyPairs they moved its start by 32 bytes, and its
// (byte-identical) benchmark rows read up to a third slower.

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

// widen moves the narrow prefix into the keyPair layout, in the same
// order: a word's order is its (kx, ky) order.
func (p *KendallPrefix) widen() {
	p.pts = grow(p.pts, len(p.words))
	for i, w := range p.words {
		p.pts[i] = keyPair{w >> 32, w & (1<<32 - 1)}
	}
	p.words, p.wide = p.words[:0], true
}

// scanWords is scanPairs over sorted words (the word prefix, or peel's
// observations nonzero in both keys): equal high halves are an x tie,
// equal words a tie in both.
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

// mergeWords is mergeKeyPairs over words.
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

// sortWords is sortKeyPairs over words.
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

// radixSortWords is radixSortKeyPairs over words: a histogram and a
// pass only for the byte positions where some two words differ — four
// for rank keys below 2^16.
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

// peelGuard is ExtendKeys' narrowness check on the first chunk of an
// empty prefix, folded into one pass with peel's guard: it reports
// whether every key fits 32 bits, whether the chunk peels, and the
// lengths of its x and y histograms. Later chunks, which never peel,
// take the plain check.
func peelGuard(kx, ky []uint64) (narrow, peel bool, nx, ny int) {
	var mx, my uint64
	zeros := 0
	for i := range kx {
		x, y := kx[i], ky[i]
		if (x|y)>>32 != 0 {
			return false, false, 0, 0
		}
		mx, my = max(mx, x), max(my, y)
		zeros += int(((x - 1) | (y - 1)) >> 63) // x-1 wraps past 2^63 only at 0
	}
	c := len(kx)
	return true, (c-zeros)*peelBothDiv <= c && mx+my < uint64(peelSpan*c), int(mx) + 1, int(my) + 1
}

// peel is Knight's counts of a first chunk of narrow keys (kx below nx,
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
	// This repeats knight's last lines on purpose: moved into a helper
	// both call, they shrank knight by 96 bytes, which moved the start of
	// radixSortKeyPairs (and of the functions after it) by 32 bytes mod
	// 64 in the stats, screen and tescperf binaries, and its
	// byte-identical gate rows read up to 32% slower.
	r := TauResult{N: n, Discordant: discordant, TiesBoth: tiesBothPairs}
	r.TiesX = tiesXpairs - tiesBothPairs
	r.TiesY = tiesYpairs - tiesBothPairs
	r.Concordant = pairs(int64(n)) - r.TiesX - r.TiesY - r.TiesBoth - r.Discordant
	finishTau(&r, p.xSizes, p.ySizes)
	return r
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

// The dense-rank front end: Kendall and WeightedTau over a whole
// sample.

// Kendall returns the TauResult of (x, y) as one whole sample: that of
// Extend on an empty prefix, which it leaves empty. It ranks each
// side's values densely (rank) and counts the ranks' contingency table
// when it has at most tableCells cells per observation (table);
// otherwise Knight's algorithm runs on the ranks through ExtendKeys:
// sort by (x, y), count pairwise ties from run lengths and discordant
// pairs as y-inversions via merge sort, and read the tie groups Eq. 6
// needs off the same sorted orders, in the ascending order TieSizes
// gives, so the variance sums are bit-identical. A side with more than
// n/rankDiv distinct values is not ranked: its sample goes through
// Extend as floats.
func (p *KendallPrefix) Kendall(x, y []float64) TauResult {
	n := mustSameLen(x, y)
	p.Reset()
	p.kx, p.ky = grow(p.kx, n), grow(p.ky, n)
	dx, dy := p.rank(x, p.kx, n/rankDiv), 0
	if dx > 0 {
		dy = p.rank(y, p.ky, n/rankDiv)
	}
	var r TauResult
	switch {
	case dy == 0:
		r = p.Extend(x, y)
	case dx*dy <= tableCells*n:
		r = p.table(dx, dy)
	default:
		r = p.ExtendKeys(p.kx, p.ky)
	}
	p.Reset()
	return r
}

// rankDiv and tableCells route Kendall. A side with more than
// n/rankDiv distinct values keeps its float keys. At n = 900
// (BenchmarkKendallDensities' generator and densitySample) ranking and
// the word sort beat the floats by about 45% at 0.17n distinct values
// per side and still by about 20% at 0.35n, but lose about 35% at
// 0.65n, where the ranks need two bytes and the distinct keys' sort
// grows; a side that bails has paid n/rankDiv hash inserts, 3–4% of
// its float Kendall. The contingency table costs about 3 ns a
// cell against the word path's 50–60 ns an observation, at n = 323 as
// at 900: the two cross between 12 and 16 cells per observation.
const (
	rankDiv    = 2
	tableCells = 12
)

// rankSlot is one slot of rank's open-addressing table: a distinct
// key, the stamp of the call that stored it, and the key's rank.
type rankSlot struct {
	key       uint64
	gen, rank uint32
}

// rankHashMul is Fibonacci hashing's multiplier, 2^64 over the golden
// ratio: a key's product keeps its high bits as the slot.
const rankHashMul = 0x9e3779b97f4a7c15

// rank sets keys[i] to the dense rank of v[i], the number of distinct
// values of v below it in FloatKey order (so −0 ties +0), and returns
// how many values are distinct; it returns 0, leaving keys
// unspecified, once more than limit are. Each FloatKey is hashed into
// a table of at least 2n slots, linearly probed; a slot counts only
// under the current call's stamp, so the table is never cleared
// between calls. Only the distinct keys are sorted, by pdqsort: on 150
// float keys it took a quarter of sortWords' time, whose radix passes
// and histograms suit many keys with few varying bytes.
func (p *KendallPrefix) rank(v []float64, keys []uint64, limit int) int {
	if len(v) == 0 {
		return 0
	}
	width := bits.Len(uint(2*len(v) - 1))
	if len(p.slots) < 1<<width {
		p.slots = make([]rankSlot, 1<<width)
	}
	p.gen++
	if p.gen == 0 { // the stamp wrapped: forget every stored slot
		clear(p.slots)
		p.gen = 1
	}
	slots, gen := p.slots[:1<<width], p.gen
	mask, shift := len(slots)-1, uint(64-width)
	distinct := p.distinct[:0]
	for i, f := range v {
		k := FloatKey(f)
		h := int(k * rankHashMul >> shift)
		for slots[h].gen == gen && slots[h].key != k {
			h = (h + 1) & mask
		}
		if slots[h].gen != gen {
			if len(distinct) == limit {
				p.distinct = distinct
				return 0
			}
			slots[h] = rankSlot{key: k, gen: gen}
			distinct = append(distinct, k)
		}
		keys[i] = uint64(h)
	}
	p.distinct = distinct
	slices.Sort(distinct)
	for r, k := range distinct {
		h := int(k * rankHashMul >> shift)
		for slots[h].gen != gen || slots[h].key != k {
			h = (h + 1) & mask
		}
		slots[h].rank = uint32(r)
	}
	for i, h := range keys[:len(v)] {
		keys[i] = uint64(slots[h].rank)
	}
	return len(distinct)
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
	tiesBoth /= 2
	tiesXpairs, tiesYpairs := histSizes(hx, &p.xSizes), histSizes(hy, &p.ySizes)
	r := TauResult{N: n, Discordant: discordant, TiesBoth: tiesBoth}
	r.TiesX = tiesXpairs - tiesBoth
	r.TiesY = tiesYpairs - tiesBoth
	r.Concordant = pairs(int64(n)) - r.TiesX - r.TiesY - r.TiesBoth - r.Discordant
	finishTau(&r, p.xSizes, p.ySizes)
	return r
}
