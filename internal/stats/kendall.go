// Package stats implements the rank-correlation statistics underlying the
// TESC test: Kendall's τ (naive quadratic and O(n log n) variants, plus a
// weighted variant for the importance-sampling estimator of Eq. 8), the
// tie-corrected null variance of the τ numerator (paper Eq. 5/6), normal
// tail probabilities, Kendall's τ_b for the Transaction Correlation
// baseline, and Spearman's ρ as the alternative rank statistic §8
// mentions.
//
// Everything here is pure computation over float slices; no graph types
// leak in. The TESC core feeds event-density vectors to these functions.
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

// Kendall computes the same TauResult as KendallNaive in O(n log n) using
// Knight's algorithm: sort by (x, y), count pairwise ties from run
// lengths, and count discordant pairs as y-inversions via merge sort.
// The tie-group sizes Eq. 6 needs fall out of the same two sorts (in
// the same ascending order TieSizes would produce, so the variance sums
// are bit-identical), saving two further O(n log n) passes. It is one
// Extend of an empty (pooled) KendallPrefix: there is one kernel.
func Kendall(x, y []float64) TauResult {
	p := prefixPool.Get().(*KendallPrefix)
	defer prefixPool.Put(p)
	p.Reset()
	return p.Extend(x, y)
}

// KendallPrefix is Kendall's τ over a paired sample that grows in
// chunks — the screening planner's checkpoints, where a pair's density
// prefix is tested at m = 64, 128, 256, ... of its n references. It
// keeps the prefix's observations sorted by (x, y), so Extend sorts only
// the new chunk and merges it in, instead of re-sorting everything seen
// at every checkpoint; Knight's tie scans and inversion count then run
// on the merged array. The zero value is an empty prefix; its scratch
// is retained across Reset, so one prefix per worker allocates only
// while it grows. Not safe for concurrent use.
type KendallPrefix struct {
	pts, buf       []keyPair // prefix sorted by (kx, ky); merge/radix scratch
	kx, ky         []uint64  // Extend's chunk keys
	ks, kbuf       []uint64  // ky in pts order; inversion-merge scratch
	xSizes, ySizes []int64   // tie-group runs (appended; capacity retained)
}

var prefixPool = sync.Pool{New: func() any { return new(KendallPrefix) }}

// Reset empties the prefix, keeping its scratch.
func (p *KendallPrefix) Reset() { p.pts = p.pts[:0] }

// Len returns the number of observations in the prefix.
func (p *KendallPrefix) Len() int { return len(p.pts) }

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
// the kernel's one entry point. The radix sort skips byte positions
// that are equal in every key of a chunk, so keys with few varying
// bytes (ranks below 2^16: two bytes) sort in a quarter of the passes
// float keys need.
func (p *KendallPrefix) ExtendKeys(kx, ky []uint64) TauResult {
	c := len(kx)
	if len(ky) != c {
		panic(fmt.Sprintf("stats: paired keys of different lengths %d and %d", c, len(ky)))
	}
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
	return p.knight()
}

// knight runs Knight's scans over the sorted prefix: pair ties and the
// x tie groups from run lengths, discordant pairs as y-inversions, and
// the y tie groups from the inversion count's sorted output.
func (p *KendallPrefix) knight() TauResult {
	pts := p.pts
	n := len(pts)
	r := TauResult{N: n}
	if n < 2 {
		finishTau(&r, nil, nil)
		return r
	}

	// Pair-tie counts and x tie-group sizes from run lengths in the
	// sorted order (key equality == float equality).
	pairs := func(c int64) int64 { return c * (c - 1) / 2 }
	var tiesXpairs, tiesBothPairs int64 // pairs tied in x (incl. both), both
	xSizes := p.xSizes[:0]
	runX, runXY := int64(1), int64(1)
	p.ks = grow(p.ks, n)
	kys := p.ks
	kys[0] = pts[0].ky
	for i := 1; i < n; i++ {
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
	tiesXpairs += pairs(runX)
	tiesBothPairs += pairs(runXY)
	xSizes = append(xSizes, runX)

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

	finishTau(&r, xSizes, ySizes)
	// Retain the grown tie-run capacity (append may have reallocated
	// past it). NumeratorVariance consumed the slices synchronously;
	// nothing aliases them after return.
	p.xSizes, p.ySizes = xSizes, ySizes
	return r
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

// insertionSortMax is the input size up to which sortKeyPairs uses
// insertion sort. The radix sort's fixed cost (zeroing and scanning 16
// histograms of 256 counters) dominates small inputs, and the
// planner's checkpoint chunks are 50–200 observations: on density keys
// (BenchmarkSortKeyPairs) insertion sort takes ~2 µs at 64 against
// radix's ~10 µs, and the two cross between 192 and 256.
const insertionSortMax = 224

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
