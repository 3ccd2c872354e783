package stats

import (
	"slices"
	"sort"
)

// WeightedTauResult is the outcome of the importance-sampling estimator
// t̃ (paper Eq. 8): a weighted Kendall τ where each pair (i, j)
// contributes with weight ωi·ωj, ωi = wi/p(ri) being the ratio of node
// i's sample frequency to its selection probability.
type WeightedTauResult struct {
	N           int     // distinct observations
	Numerator   float64 // Σ_{i<j} c(i,j)·ωi·ωj
	Denominator float64 // Σ_{i<j} ωi·ωj
	Tau         float64 // Numerator / Denominator
	// TiesX and TiesY are the tie-group sizes of x and y in ascending
	// value order, singletons included: what TieSizes returns, read off
	// the sorts the estimator makes anyway, for NumeratorVariance. Nil
	// when N < 2.
	TiesX, TiesY []int64
}

// WeightedTau computes Eq. 8 in O(n log n) with a Fenwick tree over
// compressed y-ranks; omega[i] must hold ωi = wi/p(ri), so the pair
// weight ωiωj equals wi·wj/(p(ri)p(rj)) as in the paper. Elements are
// processed in ascending (x, y) order, one x-tie-group at a time; for
// each element, the weight mass of already-processed elements with
// smaller (resp. larger) y gives its concordant (resp. discordant)
// contribution. The x tie groups fall out of that order and the y tie
// groups out of the argsort that ranks y for the tree.
func WeightedTau(x, y, omega []float64) WeightedTauResult {
	n := mustSameLen(x, y)
	if len(omega) != n {
		panic("stats: weight vector length mismatch")
	}
	var r WeightedTauResult
	r.N = n
	if n < 2 {
		return r
	}

	// Denominator: ((Σω)² − Σω²)/2 covers all pairs.
	var sum, sumSq float64
	for _, w := range omega {
		sum += w
		sumSq += w * w
	}
	r.Denominator = (sum*sum - sumSq) / 2

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if x[ia] != x[ib] {
			return x[ia] < x[ib]
		}
		return y[ia] < y[ib]
	})

	ranks, tiesY := rankTies(y)
	r.TiesY = tiesY
	tree := newFenwick(len(tiesY))

	for start := 0; start < n; {
		end := start
		for end < n && x[idx[end]] == x[idx[start]] {
			end++
		}
		r.TiesX = append(r.TiesX, int64(end-start))
		// Query the whole x-group against previously inserted groups.
		for k := start; k < end; k++ {
			i := idx[k]
			rk := ranks[i]
			below := tree.prefix(rk - 1)      // strictly smaller y
			atOrBelow := tree.prefix(rk)      // y ≤ y_i
			above := tree.total() - atOrBelow // strictly larger y
			r.Numerator += omega[i] * (below - above)
		}
		for k := start; k < end; k++ {
			i := idx[k]
			tree.add(ranks[i], omega[i])
		}
		start = end
	}
	if r.Denominator > 0 {
		r.Tau = r.Numerator / r.Denominator
	}
	return r
}

// rankTies maps values to dense ranks 1..k preserving order, with
// equal values sharing a rank, and returns the size of each rank's tie
// group (ties[r-1] for rank r). It argsorts (value, index) pairs, which
// keeps the comparisons on contiguous memory.
func rankTies(v []float64) (ranks []int, ties []int64) {
	type entry struct {
		v float64
		i int
	}
	order := make([]entry, len(v))
	for i, x := range v {
		order[i] = entry{x, i}
	}
	slices.SortFunc(order, func(a, b entry) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	ranks = make([]int, len(v))
	for k, e := range order {
		if k == 0 || e.v != order[k-1].v {
			ties = append(ties, 0)
		}
		ranks[e.i] = len(ties)
		ties[len(ties)-1]++
	}
	return ranks, ties
}

// fenwick is a Fenwick (binary indexed) tree over float64 weights with
// 1-based positions.
type fenwick struct {
	tree []float64
	sum  float64
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]float64, n+1)} }

func (f *fenwick) add(pos int, w float64) {
	f.sum += w
	for ; pos < len(f.tree); pos += pos & -pos {
		f.tree[pos] += w
	}
}

// prefix returns the weight mass at positions 1..pos.
func (f *fenwick) prefix(pos int) float64 {
	var s float64
	for ; pos > 0; pos -= pos & -pos {
		s += f.tree[pos]
	}
	return s
}

func (f *fenwick) total() float64 { return f.sum }
