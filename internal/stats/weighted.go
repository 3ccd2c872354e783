package stats

import "sort"

// WeightedTauResult is the outcome of the importance-sampling estimator
// t̃ (paper Eq. 8): a weighted Kendall τ where each pair (i, j)
// contributes with weight ωi·ωj, ωi = wi/p(ri) being the ratio of node
// i's sample frequency to its selection probability.
type WeightedTauResult struct {
	N           int     // distinct observations
	Numerator   float64 // Σ_{i<j} c(i,j)·ωi·ωj
	Denominator float64 // Σ_{i<j} ωi·ωj
	Tau         float64 // Numerator / Denominator
}

// WeightedTau computes Eq. 8 in O(n log n) with a Fenwick tree over
// compressed y-ranks; omega[i] must hold ωi = wi/p(ri), so the pair
// weight ωiωj equals wi·wj/(p(ri)p(rj)) as in the paper. Elements are
// processed in ascending (x, y) order, one x-tie-group at a time; for
// each element, the weight mass of already-processed elements with
// smaller (resp. larger) y gives its concordant (resp. discordant)
// contribution.
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

	ranks, numRanks := compressRanks(y)
	tree := newFenwick(numRanks)

	for start := 0; start < n; {
		end := start
		for end < n && x[idx[end]] == x[idx[start]] {
			end++
		}
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

// compressRanks maps values to dense ranks 1..k preserving order, with
// equal values sharing a rank.
func compressRanks(v []float64) (ranks []int, k int) {
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	uniq := sorted[:0]
	for i, val := range sorted {
		if i == 0 || val != uniq[len(uniq)-1] {
			uniq = append(uniq, val)
		}
	}
	ranks = make([]int, len(v))
	for i, val := range v {
		ranks[i] = sort.SearchFloat64s(uniq, val) + 1
	}
	return ranks, len(uniq)
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
