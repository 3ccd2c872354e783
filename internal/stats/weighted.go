package stats

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
// y-ranks; omega[i] must hold ωi = wi/p(ri), so the pair weight ωiωj
// equals wi·wj/(p(ri)p(rj)) as in the paper. Each side is ranked
// densely, as Kendall ranks it (a pooled prefix's dictionaries), and
// two stable counting sorts of the observations, by y rank and then by
// x rank, put them in (x, y, input index) order. Elements are processed
// in that order, one x-tie-group at a time; for each element, the
// weight mass of already-processed elements with smaller (resp. larger)
// y gives its concordant (resp. discordant) contribution. The rank
// histograms the counting sorts run on are the tie groups.
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

	p := prefixPool.Get().(*KendallPrefix)
	defer prefixPool.Put(p)
	dx, dy := p.rankSample(x, y)
	rx, ry := p.kx, p.ky
	r.TiesX, r.TiesY = make([]int64, dx), make([]int64, dy)
	for i := range n {
		r.TiesX[rx[i]]++
		r.TiesY[ry[i]]++
	}
	p.hist = grow(p.hist, max(len(r.TiesX), len(r.TiesY)))
	p.ks, p.kbuf = grow(p.ks, n), grow(p.kbuf, n)
	byY, order, at := p.ks, p.kbuf, p.hist
	firsts(at, r.TiesY)
	for i, k := range ry {
		byY[at[k]] = uint64(i)
		at[k]++
	}
	firsts(at, r.TiesX)
	for _, i := range byY {
		k := rx[i]
		order[at[k]] = i
		at[k]++
	}

	p.fen = grow(p.fen, len(r.TiesY)+1)
	clear(p.fen)
	tree := fenwick{tree: p.fen}
	for _, size := range r.TiesX {
		// Query the whole x-group against previously inserted groups.
		group := order[:size]
		order = order[size:]
		for _, i := range group {
			rk := int(ry[i]) + 1
			below := tree.prefix(rk - 1)      // strictly smaller y
			atOrBelow := tree.prefix(rk)      // y ≤ y_i
			above := tree.total() - atOrBelow // strictly larger y
			r.Numerator += omega[i] * (below - above)
		}
		for _, i := range group {
			tree.add(int(ry[i])+1, omega[i])
		}
	}
	if r.Denominator > 0 {
		r.Tau = r.Numerator / r.Denominator
	}
	return r
}

// firsts sets at[k] to the position of group k's first element when
// groups of the given sizes are laid out in ascending order.
func firsts(at, sizes []int64) {
	var pos int64
	for k, c := range sizes {
		at[k] = pos
		pos += c
	}
}

// fenwick is a Fenwick (binary indexed) tree over float64 weights with
// 1-based positions.
type fenwick struct {
	tree []float64
	sum  float64
}

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
