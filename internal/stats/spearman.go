package stats

import (
	"math"
	"sort"
)

// SpearmanResult reports Spearman's ρ rank correlation, the alternative
// rank statistic §8 of the paper mentions ("Another rank correlation
// statistic, Spearman's ρ, could also be used").
type SpearmanResult struct {
	N   int
	Rho float64
	Z   float64 // normal approximation z = ρ·√(n−1)
}

// Spearman computes ρ as the Pearson correlation of mid-ranks (average
// ranks for ties) in O(n log n), with the standard large-sample normal
// approximation for significance.
func Spearman(x, y []float64) SpearmanResult {
	n := mustSameLen(x, y)
	r := SpearmanResult{N: n}
	if n < 2 {
		return r
	}
	rx := midRanks(x)
	ry := midRanks(y)
	r.Rho = pearson(rx, ry)
	r.Z = r.Rho * math.Sqrt(float64(n-1))
	return r
}

// midRanks returns 1-based average ranks, assigning tied values the mean
// of the rank range they span.
func midRanks(v []float64) []float64 {
	n := len(v)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return v[idx[a]] < v[idx[b]] })
	ranks := make([]float64, n)
	for start := 0; start < n; {
		end := start
		for end < n && v[idx[end]] == v[idx[start]] {
			end++
		}
		avg := float64(start+end+1) / 2 // mean of ranks start+1..end
		for k := start; k < end; k++ {
			ranks[idx[k]] = avg
		}
		start = end
	}
	return ranks
}

// pearson returns the Pearson correlation coefficient of two equal-length
// samples, or 0 when either is constant.
func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}
