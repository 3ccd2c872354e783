package stats

import "math"

// NumeratorVariance returns Var(Σ c(ri,rj)) — the variance of the
// numerator of Eq. 4 under the null hypothesis with tie corrections
// (paper Eq. 6). tiesX and tiesY are the tie-group sizes (u_i and v_i) of
// the two samples; singleton groups contribute nothing and may be
// included or omitted freely.
//
// When all group sizes equal 1 this reduces to Eq. 5 multiplied by
// [n(n−1)/2]², as the paper notes. Larger ties always shrink the
// variance (tested as a property).
func NumeratorVariance(n int, tiesX, tiesY []int64) float64 {
	if n < 2 {
		return 0
	}
	nf := float64(n)

	var sumU1, sumU2, sumU3 float64 // Σu(u-1)(2u+5), Σu(u-1)(u-2), Σu(u-1)
	for _, u := range tiesX {
		uf := float64(u)
		sumU1 += uf * (uf - 1) * (2*uf + 5)
		sumU2 += uf * (uf - 1) * (uf - 2)
		sumU3 += uf * (uf - 1)
	}
	var sumV1, sumV2, sumV3 float64
	for _, v := range tiesY {
		vf := float64(v)
		sumV1 += vf * (vf - 1) * (2*vf + 5)
		sumV2 += vf * (vf - 1) * (vf - 2)
		sumV3 += vf * (vf - 1)
	}

	term1 := (nf*(nf-1)*(2*nf+5) - sumU1 - sumV1) / 18
	var term2 float64
	if n > 2 {
		term2 = sumU2 * sumV2 / (9 * nf * (nf - 1) * (nf - 2))
	}
	term3 := sumU3 * sumV3 / (2 * nf * (nf - 1))
	return term1 + term2 + term3
}

// ZFromNumerator returns numerator / sqrt(varNum), the z-score of Eq. 7
// expressed on the un-normalized numerator (the paper notes the common
// normalization cancels). A zero variance — e.g. every observation tied —
// yields z = 0: such a sample carries no evidence either way.
func ZFromNumerator(numerator, varNum float64) float64 {
	if varNum <= 0 {
		return 0
	}
	return numerator / math.Sqrt(varNum)
}

// TauVarianceUpperBound returns the 2(1−τ²)/n bound on Var(t) quoted in
// §3.1 (from Kendall & Gibbons), the reason a fixed modest sample size n
// suffices regardless of the reference population size N.
func TauVarianceUpperBound(n int, tau float64) float64 {
	if n == 0 {
		return math.Inf(1)
	}
	return 2 * (1 - tau*tau) / float64(n)
}

// TauCompletionInterval deterministically bounds the full-sample
// Kendall statistic t_n = Σc(ri,rj)/C(n,2) given the numerator
// accumulated over the first m of the n sampled references. Each of
// the R = C(n,2) − C(m,2) concordance terms not yet observed lies in
// {−1, 0, +1}, so
//
//	t_n ∈ [ (num_m − R)/C(n,2), (num_m + R)/C(n,2) ]
//
// with no distributional assumption at all — the interval holds for
// every possible completion of the sample. It is the planner's
// fallback pruning bound: weak until m approaches n, but a pair pruned
// by it provably cannot reach the bar. The interval is clamped to
// [−1, 1]; m ≥ n yields the exact point num/C(n,2).
func TauCompletionInterval(numPrefix int64, m, n int) (lo, hi float64) {
	if n < 2 {
		return -1, 1
	}
	if m > n {
		m = n
	}
	if m < 0 {
		m = 0
	}
	pairsN := float64(n) * float64(n-1) / 2
	pairsM := float64(m) * float64(m-1) / 2
	r := pairsN - pairsM
	lo = (float64(numPrefix) - r) / pairsN
	hi = (float64(numPrefix) + r) / pairsN
	if lo < -1 {
		lo = -1
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// TauPrefixConfidenceInterval returns a conservative interval covering
// the full-sample statistic t_n given the estimate t computed on a
// prefix of m of the n references, at confidence ≥ 1−alpha. Both t_m
// and t_n are order-2 U-statistics of the same exchangeable sample,
// with the prefix a uniform sub-sample, so Hoeffding's projection
// identity Cov(t_m, t_n) = Var(t_n) applies and
//
//	Var(t_m − t_n) = Var(t_m) − Var(t_n) ≤ Var(t_m) ≤ 2(1−τ²)/m
//
// (the last step is the §3.1 bound). The half-width is therefore
// q(1−alpha/2)·√(2(1−t²)/m) — the full-sample term cancels entirely
// rather than adding, which is what makes late checkpoints sharp.
// Unlike TauCompletionInterval this can be violated (with probability
// ≤ alpha per evaluation); the screening planner uses it as the
// work-saving bound and intersects it with the deterministic one. The
// interval is clamped to [−1, 1]; degenerate inputs yield [−1, 1].
func TauPrefixConfidenceInterval(t float64, m, n int, alpha float64) (lo, hi float64) {
	if m < 2 || n < 2 || alpha <= 0 || alpha >= 1 {
		return -1, 1
	}
	q := NormalQuantile(1 - alpha/2)
	half := q * math.Sqrt(TauVarianceUpperBound(m, t))
	lo, hi = t-half, t+half
	if lo < -1 {
		lo = -1
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
