package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// NullVariance returns the variance of the sampled statistic t(a,b)
// (Eq. 4) under the null hypothesis when no ties are present:
//
//	σ² = 2(2n+5) / (9 n (n−1))          (paper Eq. 5)
//
// A good normal approximation of t's null distribution holds for n > 30.
func NullVariance(n int) float64 {
	if n < 2 {
		return 0
	}
	nf := float64(n)
	return 2 * (2*nf + 5) / (9 * nf * (nf - 1))
}

func TestNullVarianceKnownValues(t *testing.T) {
	// Eq. 5: σ² = 2(2n+5)/(9n(n−1)).
	cases := []struct {
		n    int
		want float64
	}{
		{10, 2.0 * 25 / (9 * 10 * 9)},
		{30, 2.0 * 65 / (9 * 30 * 29)},
		{900, 2.0 * 1805 / (9 * 900 * 899)},
	}
	for _, tc := range cases {
		if got := NullVariance(tc.n); !almostEqual(got, tc.want, 1e-15) {
			t.Errorf("NullVariance(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	if NullVariance(1) != 0 || NullVariance(0) != 0 {
		t.Error("degenerate n should give 0")
	}
}

// The paper: "When these sizes all equal 1, Eq. (6) reduces to Eq. (5)
// multiplied by [n(n−1)/2]²."
func TestNumeratorVarianceReducesToEq5(t *testing.T) {
	for _, n := range []int{2, 5, 30, 100, 900} {
		ones := make([]int64, n)
		for i := range ones {
			ones[i] = 1
		}
		got := NumeratorVariance(n, ones, ones)
		n0 := float64(n) * float64(n-1) / 2
		want := NullVariance(n) * n0 * n0
		if !almostEqual(got, want, want*1e-12) {
			t.Errorf("n=%d: Eq6 = %g, Eq5·n0² = %g", n, got, want)
		}
		// nil tie slices mean "no ties" too
		if got2 := NumeratorVariance(n, nil, nil); !almostEqual(got2, want, want*1e-12) {
			t.Errorf("n=%d: nil ties variance = %g, want %g", n, got2, want)
		}
	}
}

// Property (paper §3.1): "more (larger) ties always lead to smaller σ_c²".
// Merging two tie groups into one must not increase the variance.
func TestVarianceMonotoneInTies(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		n := 10 + rng.IntN(50)
		// random tie partition of n
		var ties []int64
		left := int64(n)
		for left > 0 {
			s := 1 + rng.Int64N(left)
			ties = append(ties, s)
			left -= s
		}
		if len(ties) < 2 {
			return true
		}
		base := NumeratorVariance(n, ties, nil)
		// merge first two groups
		merged := append([]int64{ties[0] + ties[1]}, ties[2:]...)
		mergedVar := NumeratorVariance(n, merged, nil)
		return mergedVar <= base+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// MC validation: for random tie-free data under H0, the empirical variance
// of the numerator should match Eq. 5 within MC error.
func TestVarianceMonteCarloNoTies(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 5))
	const n, reps = 40, 3000
	var sum, sumSq float64
	x := make([]float64, n)
	y := make([]float64, n)
	for rep := 0; rep < reps; rep++ {
		for i := range x {
			x[i] = rng.Float64()
			y[i] = rng.Float64()
		}
		num := float64(Kendall(x, y).Numerator())
		sum += num
		sumSq += num * num
	}
	mean := sum / reps
	variance := sumSq/reps - mean*mean
	want := NumeratorVariance(n, nil, nil)
	if math.Abs(variance-want) > 0.12*want {
		t.Errorf("MC variance = %.1f, Eq.5 predicts %.1f", variance, want)
	}
	if math.Abs(mean) > 3*math.Sqrt(want/reps) {
		t.Errorf("MC mean = %.2f, want ≈0", mean)
	}
}

// MC validation with heavy ties: empirical variance must match Eq. 6, and
// be clearly below the tie-free Eq. 5 value.
func TestVarianceMonteCarloWithTies(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 5))
	const n, reps = 40, 3000
	x := make([]float64, n)
	y := make([]float64, n)
	var sum, sumSq float64
	var wantVar float64
	for rep := 0; rep < reps; rep++ {
		for i := range x {
			x[i] = float64(rng.IntN(3)) // heavy ties
			y[i] = float64(rng.IntN(3))
		}
		r := Kendall(x, y)
		num := float64(r.Numerator())
		sum += num
		sumSq += num * num
		wantVar += r.VarNum
	}
	mean := sum / reps
	variance := sumSq/reps - mean*mean
	wantVar /= reps // average tie-corrected variance over draws
	if math.Abs(variance-wantVar) > 0.12*wantVar {
		t.Errorf("MC variance = %.1f, Eq.6 predicts %.1f", variance, wantVar)
	}
	noTies := NumeratorVariance(n, nil, nil)
	if wantVar > 0.8*noTies {
		t.Errorf("tie-corrected variance %.1f not clearly below tie-free %.1f", wantVar, noTies)
	}
}

func TestZFromNumerator(t *testing.T) {
	if z := ZFromNumerator(10, 0); z != 0 {
		t.Errorf("zero-variance z = %f, want 0", z)
	}
	if z := ZFromNumerator(10, 25); z != 2 {
		t.Errorf("z = %f, want 2", z)
	}
	if z := ZFromNumerator(-10, 25); z != -2 {
		t.Errorf("z = %f, want -2", z)
	}
}

// TestTauConfidenceInterval checks the full-sample interval — the
// prefix interval with m = n — around a sampled τ.
func TestTauConfidenceInterval(t *testing.T) {
	ci := func(tau float64, n int, alpha float64) (lo, hi float64) {
		return TauPrefixConfidenceInterval(tau, n, n, alpha)
	}
	lo, hi := ci(0.3, 900, 0.05)
	if lo >= 0.3 || hi <= 0.3 {
		t.Errorf("interval [%g, %g] does not bracket the estimate", lo, hi)
	}
	// at the paper's n=900 the half-width is modest
	if hi-lo > 0.2 {
		t.Errorf("interval [%g, %g] too wide at n=900", lo, hi)
	}
	// clamping
	lo, hi = ci(0.99, 10, 0.05)
	if hi > 1 || lo < -1 {
		t.Errorf("interval [%g, %g] not clamped", lo, hi)
	}
	// degenerate inputs give the trivial interval
	lo, hi = ci(0, 1, 0.05)
	if lo != -1 || hi != 1 {
		t.Errorf("degenerate n interval [%g, %g]", lo, hi)
	}
	// smaller alpha widens the interval
	l1, h1 := ci(0, 100, 0.05)
	l2, h2 := ci(0, 100, 0.01)
	if h2-l2 <= h1-l1 {
		t.Error("99% interval should be wider than 95%")
	}
}

func TestTauVarianceUpperBound(t *testing.T) {
	// §3.1: Var(t) ≤ 2(1−τ²)/n regardless of N.
	if b := TauVarianceUpperBound(900, 0); !almostEqual(b, 2.0/900, 1e-15) {
		t.Errorf("bound = %g", b)
	}
	if b := TauVarianceUpperBound(100, 1); b != 0 {
		t.Errorf("bound at τ=1 should be 0, got %g", b)
	}
	if !math.IsInf(TauVarianceUpperBound(0, 0), 1) {
		t.Error("n=0 should give +Inf")
	}
	// the bound must dominate Eq. 5 (null τ=0 case)
	for _, n := range []int{10, 100, 1000} {
		if NullVariance(n) > TauVarianceUpperBound(n, 0) {
			t.Errorf("n=%d: Eq.5 %g exceeds the upper bound %g", n, NullVariance(n), TauVarianceUpperBound(n, 0))
		}
	}
}

func TestTauCompletionIntervalSound(t *testing.T) {
	// Property: for random paired samples, the interval computed from
	// any prefix numerator must contain the full-sample statistic —
	// deterministically, for every prefix length.
	rng := rand.New(rand.NewPCG(41, 17))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.IntN(60)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			// coarse grid to force ties
			x[i] = float64(rng.IntN(6))
			y[i] = float64(rng.IntN(6))
		}
		full := KendallNaive(x, y)
		for m := 2; m <= n; m++ {
			pre := KendallNaive(x[:m], y[:m])
			num := pre.Concordant - pre.Discordant
			lo, hi := TauCompletionInterval(num, m, n)
			if full.Tau < lo-1e-12 || full.Tau > hi+1e-12 {
				t.Fatalf("n=%d m=%d: t_n=%g outside deterministic interval [%g, %g]", n, m, full.Tau, lo, hi)
			}
		}
	}
}

func TestTauCompletionIntervalExactAtBoundary(t *testing.T) {
	// Adversarial construction: complete the sample so every remaining
	// concordance term is +1; the full statistic must land EXACTLY on
	// the interval's upper endpoint (the θ-crossing case a planner must
	// not prune on a strict comparison).
	x := []float64{1, 2, 3, 4, 10, 20, 30, 40}
	y := []float64{4, 3, 2, 1, 10, 20, 30, 40} // prefix fully discordant, suffix concordant with everything above prefix values
	m, n := 4, len(x)
	pre := KendallNaive(x[:m], y[:m])
	full := KendallNaive(x, y)
	num := pre.Concordant - pre.Discordant
	lo, hi := TauCompletionInterval(num, m, n)
	if full.Tau != hi {
		t.Fatalf("constructed completion should sit exactly at hi: t_n=%g, interval [%g, %g]", full.Tau, lo, hi)
	}
	// mirrored: every remaining term −1 lands exactly on lo
	y2 := []float64{1, 2, 3, 4, -10, -20, -30, -40}
	x2 := []float64{1, 2, 3, 4, 10, 20, 30, 40}
	pre2 := KendallNaive(x2[:m], y2[:m])
	full2 := KendallNaive(x2, y2)
	lo2, _ := TauCompletionInterval(pre2.Concordant-pre2.Discordant, m, n)
	if full2.Tau != lo2 {
		t.Fatalf("constructed completion should sit exactly at lo: t_n=%g, lo=%g", full2.Tau, lo2)
	}
}

func TestTauCompletionIntervalDegenerate(t *testing.T) {
	if lo, hi := TauCompletionInterval(0, 0, 1); lo != -1 || hi != 1 {
		t.Errorf("n<2 should give [-1,1], got [%g, %g]", lo, hi)
	}
	// m >= n pins the exact value
	if lo, hi := TauCompletionInterval(3, 9, 4); lo != hi || lo != 3.0/6 {
		t.Errorf("m>=n should collapse to the exact statistic, got [%g, %g]", lo, hi)
	}
	// clamped to [-1, 1]
	if lo, hi := TauCompletionInterval(100, 2, 5); lo < -1 || hi > 1 {
		t.Errorf("interval not clamped: [%g, %g]", lo, hi)
	}
}

func TestTauPrefixConfidenceInterval(t *testing.T) {
	// brackets the prefix estimate and widens as alpha shrinks
	lo, hi := TauPrefixConfidenceInterval(0.3, 64, 900, 1e-6)
	if lo >= 0.3 || hi <= 0.3 {
		t.Errorf("interval [%g, %g] does not bracket the estimate", lo, hi)
	}
	l2, h2 := TauPrefixConfidenceInterval(0.3, 64, 900, 1e-9)
	if h2-l2 <= hi-lo {
		t.Error("smaller alpha should widen the interval")
	}
	// growing the prefix tightens it
	l3, h3 := TauPrefixConfidenceInterval(0.3, 512, 900, 1e-6)
	if h3-l3 >= hi-lo {
		t.Error("larger prefix should tighten the interval")
	}
	// Hoeffding's projection identity cancels the full-sample variance
	// term entirely: the prefix interval is exactly the single-sample
	// interval at m, not inflated by n.
	cl, ch := TauPrefixConfidenceInterval(0.0, 100, 100, 0.01)
	pl, ph := TauPrefixConfidenceInterval(0.0, 100, 900, 0.01)
	if ph-pl != ch-cl {
		t.Errorf("prefix half-width %g should equal the m-sample half-width %g", ph-pl, ch-cl)
	}
	// degenerate inputs give the trivial interval
	for _, tc := range [][3]float64{{1, 900, 0.05}, {64, 900, 0}, {64, 900, 1}, {64, 1, 0.05}} {
		if lo, hi := TauPrefixConfidenceInterval(0, int(tc[0]), int(tc[1]), tc[2]); lo != -1 || hi != 1 {
			t.Errorf("degenerate %v should give [-1,1], got [%g, %g]", tc, lo, hi)
		}
	}
	// clamped
	if lo, hi := TauPrefixConfidenceInterval(0.99, 4, 8, 0.5); lo < -1 || hi > 1 {
		t.Errorf("interval not clamped: [%g, %g]", lo, hi)
	}
}

func TestTauPrefixConfidenceIntervalCoverage(t *testing.T) {
	// Monte-Carlo: |t_n − t_m| should exceed the half-width far less
	// often than alpha (the bound is conservative). Draw correlated
	// pairs, compute both statistics on nested samples.
	rng := rand.New(rand.NewPCG(7, 99))
	misses := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		n, m := 120, 40
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = 0.5*x[i] + rng.NormFloat64()
		}
		pre := KendallNaive(x[:m], y[:m])
		full := KendallNaive(x, y)
		lo, hi := TauPrefixConfidenceInterval(pre.Tau, m, n, 0.05)
		if full.Tau < lo || full.Tau > hi {
			misses++
		}
	}
	if float64(misses)/trials > 0.05 {
		t.Fatalf("coverage violated: %d/%d misses at alpha=0.05", misses, trials)
	}
}
