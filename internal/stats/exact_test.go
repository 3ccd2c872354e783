package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

// The asymptotic normality of τ's null distribution is only a good
// approximation for n > 30 (Kendall & Gibbons, quoted in §3.1 of the
// paper). This file keeps, as a test oracle for that approximation, the
// exact null distribution of the τ numerator under H0 (all rankings equally
// likely, no ties): the number of permutations of n items with k
// inversions — the Mahonian distribution — computed by the classical
// insertion recurrence on probabilities:
//
//	f_n(k) = (1/n) · Σ_{j=0..n-1} f_{n-1}(k−j)
//
// Under H0 the observed discordant-pair count D is Mahonian(n), and the
// numerator is C − D = n(n−1)/2 − 2D.

// exactCache memoizes the inversion-count distributions per n.
var exactCache sync.Map // int → []float64 (probabilities over k = 0..n(n-1)/2)

// MaxExactN bounds the exact computation; beyond it the table would be
// large and the normal approximation is excellent anyway.
const MaxExactN = 170

// mahonian returns the probability mass function of the inversion count
// of a uniform random permutation of n items.
func mahonian(n int) []float64 {
	if v, ok := exactCache.Load(n); ok {
		return v.([]float64)
	}
	pmf := []float64{1} // n = 1: zero inversions
	for m := 2; m <= n; m++ {
		maxK := m * (m - 1) / 2
		next := make([]float64, maxK+1)
		// prefix sums of pmf for O(1) window sums
		prefix := make([]float64, len(pmf)+1)
		for i, p := range pmf {
			prefix[i+1] = prefix[i] + p
		}
		for k := 0; k <= maxK; k++ {
			lo := k - (m - 1)
			if lo < 0 {
				lo = 0
			}
			hi := k
			if hi > len(pmf)-1 {
				hi = len(pmf) - 1
			}
			if lo <= hi {
				next[k] = (prefix[hi+1] - prefix[lo]) / float64(m)
			}
		}
		pmf = next
	}
	exactCache.Store(n, pmf)
	return pmf
}

// ExactNullPValue returns the exact p-value of an observed τ-numerator
// (C − D) for a tie-free sample of size n under the given alternative:
//
//	Greater:  P(numerator ≥ observed)
//	Less:     P(numerator ≤ observed)
//	TwoSided: P(|numerator| ≥ |observed|)
//
// It returns an error for n < 2, n > MaxExactN, or an observed value
// outside the attainable range / parity (the numerator always has the
// same parity as n(n−1)/2).
func ExactNullPValue(n int, numerator int64, alt Alternative) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("stats: exact test requires n >= 2, got %d", n)
	}
	if n > MaxExactN {
		return 0, fmt.Errorf("stats: exact test limited to n <= %d, got %d", MaxExactN, n)
	}
	n0 := int64(n) * int64(n-1) / 2
	if numerator < -n0 || numerator > n0 {
		return 0, fmt.Errorf("stats: numerator %d outside [-%d, %d]", numerator, n0, n0)
	}
	if (n0-numerator)%2 != 0 {
		return 0, fmt.Errorf("stats: numerator %d has impossible parity for n = %d", numerator, n)
	}
	pmf := mahonian(n)
	// numerator = n0 − 2D  ⟺  D = (n0 − numerator)/2
	d := (n0 - numerator) / 2

	tailGE := func(dMax int64) float64 { // P(D ≤ dMax) = P(numerator ≥ n0 − 2 dMax)
		var s float64
		for k := int64(0); k <= dMax && k < int64(len(pmf)); k++ {
			s += pmf[k]
		}
		return s
	}
	switch alt {
	case Greater:
		return tailGE(d), nil
	case Less:
		// P(numerator ≤ observed) = P(D ≥ d)
		var s float64
		for k := d; k < int64(len(pmf)); k++ {
			s += pmf[k]
		}
		return s, nil
	default:
		if numerator == 0 {
			return 1, nil
		}
		abs := numerator
		if abs < 0 {
			abs = -abs
		}
		dHi := (n0 - abs) / 2 // D for numerator = +|obs|
		dLo := (n0 + abs) / 2 // D for numerator = −|obs|
		var s float64
		for k := int64(0); k <= dHi && k < int64(len(pmf)); k++ {
			s += pmf[k]
		}
		for k := dLo; k < int64(len(pmf)); k++ {
			s += pmf[k]
		}
		if s > 1 {
			s = 1
		}
		return s, nil
	}
}

// ExactKendall runs the tie-free Kendall test with an exact p-value: it
// computes the τ statistic with Kendall (erroring if ties are present,
// since the Mahonian null assumes distinct ranks) and evaluates the
// observed numerator against the exact null distribution.
func ExactKendall(x, y []float64, alt Alternative) (TauResult, float64, error) {
	r := Kendall(x, y)
	if r.TiesX+r.TiesY+r.TiesBoth > 0 {
		return r, 0, fmt.Errorf("stats: exact test requires tie-free samples (found %d tied pairs)",
			r.TiesX+r.TiesY+r.TiesBoth)
	}
	p, err := ExactNullPValue(r.N, r.Numerator(), alt)
	return r, p, err
}

func TestMahonianSmall(t *testing.T) {
	// n=3: 6 permutations with inversion counts 0,1,1,2,2,3.
	pmf := mahonian(3)
	want := []float64{1.0 / 6, 2.0 / 6, 2.0 / 6, 1.0 / 6}
	if len(pmf) != len(want) {
		t.Fatalf("pmf = %v", pmf)
	}
	for k := range want {
		if !almostEqual(pmf[k], want[k], 1e-15) {
			t.Fatalf("pmf = %v, want %v", pmf, want)
		}
	}
}

func TestMahonianSumsToOne(t *testing.T) {
	for _, n := range []int{2, 5, 10, 30, 60, MaxExactN} {
		pmf := mahonian(n)
		var s float64
		for _, p := range pmf {
			s += p
		}
		if !almostEqual(s, 1, 1e-9) {
			t.Errorf("n=%d: pmf sums to %.12f", n, s)
		}
		// symmetry: reversing a permutation maps k inversions to n0-k
		for k := 0; k < len(pmf)/2; k++ {
			if !almostEqual(pmf[k], pmf[len(pmf)-1-k], 1e-12) {
				t.Errorf("n=%d: pmf not symmetric at %d", n, k)
				break
			}
		}
	}
}

func TestExactNullPValueKnown(t *testing.T) {
	// n=3, numerator=3 (perfect concordance): P = 1/6 one-tailed.
	p, err := ExactNullPValue(3, 3, Greater)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p, 1.0/6, 1e-15) {
		t.Errorf("p = %g, want 1/6", p)
	}
	// two-sided doubles it
	p2, _ := ExactNullPValue(3, 3, TwoSided)
	if !almostEqual(p2, 2.0/6, 1e-15) {
		t.Errorf("two-sided p = %g, want 1/3", p2)
	}
	// numerator = -3: Less tail = 1/6, Greater tail = 1
	pl, _ := ExactNullPValue(3, -3, Less)
	if !almostEqual(pl, 1.0/6, 1e-15) {
		t.Errorf("Less p = %g", pl)
	}
	pg, _ := ExactNullPValue(3, -3, Greater)
	if !almostEqual(pg, 1, 1e-15) {
		t.Errorf("Greater p at minimum = %g, want 1", pg)
	}
	// numerator 0 (even n0 required): n=4, n0=6, numerator 0
	p0, err := ExactNullPValue(4, 0, TwoSided)
	if err != nil {
		t.Fatal(err)
	}
	if p0 != 1 {
		t.Errorf("p at numerator 0 = %g, want 1", p0)
	}
}

func TestExactNullPValueErrors(t *testing.T) {
	if _, err := ExactNullPValue(1, 0, Greater); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := ExactNullPValue(MaxExactN+1, 0, Greater); err == nil {
		t.Error("n too large accepted")
	}
	if _, err := ExactNullPValue(3, 5, Greater); err == nil {
		t.Error("numerator out of range accepted")
	}
	if _, err := ExactNullPValue(3, 2, Greater); err == nil {
		t.Error("impossible parity accepted (n0=3 is odd)")
	}
}

// The exact p-value must converge to the normal approximation as n grows.
func TestExactMatchesNormalApproximation(t *testing.T) {
	for _, n := range []int{30, 60, 100} {
		n0 := int64(n) * int64(n-1) / 2
		// pick a numerator near 2σ with the right parity
		sigma := math.Sqrt(NumeratorVariance(n, nil, nil))
		num := int64(2 * sigma)
		if (n0-num)%2 != 0 {
			num++
		}
		exact, err := ExactNullPValue(n, num, Greater)
		if err != nil {
			t.Fatal(err)
		}
		approx := PValueZ(float64(num)/sigma, Greater)
		if math.Abs(exact-approx) > 0.01 {
			t.Errorf("n=%d: exact %.4f vs normal %.4f", n, exact, approx)
		}
	}
}

// Monte-Carlo cross-check of the exact distribution.
func TestExactNullMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 1))
	const n, reps = 8, 20000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	// empirical P(numerator >= 10)
	const threshold = 10
	count := 0
	for rep := 0; rep < reps; rep++ {
		perm := rng.Perm(n)
		for i, p := range perm {
			y[i] = float64(p)
		}
		if Kendall(x, y).Numerator() >= threshold {
			count++
		}
	}
	want, err := ExactNullPValue(n, threshold, Greater)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(count) / reps
	sigma := math.Sqrt(want * (1 - want) / reps)
	if math.Abs(got-want) > 5*sigma {
		t.Errorf("MC tail %.4f vs exact %.4f (±%.4f)", got, want, 5*sigma)
	}
}

func TestExactKendall(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 1, 4, 3, 5}
	r, p, err := ExactKendall(x, y, Greater)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 5 || p <= 0 || p >= 1 {
		t.Errorf("r=%+v p=%g", r, p)
	}
	// ties rejected
	_, _, err = ExactKendall([]float64{1, 1, 2}, []float64{1, 2, 3}, Greater)
	if err == nil {
		t.Error("tied sample accepted by exact test")
	}
}
