package stats

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// WeightedTauNaive computes Eq. 8 by pair enumeration in O(n²), the
// oracle for WeightedTau.
func WeightedTauNaive(x, y, omega []float64) WeightedTauResult {
	n := mustSameLen(x, y)
	if len(omega) != n {
		panic("stats: weight vector length mismatch")
	}
	var r WeightedTauResult
	r.N = n
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := omega[i] * omega[j]
			r.Denominator += w
			dx, dy := x[i]-x[j], y[i]-y[j]
			switch {
			case dx*dy > 0:
				r.Numerator += w
			case dx != 0 && dy != 0:
				r.Numerator -= w
			}
		}
	}
	if r.Denominator > 0 {
		r.Tau = r.Numerator / r.Denominator
	}
	return r
}

func TestWeightedTauUnitWeightsMatchPlain(t *testing.T) {
	// With ωi = 1 the estimator degenerates to plain τ (Eq. 8 → Eq. 4).
	rng := rand.New(rand.NewPCG(31, 1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.IntN(40)
		x := make([]float64, n)
		y := make([]float64, n)
		ones := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.IntN(6))
			y[i] = float64(rng.IntN(6))
			ones[i] = 1
		}
		plain := Kendall(x, y)
		w := WeightedTau(x, y, ones)
		if !almostEqual(w.Tau, plain.Tau, 1e-12) {
			t.Fatalf("trial %d: weighted τ with unit weights = %g, plain = %g", trial, w.Tau, plain.Tau)
		}
		if !almostEqual(w.Numerator, float64(plain.Numerator()), 1e-9) {
			t.Fatalf("numerator %g != %d", w.Numerator, plain.Numerator())
		}
	}
}

// Differential test: Fenwick-tree implementation vs O(n²) enumeration.
func TestWeightedTauFastMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 1))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.IntN(50)
		x := make([]float64, n)
		y := make([]float64, n)
		w := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.IntN(5))
			y[i] = float64(rng.IntN(5))
			w[i] = 0.1 + rng.Float64()*5
		}
		naive := WeightedTauNaive(x, y, w)
		fast := WeightedTau(x, y, w)
		tol := 1e-9 * (1 + naive.Denominator)
		if !almostEqual(naive.Numerator, fast.Numerator, tol) ||
			!almostEqual(naive.Denominator, fast.Denominator, tol) {
			t.Fatalf("trial %d:\nnaive %+v\nfast  %+v", trial, naive, fast)
		}
	}
}

func TestWeightedTauPerfectCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	w := []float64{1, 5, 2, 0.5}
	r := WeightedTau(x, y, w)
	if !almostEqual(r.Tau, 1, 1e-12) {
		t.Errorf("weighted τ = %g, want 1 (no discordance, no ties)", r.Tau)
	}
	yd := []float64{8, 6, 4, 2}
	rd := WeightedTau(x, yd, w)
	if !almostEqual(rd.Tau, -1, 1e-12) {
		t.Errorf("weighted τ = %g, want -1", rd.Tau)
	}
}

func TestWeightedTauTiny(t *testing.T) {
	r := WeightedTau([]float64{1}, []float64{1}, []float64{2})
	if r.Tau != 0 || r.Numerator != 0 {
		t.Errorf("single observation should give zero estimator: %+v", r)
	}
	r0 := WeightedTau(nil, nil, nil)
	if r0.Tau != 0 {
		t.Errorf("empty input: %+v", r0)
	}
}

func TestWeightedTauMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WeightedTau([]float64{1, 2}, []float64{1, 2}, []float64{1})
}

// Property: scaling all weights by a constant leaves τ̃ unchanged.
func TestWeightedTauScaleInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := 2 + rng.IntN(30)
		x := make([]float64, n)
		y := make([]float64, n)
		w := make([]float64, n)
		ws := make([]float64, n)
		scale := 0.5 + rng.Float64()*10
		for i := range x {
			x[i] = float64(rng.IntN(6))
			y[i] = float64(rng.IntN(6))
			w[i] = 0.1 + rng.Float64()
			ws[i] = w[i] * scale
		}
		a := WeightedTau(x, y, w)
		b := WeightedTau(x, y, ws)
		return almostEqual(a.Tau, b.Tau, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompressRanks(t *testing.T) {
	ranks, k := compressRanks([]float64{3.5, 1.0, 3.5, 2.0})
	if k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
	want := []int{3, 1, 3, 2}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
}

func TestFenwick(t *testing.T) {
	f := newFenwick(8)
	f.add(3, 2.5)
	f.add(5, 1.5)
	f.add(3, 1.0)
	if got := f.prefix(2); got != 0 {
		t.Errorf("prefix(2) = %g", got)
	}
	if got := f.prefix(3); got != 3.5 {
		t.Errorf("prefix(3) = %g", got)
	}
	if got := f.prefix(8); got != 5.0 {
		t.Errorf("prefix(8) = %g", got)
	}
	if f.total() != 5.0 {
		t.Errorf("total = %g", f.total())
	}
}
