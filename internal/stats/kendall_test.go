package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestKendallPerfectConcordance(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{10, 20, 30, 40, 50}
	for _, r := range []TauResult{KendallNaive(x, y), Kendall(x, y)} {
		if r.Tau != 1 {
			t.Errorf("tau = %f, want 1", r.Tau)
		}
		if r.Concordant != 10 || r.Discordant != 0 {
			t.Errorf("C=%d D=%d, want 10,0", r.Concordant, r.Discordant)
		}
		if r.Z <= 0 {
			t.Errorf("z = %f, want positive", r.Z)
		}
	}
}

func TestKendallPerfectDiscordance(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{5, 4, 3, 2, 1}
	for _, r := range []TauResult{KendallNaive(x, y), Kendall(x, y)} {
		if r.Tau != -1 {
			t.Errorf("tau = %f, want -1", r.Tau)
		}
		if r.Z >= 0 {
			t.Errorf("z = %f, want negative", r.Z)
		}
	}
}

func TestKendallKnownSmallCase(t *testing.T) {
	// Hand-computed: x = 1,2,3; y = 1,3,2.
	// pairs: (1,2):C (1,3):C (2,3):D → num = 1, tau = 1/3.
	x := []float64{1, 2, 3}
	y := []float64{1, 3, 2}
	r := Kendall(x, y)
	if r.Concordant != 2 || r.Discordant != 1 {
		t.Fatalf("C=%d D=%d, want 2,1", r.Concordant, r.Discordant)
	}
	if !almostEqual(r.Tau, 1.0/3, 1e-15) {
		t.Errorf("tau = %f, want 1/3", r.Tau)
	}
}

func TestKendallWithTies(t *testing.T) {
	// x has a tie group {2,2}; y has {7,7}.
	x := []float64{1, 2, 2, 3}
	y := []float64{7, 7, 8, 9}
	rn := KendallNaive(x, y)
	rf := Kendall(x, y)
	// pairs: (0,1): dy=0 → tieY; (0,2): C; (0,3): C; (1,2): dx=0 → tieX;
	// (1,3): C; (2,3): C.
	if rn.Concordant != 4 || rn.Discordant != 0 || rn.TiesX != 1 || rn.TiesY != 1 || rn.TiesBoth != 0 {
		t.Fatalf("naive counts = %+v", rn)
	}
	if rf != rn {
		t.Fatalf("fast %+v != naive %+v", rf, rn)
	}
}

func TestKendallBothTied(t *testing.T) {
	x := []float64{1, 1, 2}
	y := []float64{5, 5, 6}
	r := Kendall(x, y)
	if r.TiesBoth != 1 || r.Concordant != 2 {
		t.Fatalf("counts = %+v", r)
	}
}

func TestKendallAllTied(t *testing.T) {
	x := []float64{3, 3, 3, 3}
	y := []float64{1, 1, 1, 1}
	r := Kendall(x, y)
	if r.Tau != 0 {
		t.Errorf("tau = %f, want 0", r.Tau)
	}
	if r.VarNum != 0 {
		t.Errorf("variance = %f, want 0 (all ties)", r.VarNum)
	}
	if r.Z != 0 {
		t.Errorf("z = %f, want 0 for degenerate sample", r.Z)
	}
}

func TestKendallTinyInputs(t *testing.T) {
	for _, n := range []int{0, 1} {
		x := make([]float64, n)
		y := make([]float64, n)
		r := Kendall(x, y)
		if r.Tau != 0 || r.Z != 0 {
			t.Errorf("n=%d: tau=%f z=%f, want zeros", n, r.Tau, r.Z)
		}
	}
}

func TestKendallLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Kendall([]float64{1}, []float64{1, 2})
}

// TestKendallFastMatchesNaive is the central differential test: the
// O(n log n) implementation must agree exactly with pair enumeration on
// random data with heavy ties.
func TestKendallFastMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 23))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.IntN(60)
		vals := 1 + rng.IntN(6) // few distinct values → many ties
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.IntN(vals))
			y[i] = float64(rng.IntN(vals))
		}
		rn := KendallNaive(x, y)
		rf := Kendall(x, y)
		if rn != rf {
			t.Fatalf("trial %d (n=%d):\nnaive %+v\nfast  %+v\nx=%v\ny=%v", trial, n, rn, rf, x, y)
		}
	}
}

// Property: τ ∈ [−1, 1] and pair counts partition n(n−1)/2.
func TestKendallInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := 2 + rng.IntN(40)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.IntN(8))
			y[i] = rng.Float64()
		}
		r := Kendall(x, y)
		total := r.Concordant + r.Discordant + r.TiesX + r.TiesY + r.TiesBoth
		return r.Tau >= -1 && r.Tau <= 1 && total == r.TotalPairs()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: swapping the two samples leaves τ unchanged (symmetry), and
// negating y flips its sign.
func TestKendallSymmetryAndSignFlip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		n := 2 + rng.IntN(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.IntN(10))
			y[i] = float64(rng.IntN(10))
		}
		r1 := Kendall(x, y)
		r2 := Kendall(y, x)
		neg := make([]float64, n)
		for i := range y {
			neg[i] = -y[i]
		}
		r3 := Kendall(x, neg)
		return almostEqual(r1.Tau, r2.Tau, 1e-12) &&
			almostEqual(r1.Z, r2.Z, 1e-12) &&
			almostEqual(r1.Tau, -r3.Tau, 1e-12) &&
			almostEqual(r1.Z, -r3.Z, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: τ is invariant under strictly monotone transforms of either
// sample (it is a rank statistic).
func TestKendallMonotoneInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		n := 2 + rng.IntN(30)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64() * 10
			y[i] = float64(rng.IntN(5))
		}
		tx := make([]float64, n)
		for i := range x {
			tx[i] = math.Exp(x[i]) // strictly increasing
		}
		return Kendall(x, y) == Kendall(tx, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTieSizes(t *testing.T) {
	sizes := TieSizes([]float64{3, 1, 3, 3, 2, 1})
	// sorted: 1,1,2,3,3,3 → groups 2,1,3
	want := []int64{2, 1, 3}
	if len(sizes) != len(want) {
		t.Fatalf("sizes = %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
	if TieSizes(nil) != nil {
		t.Error("TieSizes(nil) should be nil")
	}
}

func TestCountInversions(t *testing.T) {
	cases := []struct {
		in   []float64
		want int64
	}{
		{nil, 0},
		{[]float64{1}, 0},
		{[]float64{1, 2, 3}, 0},
		{[]float64{3, 2, 1}, 3},
		{[]float64{2, 1, 3}, 1},
		{[]float64{1, 1, 1}, 0}, // ties are not inversions
		{[]float64{2, 1, 2, 1}, 3},
	}
	for _, tc := range cases {
		in := append([]float64(nil), tc.in...)
		if got := countInversionsBuf(in, make([]float64, len(in))); got != tc.want {
			t.Errorf("countInversions(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestTauResultHelpers(t *testing.T) {
	r := Kendall([]float64{1, 2, 3, 4}, []float64{1, 2, 3, 4})
	if PValueZ(r.Z, Greater) >= PValueZ(r.Z, Less) {
		t.Error("perfect concordance should favor Greater")
	}
	if r.String() == "" {
		t.Error("String() empty")
	}
	if r.TotalPairs() != 6 {
		t.Errorf("TotalPairs = %d", r.TotalPairs())
	}
}
