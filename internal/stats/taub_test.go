package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestTauBNoTiesEqualsPlainTau(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 1, 4, 3, 5}
	plain := Kendall(x, y)
	tb := TauB(x, y)
	if !almostEqual(tb.TauB, plain.Tau, 1e-12) {
		t.Errorf("τ_b = %g, τ = %g: must agree without ties", tb.TauB, plain.Tau)
	}
	if tb.Z != plain.Z {
		t.Errorf("z differs: %g vs %g", tb.Z, plain.Z)
	}
}

func TestTauBBinaryAgreesWithGeneric(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 1))
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.IntN(200)
		x := make([]float64, n)
		y := make([]float64, n)
		var n11, n10, n01, n00 int64
		for i := range x {
			xi := rng.IntN(2)
			yi := rng.IntN(2)
			x[i], y[i] = float64(xi), float64(yi)
			switch {
			case xi == 1 && yi == 1:
				n11++
			case xi == 1:
				n10++
			case yi == 1:
				n01++
			default:
				n00++
			}
		}
		gen := TauB(x, y)
		bin := BinaryTauB(n11, n10, n01, n00)
		if !almostEqual(gen.TauB, bin.TauB, 1e-9) || !almostEqual(gen.Z, bin.Z, 1e-9) {
			t.Fatalf("trial %d: generic %+v vs binary %+v (n11=%d n10=%d n01=%d n00=%d)",
				trial, gen, bin, n11, n10, n01, n00)
		}
	}
}

func TestBinaryTauBPerfectAssociation(t *testing.T) {
	r := BinaryTauB(50, 0, 0, 50)
	if !almostEqual(r.TauB, 1, 1e-12) {
		t.Errorf("τ_b = %g, want 1 for perfect association", r.TauB)
	}
	if r.Z <= 0 {
		t.Errorf("z = %g, want positive", r.Z)
	}
	neg := BinaryTauB(0, 50, 50, 0)
	if !almostEqual(neg.TauB, -1, 1e-12) {
		t.Errorf("τ_b = %g, want -1", neg.TauB)
	}
}

func TestBinaryTauBIndependence(t *testing.T) {
	// exactly proportional table → τ_b = 0
	r := BinaryTauB(25, 25, 25, 25)
	if r.TauB != 0 || r.Z != 0 {
		t.Errorf("independent table gives τ_b=%g z=%g, want 0,0", r.TauB, r.Z)
	}
}

func TestBinaryTauBDegenerateMargin(t *testing.T) {
	// x constant → τ_b undefined, reported as 0
	r := BinaryTauB(10, 0, 5, 0)
	if r.TauB != 0 {
		t.Errorf("degenerate margin τ_b = %g, want 0", r.TauB)
	}
}

func TestSpearmanBasic(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	r := Spearman(x, x)
	if !almostEqual(r.Rho, 1, 1e-12) {
		t.Errorf("ρ = %g, want 1", r.Rho)
	}
	y := []float64{5, 4, 3, 2, 1}
	r2 := Spearman(x, y)
	if !almostEqual(r2.Rho, -1, 1e-12) {
		t.Errorf("ρ = %g, want -1", r2.Rho)
	}
	if r2.Z >= 0 {
		t.Errorf("z = %g, want negative", r2.Z)
	}
}

func TestSpearmanTiesAndConstant(t *testing.T) {
	x := []float64{1, 1, 2, 2}
	y := []float64{1, 2, 3, 4}
	r := Spearman(x, y)
	if r.Rho <= 0 || r.Rho >= 1 {
		t.Errorf("ρ = %g, want in (0,1) for tied increasing data", r.Rho)
	}
	c := Spearman([]float64{3, 3, 3}, y[:3])
	if c.Rho != 0 {
		t.Errorf("constant sample ρ = %g, want 0", c.Rho)
	}
	tiny := Spearman([]float64{1}, []float64{2})
	if tiny.Rho != 0 || tiny.Z != 0 {
		t.Errorf("n=1 should give zeros: %+v", tiny)
	}
}

func TestSpearmanAgreesWithKendallSign(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 1))
	agree := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		n := 20
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
			y[i] = x[i]*0.7 + rng.Float64()*0.6 // positively related
		}
		k := Kendall(x, y)
		s := Spearman(x, y)
		if (k.Tau > 0) == (s.Rho > 0) {
			agree++
		}
	}
	if agree < 95 {
		t.Errorf("Kendall and Spearman disagree on sign in %d/%d trials", trials-agree, trials)
	}
}

func TestMidRanks(t *testing.T) {
	ranks := midRanks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3}
	if p := pearson(x, []float64{2, 4, 6}); !almostEqual(p, 1, 1e-12) {
		t.Errorf("pearson = %g, want 1", p)
	}
	if p := pearson(x, []float64{6, 4, 2}); !almostEqual(p, -1, 1e-12) {
		t.Errorf("pearson = %g, want -1", p)
	}
}

// TauB computes Kendall's τ_b of two paired samples in O(n log n), the
// oracle BinaryTauB's O(1) contingency-table form must agree with. Its
// z equals the plain Kendall test's: τ_b only changes the point
// estimate's normalization, which the significance computation cancels
// (as the paper notes at the end of §3.1).
func TauB(x, y []float64) TauBResult {
	r := Kendall(x, y)
	n0 := float64(r.TotalPairs())
	n1 := float64(r.TiesX + r.TiesBoth)
	n2 := float64(r.TiesY + r.TiesBoth)
	out := TauBResult{N: r.N, Z: r.Z}
	if denom := math.Sqrt((n0 - n1) * (n0 - n2)); denom > 0 {
		out.TauB = float64(r.Numerator()) / denom
	}
	return out
}
