package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct {
		z, want float64
	}{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145705},
		{1.959963984540054, 0.975},
		{2.33, 0.990096924440836},
		{-2.33, 0.009903075559164},
	}
	for _, tc := range cases {
		if got := NormalCDF(tc.z); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("NormalCDF(%g) = %.15f, want %.15f", tc.z, got, tc.want)
		}
	}
}

func TestNormalSFComplement(t *testing.T) {
	for _, z := range []float64{-5, -1, 0, 0.5, 3, 8} {
		if got, want := NormalSF(z), 1-NormalCDF(z); !almostEqual(got, want, 1e-12) {
			t.Errorf("SF(%g) = %g, 1-CDF = %g", z, got, want)
		}
	}
	// far tail stays positive where naive 1-CDF would round to 0
	if NormalSF(30) <= 0 {
		t.Error("far-tail SF underflowed to 0")
	}
	if 1-NormalCDF(30) != 0 {
		t.Skip("naive complement unexpectedly survived; tolerance check moot")
	}
}

func TestPaperZScoreThreshold(t *testing.T) {
	// §5.4: "a z-score > 2.33 or < −2.33 indicates the corresponding
	// p-value < 0.01 for one-tailed significance testing."
	if p := PValueZ(2.33, Greater); p >= 0.01 {
		t.Errorf("P(z>2.33) = %f, want < 0.01", p)
	}
	if p := PValueZ(-2.33, Less); p >= 0.01 {
		t.Errorf("P(z<-2.33) = %f, want < 0.01", p)
	}
	if p := PValueZ(2.32, Greater); p <= 0.01 {
		t.Errorf("P(z>2.32) = %f, want > 0.01", p)
	}
}

func TestPValueZAlternatives(t *testing.T) {
	z := 1.5
	pg := PValueZ(z, Greater)
	pl := PValueZ(z, Less)
	pt := PValueZ(z, TwoSided)
	if !almostEqual(pg+pl, 1, 1e-12) {
		t.Errorf("one-tailed p-values don't sum to 1: %g + %g", pg, pl)
	}
	if !almostEqual(pt, 2*pg, 1e-12) {
		t.Errorf("two-sided = %g, want 2·%g", pt, pg)
	}
	// symmetric z
	if !almostEqual(PValueZ(-z, TwoSided), pt, 1e-12) {
		t.Error("two-sided p not symmetric in z")
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.95, 1.6448536269514722},
		{0.99, 2.3263478740408408},
		{0.025, -1.959963984540054},
		{1e-10, -6.361340902404056},
	}
	for _, tc := range cases {
		if got := NormalQuantile(tc.p); !almostEqual(got, tc.want, 1e-9) {
			t.Errorf("NormalQuantile(%g) = %.12f, want %.12f", tc.p, got, tc.want)
		}
	}
}

func TestNormalQuantileEdgeCases(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Error("quantile(0) should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Error("quantile(1) should be +Inf")
	}
	if !math.IsNaN(NormalQuantile(-0.5)) || !math.IsNaN(NormalQuantile(1.5)) || !math.IsNaN(NormalQuantile(math.NaN())) {
		t.Error("out-of-range p should give NaN")
	}
}

// Property: quantile and CDF are inverse over (0,1).
func TestNormalQuantileRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Abs(math.Mod(raw, 1))
		if p <= 1e-12 || p >= 1-1e-12 {
			return true
		}
		z := NormalQuantile(p)
		return almostEqual(NormalCDF(z), p, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlternativeString(t *testing.T) {
	if TwoSided.String() != "two-sided" || Greater.String() != "greater" || Less.String() != "less" {
		t.Error("Alternative names wrong")
	}
	if Alternative(42).String() == "" {
		t.Error("unknown alternative should still format")
	}
}
