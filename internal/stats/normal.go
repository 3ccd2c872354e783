package stats

import (
	"fmt"
	"math"
)

// Alternative selects the alternative hypothesis of a test.
type Alternative int

const (
	// TwoSided tests H1: correlation ≠ 0.
	TwoSided Alternative = iota
	// Greater tests H1: correlation > 0 (attraction).
	Greater
	// Less tests H1: correlation < 0 (repulsion).
	Less
)

// String names the alternative.
func (a Alternative) String() string {
	switch a {
	case TwoSided:
		return "two-sided"
	case Greater:
		return "greater"
	case Less:
		return "less"
	default:
		return fmt.Sprintf("Alternative(%d)", int(a))
	}
}

// NormalCDF returns Φ(z), the standard normal distribution function.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalSF returns the survival function 1 − Φ(z), computed directly from
// erfc to stay accurate in the far right tail.
func NormalSF(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// PValueZ converts a z-score to a p-value for the given alternative.
func PValueZ(z float64, alt Alternative) float64 {
	switch alt {
	case Greater:
		return NormalSF(z)
	case Less:
		return NormalCDF(z)
	default:
		return 2 * NormalSF(math.Abs(z))
	}
}

// NormalQuantile returns Φ⁻¹(p) for p ∈ (0, 1): the z value with
// Φ(z) = p. It uses the Acklam rational approximation refined by one
// Halley step, accurate to ~1e-15 over the full open interval.
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0:
			return math.Inf(-1)
		case p == 1:
			return math.Inf(1)
		default:
			return math.NaN()
		}
	}

	// Acklam's coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}
