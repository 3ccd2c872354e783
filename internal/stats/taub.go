package stats

import "math"

// TauBResult reports Kendall's τ_b between two paired samples, the
// statistic the paper uses ([1], §5.4) for the Transaction Correlation
// (TC) baseline: nodes are treated as isolated transactions and the two
// events as binary (or graded) item columns.
type TauBResult struct {
	N    int
	TauB float64 // (C−D)/√((n0−n1)(n0−n2)), tie-adjusted normalization
	Z    float64 // same tie-corrected z as the plain τ test (Eq. 6/7)
}

// PValue returns the p-value for the given alternative.
func (r TauBResult) PValue(alt Alternative) float64 { return PValueZ(r.Z, alt) }

// BinaryTauB computes τ_b for two binary indicator samples given their
// 2×2 contingency counts in O(1):
//
//	n11 — both events present, n10 — only x, n01 — only y, n00 — neither.
//
// This is the fast path the TC baseline uses on whole-graph node
// transactions (up to millions of nodes): concordant pairs C = n11·n00,
// discordant D = n10·n01, and the tie structure collapses to the two
// margins of each indicator.
func BinaryTauB(n11, n10, n01, n00 int64) TauBResult {
	n := n11 + n10 + n01 + n00
	x1 := n11 + n10 // x = 1 margin
	x0 := n01 + n00
	y1 := n11 + n01
	y0 := n10 + n00

	c := n11 * n00
	d := n10 * n01
	varNum := NumeratorVariance(int(n), []int64{x1, x0}, []int64{y1, y0})
	r := TauResult{
		N:          int(n),
		Concordant: c,
		Discordant: d,
	}
	n0 := r.TotalPairs()
	n1 := x1*(x1-1)/2 + x0*(x0-1)/2
	n2 := y1*(y1-1)/2 + y0*(y0-1)/2
	r.VarNum = varNum
	r.Z = ZFromNumerator(float64(c-d), varNum)

	out := TauBResult{N: int(n), Z: r.Z}
	denom := math.Sqrt(float64(n0-n1) * float64(n0-n2))
	if denom > 0 {
		out.TauB = float64(c-d) / denom
	}
	return out
}
