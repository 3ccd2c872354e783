package stats

import (
	"math/rand/v2"
	"testing"
)

// TestKendallAutoMatchesBothKernels verifies KendallAuto returns the
// identical TauResult both kernels produce, at sizes from 2 up past the
// old routing cutoff of 64, on tie-heavy data where kernel bugs would
// show.
func TestKendallAutoMatchesBothKernels(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 44))
	for _, n := range []int{2, 10, 63, 64, 65, 257} {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(rng.IntN(7)) // many ties
			y[i] = float64(rng.IntN(7))
		}
		auto := KendallAuto(x, y)
		if naive := KendallNaive(x, y); auto != naive {
			t.Fatalf("n=%d: auto %+v != naive %+v", n, auto, naive)
		}
		if knight := Kendall(x, y); auto != knight {
			t.Fatalf("n=%d: auto %+v != Knight %+v", n, auto, knight)
		}
	}
}
