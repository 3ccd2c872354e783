package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// TestKendallDenseRanks pins the routing edges of KendallPrefix.Kendall
// on hand-made samples, each against KendallNaive: contingency tables
// at the table bound and one cell past it, a side with one distinct
// value, n = 2, −0 beside +0 (which must tie), and a side with n/2
// distinct values and one more (where an earlier version stopped
// ranking and sorted floats). A whole-sample Kendall leaves its prefix
// empty, so one prefix serves every case.
func TestKendallDenseRanks(t *testing.T) {
	// grid is n observations whose x takes dx values and y takes dy
	// (n ≥ dx, dy), y by the permutation i → step·i mod n of the
	// indices (step prime to n) so that the pairs spread over the
	// table's cells.
	grid := func(n, dx, dy int) (x, y []float64) {
		var step int
		for _, step = range []int{7, 11, 13} { // a prime not dividing n < 1001
			if n%step != 0 {
				break
			}
		}
		x, y = make([]float64, n), make([]float64, n)
		for i := range n {
			x[i] = float64(i%dx) / 3
			y[i] = float64(step*i%n%dy) / 7
		}
		if got := [2]int{len(TieSizes(x)), len(TieSizes(y))}; got != [2]int{dx, dy} {
			t.Fatalf("grid(%d, %d, %d) holds %d × %d distinct values", n, dx, dy, got[0], got[1])
		}
		return x, y
	}
	type denseCase struct {
		name string
		x, y []float64
	}
	var cases []denseCase
	add := func(name string, x, y []float64) { cases = append(cases, denseCase{name, x, y}) }
	// tableCase finds n and a dx × dy table of tableCells·n + extra
	// cells, neither side with more than n/2 distinct values.
	tableCase := func(extra int) (n, dx, dy int) {
		for n = 64; ; n++ {
			cells := tableCells*n + extra
			for dx = 2; dx <= n/2; dx++ {
				if dy = cells / dx; cells%dx == 0 && dy <= n/2 {
					return n, dx, dy
				}
			}
		}
	}
	for _, extra := range []int{0, 1} {
		n, dx, dy := tableCase(extra)
		x, y := grid(n, dx, dy)
		add(fmt.Sprintf("%d × %d table, %d cells past the bound", dx, dy, extra), x, y)
	}
	{
		x, y := grid(200, 1, 17)
		add("one distinct x", x, y)
		x, y = grid(200, 13, 1)
		add("one distinct y", x, y)
	}
	add("n = 2, tied", []float64{0.5, 0.5}, []float64{0.25, 0.25})
	add("n = 2, one distinct x", []float64{0.5, 0.5}, []float64{0.25, 0.75})
	add("n = 2, concordant", []float64{0.5, 1}, []float64{0.25, 0.75})
	{
		negZero := math.Copysign(0, -1)
		x, y := grid(150, 6, 5)
		for i := range x {
			if x[i] == 0 && i%2 == 1 {
				x[i] = negZero
			}
			if y[i] == 0 && i%3 == 0 {
				y[i] = negZero
			}
		}
		add("-0 beside +0", x, y)
	}
	for _, extra := range []int{0, 1} {
		// x has n/2 distinct values, then one more.
		const n = 200
		x, y := grid(n, n/2+extra, 9)
		add(fmt.Sprintf("x with n/2 + %d distinct values", extra), x, y)
		x, y = grid(n, 9, n/2+extra)
		add(fmt.Sprintf("y with n/2 + %d distinct values", extra), x, y)
	}
	var p KendallPrefix
	for _, tc := range cases {
		want := KendallNaive(tc.x, tc.y)
		if got := p.Kendall(tc.x, tc.y); got != want {
			t.Errorf("%s: Kendall %+v != KendallNaive %+v", tc.name, got, want)
		}
		if p.Len() != 0 {
			t.Errorf("%s: the prefix holds %d observations after Kendall", tc.name, p.Len())
		}
		if got := Kendall(tc.x, tc.y); got != want {
			t.Errorf("%s: pooled Kendall %+v != KendallNaive %+v", tc.name, got, want)
		}
	}
}

// readSample draws n density pairs shaped like one TESC read's: each
// reference node's vicinity holds 1..sizeMax nodes, and its densities
// are occurrence counts over that size, y near x (attraction), so a
// side holds few distinct values; a share zero of each side is zero.
func readSample(n, sizeMax int, zero float64, seed uint64) (x, y, omega []float64) {
	rng := rand.New(rand.NewPCG(seed, 323))
	x, y, omega = make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range n {
		size := 1 + rng.IntN(sizeMax)
		c := rng.IntN(size + 1)
		x[i] = float64(c) / float64(size)
		y[i] = float64(min(size, max(0, c+rng.IntN(3)-1))) / float64(size)
		if rng.Float64() < zero {
			x[i] = 0
		}
		if rng.Float64() < zero {
			y[i] = 0
		}
		omega[i] = float64(1+rng.IntN(3)) / float64(1+rng.IntN(40)) // frequency over union count
	}
	return x, y, omega
}

// BenchmarkKendallDensities times a whole-sample Kendall (the
// unweighted test's) and WeightedTau (the importance-sampled test's)
// on two read shapes: "h1" is correlate-h1-coord's h = 1 batch-bfs read
// (323 observations, 33 × 31 distinct values: a contingency table),
// "churn" churn-rw's h = 2 importance read (900, 149 × 153: ranks
// sorted as words).
func BenchmarkKendallDensities(b *testing.B) {
	for _, shape := range []struct {
		name       string
		n, sizeMax int
	}{{"h1", 323, 10}, {"churn", 900, 24}} {
		x, y, omega := readSample(shape.n, shape.sizeMax, 0.15, 1)
		b.Run(shape.name+"/kendall", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Kendall(x, y)
			}
		})
		b.Run(shape.name+"/weighted", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				WeightedTau(x, y, omega)
			}
		})
	}
}
