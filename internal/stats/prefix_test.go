package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// tieValue decodes one byte into a tie-heavy value: a quarter are
// zeros of either sign, the rest small-integer ratios (num 0..7 over
// den 1..4, so 1/2 and 2/4 tie across different encodings), an eighth
// of them negated.
func tieValue(b byte) float64 {
	switch b >> 5 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	}
	v := float64(b&7) / float64(1+(b>>3)&3)
	if b>>5 == 7 {
		v = -v
	}
	return v
}

// checkPrefixChain feeds x, y to a KendallPrefix in the chunks cuts
// gives and requires every Extend to equal Kendall and KendallNaive on
// the concatenated prefix.
func checkPrefixChain(t *testing.T, p *KendallPrefix, x, y []float64, cuts []int) {
	t.Helper()
	p.Reset()
	m := 0
	for _, c := range cuts {
		got := p.Extend(x[m:m+c], y[m:m+c])
		m += c
		if p.Len() != m {
			t.Fatalf("Len = %d after %d observations", p.Len(), m)
		}
		if want := Kendall(x[:m], y[:m]); got != want {
			t.Fatalf("prefix %d (cuts %v): Extend %+v != Kendall %+v", m, cuts, got, want)
		}
		if want := KendallNaive(x[:m], y[:m]); got != want {
			t.Fatalf("prefix %d (cuts %v): Extend %+v != KendallNaive %+v", m, cuts, got, want)
		}
	}
}

// FuzzKendallPrefix pits the incremental prefix against from-scratch
// Kendall at every chunk boundary. data holds the observations (two
// bytes each, decoded by tieValue); each byte of cuts is one chunk
// size (0..47, empty chunks included), the rest of the sample is the
// last chunk.
func FuzzKendallPrefix(f *testing.F) {
	f.Add([]byte{0, 32, 1, 9, 9, 1, 200, 200, 64, 65}, []byte{2, 0, 1})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), []byte{7, 7, 1, 30})
	f.Add(make([]byte, 80), []byte{})
	f.Fuzz(func(t *testing.T, data, cutBytes []byte) {
		n := min(len(data)/2, 300)
		x, y := make([]float64, n), make([]float64, n)
		for i := range n {
			x[i], y[i] = tieValue(data[2*i]), tieValue(data[2*i+1])
		}
		var cuts []int
		m := 0
		for _, b := range cutBytes {
			c := min(int(b)%48, n-m)
			cuts = append(cuts, c)
			m += c
		}
		cuts = append(cuts, n-m)
		checkPrefixChain(t, new(KendallPrefix), x, y, cuts)
	})
}

// TestKendallPrefixChains runs the planner's checkpoint chains and
// random chunkings over tie-heavy samples on one reused prefix, so
// scratch left by a longer earlier chain cannot leak into a later one.
func TestKendallPrefixChains(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 26))
	p := new(KendallPrefix)
	for trial := range 60 {
		n := 2 + rng.IntN(400)
		x, y := make([]float64, n), make([]float64, n)
		for i := range n {
			x[i], y[i] = tieValue(byte(rng.Uint32())), tieValue(byte(rng.Uint32()))
		}
		var cuts []int
		if trial%2 == 0 {
			prev := 0
			for _, m := range plannerSchedule(n) {
				cuts = append(cuts, m-prev)
				prev = m
			}
		} else {
			for m := 0; m < n; {
				c := min(rng.IntN(150), n-m)
				cuts = append(cuts, c)
				m += c
			}
		}
		checkPrefixChain(t, p, x, y, cuts)
	}
}

// plannerSchedule is the screening planner's checkpoint schedule for a
// sample of n (first checkpoint 64: doubling, then n·4/8..7/8), ending
// with n itself.
func plannerSchedule(n int) []int {
	var cps []int
	seen := map[int]bool{}
	add := func(m int) {
		if m >= KendallNaiveCutoff && m < n && !seen[m] {
			seen[m] = true
			cps = append(cps, m)
		}
	}
	for m := KendallNaiveCutoff; m < n; m *= 2 {
		add(m)
	}
	for num := 4; num < 8; num++ {
		add(n * num / 8)
	}
	slices.Sort(cps)
	return append(cps, n)
}

// densitySample draws n density-like pairs: occurrence counts over
// vicinity sizes, so values repeat (ties) as real screening densities
// do.
func densitySample(n int, seed uint64) (x, y []float64) {
	rng := rand.New(rand.NewPCG(seed, 900))
	x, y = make([]float64, n), make([]float64, n)
	for i := range n {
		size := float64(20 + rng.IntN(180))
		c := float64(rng.IntN(12))
		x[i] = c / size
		y[i] = float64(rng.IntN(12)+int(c)/2) / size
	}
	return x, y
}

// BenchmarkKendallCheckpointChain is one completing pair of the
// screening planner at n = 900: τ at every checkpoint (64, 128, 256,
// 450, 512, 562, 675, 787) and at the full sample. "prefix" extends one
// KendallPrefix by each chunk; "scratch" runs Kendall over each whole
// prefix, the cost before the prefix existed.
func BenchmarkKendallCheckpointChain(b *testing.B) {
	const n = 900
	x, y := densitySample(n, 1)
	cps := plannerSchedule(n)
	b.Run("prefix", func(b *testing.B) {
		p := new(KendallPrefix)
		b.ReportAllocs()
		for b.Loop() {
			p.Reset()
			prev := 0
			for _, m := range cps {
				p.Extend(x[prev:m], y[prev:m])
				prev = m
			}
		}
	})
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, m := range cps {
				Kendall(x[:m], y[:m])
			}
		}
	})
}

// BenchmarkSortKeyPairs times both sort kernels on density keys at the
// planner's chunk sizes; insertionSortMax sits where they cross.
func BenchmarkSortKeyPairs(b *testing.B) {
	for _, n := range []int{32, 64, 128, 192, 256} {
		x, y := densitySample(n, 2)
		src := make([]keyPair, n)
		for i := range src {
			src[i] = keyPair{floatKey(x[i]), floatKey(y[i])}
		}
		a, buf := make([]keyPair, n), make([]keyPair, n)
		b.Run(fmt.Sprintf("insertion/%d", n), func(b *testing.B) {
			for b.Loop() {
				copy(a, src)
				insertionSortKeyPairs(a)
			}
		})
		b.Run(fmt.Sprintf("radix/%d", n), func(b *testing.B) {
			for b.Loop() {
				copy(a, src)
				radixSortKeyPairs(a, buf)
			}
		})
	}
}
