package sampling

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestAliasErrors(t *testing.T) {
	if _, err := NewAlias(nil); err == nil {
		t.Error("empty weights should fail")
	}
	if _, err := NewAlias([]float64{1, -2}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewAlias([]float64{0, 0}); err == nil {
		t.Error("all-zero weights should fail")
	}
}

// MustNewAlias is NewAlias that panics on error.
func MustNewAlias(weights []float64) *Alias {
	a, err := NewAlias(weights)
	if err != nil {
		panic(err)
	}
	return a
}

func TestAliasDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a := MustNewAlias(weights)
	if a.Len() != 4 {
		t.Fatalf("Len=%d", a.Len())
	}
	rng := rand.New(rand.NewPCG(51, 1))
	const draws = 200_000
	counts := make([]int, 4)
	for i := 0; i < draws; i++ {
		counts[a.Draw(rng)]++
	}
	for i, w := range weights {
		want := w / 10 * draws
		got := float64(counts[i])
		// 4σ binomial tolerance
		sigma := math.Sqrt(draws * (w / 10) * (1 - w/10))
		if math.Abs(got-want) > 4*sigma {
			t.Errorf("outcome %d: %0.f draws, want %.0f ± %.0f", i, got, want, 4*sigma)
		}
	}
}

func TestAliasZeroWeightNeverDrawn(t *testing.T) {
	a := MustNewAlias([]float64{0, 1, 0, 1})
	rng := rand.New(rand.NewPCG(52, 1))
	for i := 0; i < 10_000; i++ {
		if d := a.Draw(rng); d == 0 || d == 2 {
			t.Fatalf("drew zero-weight outcome %d", d)
		}
	}
}

func TestAliasSingleOutcome(t *testing.T) {
	a := MustNewAlias([]float64{7})
	rng := rand.New(rand.NewPCG(53, 1))
	for i := 0; i < 100; i++ {
		if a.Draw(rng) != 0 {
			t.Fatal("single outcome must always be drawn")
		}
	}
}

func TestUniformNoReplace(t *testing.T) {
	rng := rand.New(rand.NewPCG(54, 1))
	u := NewUniformNoReplace(10, rng)
	seen := map[int]bool{}
	for {
		v, ok := u.Next()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("value %d drawn twice", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("drew %d distinct values, want 10", len(seen))
	}
	if _, ok := u.Next(); ok {
		t.Error("exhausted sampler should return false")
	}
}

func TestUniformNoReplaceUniformity(t *testing.T) {
	// first draw over n=5, many trials: each value ~equally often
	const trials = 50_000
	counts := make([]int, 5)
	rng := rand.New(rand.NewPCG(55, 1))
	for i := 0; i < trials; i++ {
		u := NewUniformNoReplace(5, rng)
		v, _ := u.Next()
		counts[v]++
	}
	want := float64(trials) / 5
	sigma := math.Sqrt(float64(trials) * 0.2 * 0.8)
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 4*sigma {
			t.Errorf("value %d drawn %d times, want %.0f ± %.0f", v, c, want, 4*sigma)
		}
	}
}

func TestSampleKInPlace(t *testing.T) {
	rng := rand.New(rand.NewPCG(56, 1))
	pop := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	s := SampleKInPlace(pop, 0, 4, rng)
	if len(s) != 4 || &s[0] != &pop[0] {
		t.Fatalf("got %v, want the population's 4-element prefix", s)
	}
	// The population is only permuted: the sample is distinct and the
	// whole slice still holds every value once.
	seen := map[int]bool{}
	for _, v := range pop {
		if seen[v] || v < 0 || v > 9 {
			t.Fatalf("population %v is not a permutation of 0..9", pop)
		}
		seen[v] = true
	}
	// k > len returns the whole (shuffled) population.
	if all := SampleKInPlace(pop, 0, 20, rng); len(all) != 10 {
		t.Fatalf("oversized k returned %d items", len(all))
	}
}

func TestSampleKInPlaceUniformity(t *testing.T) {
	rng := rand.New(rand.NewPCG(57, 1))
	const trials = 30_000
	counts := make([]int, 6)
	pop := []int{0, 1, 2, 3, 4, 5}
	for i := 0; i < trials; i++ {
		for _, v := range SampleKInPlace(pop, 0, 2, rng) {
			counts[v]++
		}
	}
	want := float64(trials) * 2 / 6
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("value %d in sample %d times, want ≈%.0f", v, c, want)
		}
	}
}
