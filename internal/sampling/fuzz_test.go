package sampling

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// FuzzDrawPrefix checks that a partial Fisher–Yates draw can be made in
// steps, as the screening planner makes it at each checkpoint: drawing
// a population's k-prefix chunk by chunk must leave the same slice,
// element for element, and the same rng state as one SampleKInPlace
// call on a copy with the same seed. data holds the population (one
// element per byte, duplicates allowed) and its length; each byte of
// cuts is one chunk size (0..63, empty chunks included), and a last
// call reaches k.
func FuzzDrawPrefix(f *testing.F) {
	f.Add(uint64(1), []byte("a population of reference nodes, in BFS order"), uint16(40), []byte{8, 8, 16})
	f.Add(uint64(7), []byte{1, 2}, uint16(5), []byte{1})
	f.Add(uint64(3), make([]byte, 200), uint16(64), []byte{0, 64, 0})
	f.Add(uint64(9), []byte{}, uint16(3), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte, k16 uint16, cuts []byte) {
		k := int(k16) % (len(data) + 8) // k past the population is clamped
		pop := make([]int32, len(data))
		for i, b := range data {
			pop[i] = int32(b)
		}
		whole := slices.Clone(pop)
		wholeRng := rand.New(rand.NewPCG(seed, 0x5eed))
		want := SampleKInPlace(whole, 0, k, wholeRng)

		stepRng := rand.New(rand.NewPCG(seed, 0x5eed))
		got := pop[:0]
		for _, c := range cuts {
			got = SampleKInPlace(pop, len(got), min(len(got)+int(c)%64, k), stepRng)
		}
		got = SampleKInPlace(pop, len(got), k, stepRng)

		if !slices.Equal(got, want) {
			t.Fatalf("stepped sample %v, one-shot %v", got, want)
		}
		if !slices.Equal(pop, whole) {
			t.Fatalf("stepped draw left population %v, one-shot %v", pop, whole)
		}
		if a, b := stepRng.Uint64(), wholeRng.Uint64(); a != b {
			t.Fatalf("rng diverged after the draw: stepped next %d, one-shot next %d", a, b)
		}
	})
}
