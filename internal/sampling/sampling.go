// Package sampling provides the random-selection primitives behind the
// paper's reference-node samplers: Walker's alias method for the
// weighted event-node draws of RejectSamp/Importance sampling (step 1:
// "select a node v ∈ Va∪b with probability |V^h_v|/Nsum"), uniform
// without-replacement pickers for Whole-graph sampling, and the partial
// Fisher–Yates draw of Batch BFS sampling.
package sampling

import (
	"fmt"
	"math/rand/v2"
)

// Alias is a Walker alias table: O(n) construction, O(1) draws from an
// arbitrary discrete distribution. This makes the per-iteration cost of
// Importance sampling (Algorithm 2, line 4) independent of |Va∪b|.
type Alias struct {
	prob  []float64
	alias []int32
}

// NewAlias builds an alias table over weights (all ≥ 0, at least one
// positive). Draw returns index i with probability weights[i]/Σweights.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("sampling: empty weight vector")
	}
	var total float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("sampling: negative weight %g at index %d", w, i)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("sampling: all weights are zero")
	}

	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int32, n),
	}
	// scaled[i] = weights[i] * n / total; partition into small (<1) and
	// large (≥1) stacks and pair them.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
	}
	for _, i := range small { // numerical leftovers
		a.prob[i] = 1
	}
	return a, nil
}

// Draw returns a random index distributed proportionally to the
// construction weights.
func (a *Alias) Draw(rng *rand.Rand) int {
	i := rng.IntN(len(a.prob))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// Len returns the number of outcomes.
func (a *Alias) Len() int { return len(a.prob) }

// UniformNoReplace yields up to k distinct integers uniformly from
// [0, n) using a partial Fisher–Yates shuffle over an explicit index
// slice: O(n) space, O(k) time after setup. It backs Whole-graph
// sampling's "select another node from the remaining nodes" loop
// (Algorithm 3).
type UniformNoReplace struct {
	idx  []int32
	next int
	rng  *rand.Rand
}

// NewUniformNoReplace prepares a without-replacement sampler over [0, n).
func NewUniformNoReplace(n int, rng *rand.Rand) *UniformNoReplace {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return &UniformNoReplace{idx: idx, rng: rng}
}

// Next returns the next distinct uniform index and true, or (0, false)
// when the population is exhausted.
func (u *UniformNoReplace) Next() (int, bool) {
	if u.next >= len(u.idx) {
		return 0, false
	}
	j := u.next + u.rng.IntN(len(u.idx)-u.next)
	u.idx[u.next], u.idx[j] = u.idx[j], u.idx[u.next]
	v := int(u.idx[u.next])
	u.next++
	return v, true
}

// SampleKInPlace returns k distinct elements chosen uniformly from
// population (fewer when the population is smaller) via a partial
// Fisher–Yates shuffle: the selection lands in the slice's prefix,
// which is returned without copying. The input's element ORDER is
// mutated (contents are only permuted), so it suits scratch buffers —
// the Batch BFS sampler runs it directly on its traversal engine's
// visit buffer, paying O(k) random draws instead of the O(|population|)
// a non-mutating reservoir costs on vicinity-scale populations. The
// index-based samplers reproduce its draws without materializing the
// population (core's ballDrawer).
//
// Position i of the shuffle depends only on draws 0..i, so a draw can
// be made in steps: with from > 0 the call assumes population[:from]
// is the prefix an earlier call drew with the same rng, and draws only
// positions from..k−1. A chain of calls with growing k leaves the same
// slice and the same rng state as one call with the last k.
func SampleKInPlace[T any](population []T, from, k int, rng *rand.Rand) []T {
	if k > len(population) {
		k = len(population)
	}
	for i := from; i < k; i++ {
		j := i + rng.IntN(len(population)-i)
		population[i], population[j] = population[j], population[i]
	}
	return population[:k]
}
