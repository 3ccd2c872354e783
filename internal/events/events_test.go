package events

import (
	"testing"

	"tesc/internal/graph"
)

func buildSample(t *testing.T) *Store {
	t.Helper()
	b := NewBuilder(10)
	b.Add("wireless", 1)
	b.Add("wireless", 3)
	b.Add("wireless", 3) // duplicate, idempotent
	b.Add("sensor", 3)
	b.Add("sensor", 5)
	b.AddAll("java", []graph.NodeID{7, 8, 9})
	return b.Build()
}

func TestStoreBasics(t *testing.T) {
	s := buildSample(t)
	if s.Universe() != 10 {
		t.Errorf("Universe = %d", s.Universe())
	}
	if s.NumEvents() != 3 {
		t.Fatalf("NumEvents = %d, want 3", s.NumEvents())
	}
	names := s.Names()
	want := []string{"java", "sensor", "wireless"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names = %v, want %v", names, want)
		}
	}
	if !s.Has("wireless") || s.Has("gpu") {
		t.Error("Has wrong")
	}
}

func TestOccurrences(t *testing.T) {
	s := buildSample(t)
	occ := s.Occurrences("wireless")
	if len(occ) != 2 || occ[0] != 1 || occ[1] != 3 {
		t.Errorf("wireless occurrences = %v, want [1 3]", occ)
	}
	if s.Count("wireless") != 2 || s.Count("java") != 3 {
		t.Error("Count wrong")
	}
	if s.Occurrences("missing") != nil {
		t.Error("unknown event should return nil")
	}
	if s.Count("missing") != 0 {
		t.Error("unknown event count should be 0")
	}
}

func TestSetsAndUnion(t *testing.T) {
	s := buildSample(t)
	sa := s.Set("wireless")
	if sa.Len() != 2 || !sa.Contains(1) || !sa.Contains(3) {
		t.Errorf("Set(wireless) = %v", sa.Members())
	}
	// cached: same pointer on second call
	if s.Set("wireless") != sa {
		t.Error("Set should cache")
	}
	empty := s.Set("missing")
	if empty.Len() != 0 || empty.Universe() != 10 {
		t.Error("unknown event should give empty set over the universe")
	}
}

func TestIntensities(t *testing.T) {
	b := NewBuilder(6)
	b.AddWeighted("kw", 2, 3.5)
	b.Add("kw", 2) // accumulates: 4.5
	b.Add("kw", 4) // unit
	b.Add("plain", 1)
	s := b.Build()

	if got := s.Intensity("kw", 2); got != 4.5 {
		t.Errorf("Intensity = %g, want 4.5", got)
	}
	if got := s.Intensity("kw", 4); got != 1 {
		t.Errorf("Intensity = %g, want 1", got)
	}
	if got := s.Intensity("kw", 0); got != 0 {
		t.Errorf("absent node intensity = %g", got)
	}
	if got := s.Intensity("nope", 2); got != 0 {
		t.Errorf("unknown event intensity = %g", got)
	}
	if !s.Weighted("kw") || s.Weighted("plain") || s.Weighted("nope") {
		t.Error("Weighted flags wrong")
	}
	vec := s.IntensityVector("kw")
	if len(vec) != 6 || vec[2] != 4.5 || vec[4] != 1 || vec[0] != 0 {
		t.Errorf("IntensityVector = %v", vec)
	}
	if s.IntensityVector("nope") != nil {
		t.Error("unknown event should give nil vector")
	}
}

func TestAddWeightedValidation(t *testing.T) {
	b := NewBuilder(3)
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive intensity should panic")
		}
	}()
	b.AddWeighted("x", 0, 0)
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	b := NewBuilder(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Add("x", 5)
}

func TestEmptyStore(t *testing.T) {
	s := NewBuilder(5).Build()
	if s.NumEvents() != 0 {
		t.Errorf("NumEvents = %d", s.NumEvents())
	}
	if s.Set("anything").Len() != 0 {
		t.Error("empty store sets should be empty")
	}
}

func TestRemoveAndEpoch(t *testing.T) {
	b := NewBuilder(10)
	b.Add("wireless", 1)
	b.Add("wireless", 3)
	b.Add("sensor", 5)
	s1 := b.Build()
	if s1.Epoch() != 1 {
		t.Fatalf("first snapshot epoch = %d, want 1", s1.Epoch())
	}

	if !b.Remove("wireless", 3) {
		t.Error("removing an existing occurrence should report true")
	}
	if b.Remove("wireless", 3) {
		t.Error("removing it twice should report false")
	}
	if b.Remove("gpu", 0) {
		t.Error("removing an unknown event should report false")
	}
	s2 := b.Build()
	if s2.Epoch() != 2 {
		t.Fatalf("second snapshot epoch = %d, want 2", s2.Epoch())
	}
	if got := s2.Count("wireless"); got != 1 {
		t.Errorf("after removal Count(wireless) = %d, want 1", got)
	}
	// The older snapshot is untouched: in-flight readers keep their view.
	if got := s1.Count("wireless"); got != 2 {
		t.Errorf("older snapshot Count(wireless) = %d, want 2", got)
	}

	// Removing the last occurrence removes the event.
	if !b.Remove("wireless", 1) {
		t.Error("removing the last occurrence should report true")
	}
	if b.Build().Has("wireless") {
		t.Error("event should vanish with its last occurrence")
	}
	if !b.RemoveEvent("sensor") {
		t.Error("RemoveEvent on an existing event should report true")
	}
	if b.RemoveEvent("sensor") {
		t.Error("RemoveEvent twice should report false")
	}
	s3 := b.Build()
	if s3.NumEvents() != 0 {
		t.Errorf("after removals NumEvents = %d, want 0", s3.NumEvents())
	}
	if s3.Epoch() <= s2.Epoch() {
		t.Errorf("epochs must strictly increase: %d then %d", s2.Epoch(), s3.Epoch())
	}
}

func TestRemoveThenReAdd(t *testing.T) {
	b := NewBuilder(5)
	b.AddWeighted("kw", 2, 3.5)
	b.Remove("kw", 2)
	b.Add("kw", 2)
	s := b.Build()
	if got := s.Intensity("kw", 2); got != 1 {
		t.Errorf("re-added occurrence intensity = %g, want 1 (removal clears accumulation)", got)
	}
}
