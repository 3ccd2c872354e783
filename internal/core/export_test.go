package core

import "tesc/internal/graph"

// EvalSideH1 is the density pass over rs at h = 1 from the reference
// side or from the event side, for the external package's benchmarks.
func (e *DensityEvaluator) EvalSideH1(rs []graph.NodeID, eventSide bool) (sa, sb []float64, err error) {
	if eventSide {
		return e.evalEvents(nil, rs, nil)
	}
	return e.evalAll(nil, rs, nil)
}

// BallSumsH1 returns Σ_{r∈rs} |V^1_r| and Σ_{a∈Va∪b} |V^1_a|, the two
// sums the side rule compares at h = 1.
func BallSumsH1(p *Problem, rs []graph.NodeID) (ref, event int) {
	for _, r := range rs {
		ref += ballSize(p.G, r)
	}
	for _, a := range p.EventNodes() {
		event += ballSize(p.G, a)
	}
	return ref, event
}
