package main

import (
	"fmt"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs every workload, untraced and traced, at a
// tiny scale: the whole stack comes up, every output check passes, and
// every declared metric is reported. The runs are parallel subtests:
// each has its own in-process node, and most of their time is fsync and
// set-up waits.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				t.Parallel()
				r := &run{seed: 7, seconds: 300 * time.Millisecond, trace: trace, scale: 0.02, tmp: t.TempDir()}
				res, err := execute(w, r)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, r.problems)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				if !trace {
					for _, d := range defs {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}
