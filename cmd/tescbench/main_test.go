package main

import (
	"io"
	"testing"
)

// TestRemovedModesAreUsageErrors: the measurement modes tescperf and the
// packages' benchmarks replaced, and the soaks the packages' seeded fuzz
// targets replaced, are gone, so their flags fail parsing.
func TestRemovedModesAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-serve", "http://127.0.0.1:1"},
		{"-churn"},
		{"-topk"},
		{"-overload"},
		{"-soak", "1s"},
		{"-soak-recover", "1s"},
		{"-soak-replica", "1s"},
		{"-soak-overload", "1s"},
		{"-soak-cluster", "1s"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestUnknownExperimentIsUsageError(t *testing.T) {
	if code := run([]string{"-exp", "fig99"}, io.Discard, io.Discard); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}
