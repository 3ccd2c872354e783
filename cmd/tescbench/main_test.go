package main

import (
	"io"
	"strings"
	"testing"
)

// TestSoaksRun runs every nightly soak briefly with a fixed seed: each
// must pass its own invariant checks and print its report header, so
// the soak code is exercised on every go test run, not only nightly.
func TestSoaksRun(t *testing.T) {
	for _, tc := range []struct {
		flag, header string
	}{
		{"-soak", "== soak ("},
		{"-soak-recover", "== soak-recover ("},
		{"-soak-replica", "== soak-replica ("},
		{"-soak-overload", "== soak-overload ("},
		{"-soak-cluster", "cluster soak: "},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run([]string{tc.flag, "300ms", "-seed", "5"}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.header) {
				t.Errorf("report lacks %q:\n%s", tc.header, stdout.String())
			}
		})
	}
}

// TestRemovedModesAreUsageErrors: the measurement modes tescperf and the
// packages' benchmarks replaced are gone, so their flags fail parsing.
func TestRemovedModesAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-serve", "http://127.0.0.1:1"},
		{"-churn"},
		{"-topk"},
		{"-overload"},
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
