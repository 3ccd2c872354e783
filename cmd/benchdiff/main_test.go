package main

import (
	"reflect"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: tesc/internal/core
cpu: Intel(R) Xeon(R)
BenchmarkDensityPhaseFlat-8   	    2769	    452044 ns/op	      12 B/op	       3 allocs/op
BenchmarkDensityPhaseFlat-8   	    2800	    449000 ns/op	      12 B/op	       3 allocs/op
BenchmarkDensityPhaseFlat-8   	    2700	    460111 ns/op	      12 B/op	       3 allocs/op
PASS
ok  	tesc/internal/core	5.1s
pkg: tesc/internal/graph
BenchmarkCollect-8       	    9399	    127708 ns/op
BenchmarkEnginePool-8    	 1000000	      1113 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	tesc/internal/graph	3.3s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bench{
		"tesc/internal/core.BenchmarkDensityPhaseFlat": {449000, 12, 3, 3, nil}, // min of 3 runs
		"tesc/internal/graph.BenchmarkCollect":         {127708, -1, -1, -1, nil},
		"tesc/internal/graph.BenchmarkEnginePool":      {1113, 0, 0, 0, nil},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if !reflect.DeepEqual(got[k], v) {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

// TestParseBenchMem folds B/op and allocs/op by their own minimum
// over runs (and allocs/op by its maximum too), past custom metrics
// between them, and keeps a figure that only some runs reported.
func TestParseBenchMem(t *testing.T) {
	const out = `pkg: tesc/internal/screen
BenchmarkPlan-2   100   9000 ns/op   593.0 checkpoints   217000 B/op   1047 allocs/op
BenchmarkPlan-2   100   8000 ns/op   593.0 checkpoints   219000 B/op   1050 allocs/op
BenchmarkPlan-2   100   8500 ns/op   593.0 checkpoints   216000 B/op   1049 allocs/op
BenchmarkKendall-2   10   700 ns/op
BenchmarkKendall-2   10   650 ns/op   64 B/op   1 allocs/op
`
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bench{
		"tesc/internal/screen.BenchmarkPlan":    {8000, 216000, 1047, 1050, map[string]span{"checkpoints": {593, 593}}},
		"tesc/internal/screen.BenchmarkKendall": {650, 64, 1, 1, nil},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if !reflect.DeepEqual(got[k], v) {
			t.Errorf("%s = %+v, want %+v", k, got[k], v)
		}
	}
	rows, regressions, _ := diff(map[string]bench{"k": {100, 50, 2, 2, nil}}, map[string]bench{"k": {100, 5000, 2, 2, nil}})
	if regressions != 0 || rows[0].status != "ok" {
		t.Errorf("a B/op rise gated: %d regression(s), status %s", regressions, rows[0].status)
	}
	table := renderTable(rows, 0, 0)
	if !strings.Contains(table, "| k | 100 | 100 | +0.0% | 50 | 5000 | 2 | 2 | ok |  |") {
		t.Errorf("table lacks the memory columns:\n%s", table)
	}
}

// TestAllocsGate plants one extra allocation per op in a benchmark
// whose ns/op reads inside the noise (+1%), as one more allocation per
// core.Test call would show in BenchmarkImportanceTest100k (49
// allocs/op in every run): the gate fails it. A count inside the
// parent's own run-to-run range (BenchmarkApplyDelta100k's, from a
// gate run on unchanged code), a drop, and a row whose parent did not
// report allocs/op pass.
func TestAllocsGate(t *testing.T) {
	const parentOut = `pkg: tesc/internal/core
BenchmarkImportanceTest100k-2   600   1800000 ns/op   225900 B/op   49 allocs/op
BenchmarkImportanceTest100k-2   600   1750000 ns/op   225838 B/op   49 allocs/op
pkg: tesc/internal/vicinity
BenchmarkApplyDelta100k-2   3000   386731 ns/op   390651 B/op   186 allocs/op
BenchmarkApplyDelta100k-2   3000   504264 ns/op   390600 B/op   173 allocs/op
pkg: tesc/internal/screen
BenchmarkScreenPlanTopKRanked-2   150   7000000 ns/op   217000 B/op   1047 allocs/op
BenchmarkNoMem-2   10   100 ns/op
`
	const changeOut = `pkg: tesc/internal/core
BenchmarkImportanceTest100k-2   600   1760000 ns/op   225950 B/op   50 allocs/op
pkg: tesc/internal/vicinity
BenchmarkApplyDelta100k-2   3000   390000 ns/op   392841 B/op   176 allocs/op
pkg: tesc/internal/screen
BenchmarkScreenPlanTopKRanked-2   150   7100000 ns/op   200000 B/op   900 allocs/op
BenchmarkNoMem-2   10   100 ns/op   0 B/op   3 allocs/op
`
	parent, err := parseBench(strings.NewReader(parentOut))
	if err != nil {
		t.Fatal(err)
	}
	change, err := parseBench(strings.NewReader(changeOut))
	if err != nil {
		t.Fatal(err)
	}
	rows, regressions, warnings := diff(parent, change)
	if regressions != 1 || warnings != 0 {
		t.Errorf("regressions, warnings = %d, %d; want 1, 0", regressions, warnings)
	}
	want := map[string]string{
		"tesc/internal/core.BenchmarkImportanceTest100k":     "ALLOCS",
		"tesc/internal/vicinity.BenchmarkApplyDelta100k":     "ok",
		"tesc/internal/screen.BenchmarkScreenPlanTopKRanked": "ok",
		"tesc/internal/screen.BenchmarkNoMem":                "ok",
	}
	for _, r := range rows {
		if r.status != want[r.key] {
			t.Errorf("%s: status %s, want %s", r.key, r.status, want[r.key])
		}
	}
	if table := renderTable(rows, regressions, warnings); !strings.Contains(table, "| 49 | 50 | ❌ ALLOCS |") {
		t.Errorf("table lacks the failed allocation row:\n%s", table)
	}
}

func TestParseBenchEmpty(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestDiffStatuses builds the rows from two parsed inputs: every status
// the gate can report, with only the regression counted as a failure
// and only the warn as a warning.
func TestDiffStatuses(t *testing.T) {
	const parentOut = `pkg: tesc/internal/x
BenchmarkSlower-2    10   300 ns/op
BenchmarkSlower-2    10   100 ns/op
BenchmarkWarn-2      10   100 ns/op
BenchmarkSame-2      10   100 ns/op
BenchmarkFaster-2    10   100 ns/op
BenchmarkGone-2      10   100 ns/op
`
	const changeOut = `pkg: tesc/internal/x
BenchmarkSlower-2    10   130 ns/op
BenchmarkWarn-2      10   115 ns/op
BenchmarkSame-2      10   105 ns/op
BenchmarkFaster-2    10    70 ns/op
BenchmarkAdded-2     10    50 ns/op
`
	parent, err := parseBench(strings.NewReader(parentOut))
	if err != nil {
		t.Fatal(err)
	}
	change, err := parseBench(strings.NewReader(changeOut))
	if err != nil {
		t.Fatal(err)
	}
	rows, regressions, warnings := diff(parent, change)
	if regressions != 1 || warnings != 1 {
		t.Errorf("regressions, warnings = %d, %d; want 1, 1", regressions, warnings)
	}
	want := []struct {
		name, status string
	}{
		{"Added", "new"},
		{"Faster", "improved"},
		{"Gone", "removed"},
		{"Same", "ok"},
		{"Slower", "REGRESSION"}, // min over runs: 100 -> 130
		{"Warn", "warn"},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(rows), len(want), rows)
	}
	for i, w := range want {
		if key := "tesc/internal/x.Benchmark" + w.name; rows[i].key != key || rows[i].status != w.status {
			t.Errorf("row %d = %s %s, want %s %s", i, rows[i].key, rows[i].status, key, w.status)
		}
	}
}

func TestRenderTableStatuses(t *testing.T) {
	none := func(ns float64) bench { return bench{ns, -1, -1, -1, nil} }
	counted := func(ns, checkpoints float64) bench {
		return bench{ns, -1, -1, -1, map[string]span{"checkpoints": {checkpoints, checkpoints}}}
	}
	rows := []row{
		{key: "a", parent: none(100), change: none(300), ratio: 3, status: "REGRESSION"},
		{key: "b", parent: none(100), change: none(115), ratio: 1.15, status: "warn"},
		{key: "c", parent: none(100), change: none(100), ratio: 1, status: "ok"},
		{key: "d", change: none(50), status: "new"},
		{key: "e", parent: none(100), status: "removed"},
		{key: "f", parent: counted(100, 593), change: counted(90, 580), ratio: 0.9, status: "ok"},
	}
	table := renderTable(rows, 1, 1)
	for _, want := range []string{"REGRESSION", "warn", "| ok |", "| new |", "| removed |", "+200.0%", "1 regression(s), 1 warning(s)",
		"| ok | checkpoints 593 → 580 |"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

// TestParseBenchCounts folds every custom unit of a row to its min and
// max over runs (MB/s, a host figure, is not a count), and prints a
// count in the counts column only where the two sides' ranges do not
// overlap; a changed count does not fail the gate.
func TestParseBenchCounts(t *testing.T) {
	const parentOut = `pkg: tesc/internal/screen
BenchmarkScreenPlanTopK-2   100   9000 ns/op   593.0 checkpoints   6.000 pruned_early   21 density_evals   1000 B/op   10 allocs/op
BenchmarkScreenPlanTopK-2   100   8000 ns/op   593.0 checkpoints   6.000 pruned_early   23 density_evals   1000 B/op   10 allocs/op
BenchmarkScreenRankBuild-2   10   700 ns/op   3.5 MB/s   4096 table_bytes
pkg: tesc/internal/wal
BenchmarkAppend-2   10   700 ns/op   0.51 fsyncs/op
BenchmarkAppend-2   10   700 ns/op   0.49 fsyncs/op
`
	const changeOut = `pkg: tesc/internal/screen
BenchmarkScreenPlanTopK-2   100   7000 ns/op   580.0 checkpoints   6.000 pruned_early   22 density_evals   1000 B/op   10 allocs/op
BenchmarkScreenRankBuild-2   10   700 ns/op   9.5 MB/s   4096 table_bytes
pkg: tesc/internal/wal
BenchmarkAppend-2   10   700 ns/op   0.50 fsyncs/op
`
	parent, err := parseBench(strings.NewReader(parentOut))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]span{"checkpoints": {593, 593}, "pruned_early": {6, 6}, "density_evals": {21, 23}}
	if got := parent["tesc/internal/screen.BenchmarkScreenPlanTopK"].counts; !reflect.DeepEqual(got, want) {
		t.Errorf("counts = %v, want %v", got, want)
	}
	if got, want := parent["tesc/internal/screen.BenchmarkScreenRankBuild"].counts, map[string]span{"table_bytes": {4096, 4096}}; !reflect.DeepEqual(got, want) {
		t.Errorf("counts = %v, want %v", got, want)
	}
	change, err := parseBench(strings.NewReader(changeOut))
	if err != nil {
		t.Fatal(err)
	}
	rows, regressions, _ := diff(parent, change)
	if regressions != 0 {
		t.Errorf("%d regression(s): a changed count failed the gate", regressions)
	}
	moved := map[string]string{
		"tesc/internal/screen.BenchmarkScreenPlanTopK":  "checkpoints 593 → 580", // density_evals 22 lies in 21–23
		"tesc/internal/screen.BenchmarkScreenRankBuild": "",
		"tesc/internal/wal.BenchmarkAppend":             "",
	}
	for _, r := range rows {
		if got := countsMoved(r.parent, r.change); got != moved[r.key] {
			t.Errorf("%s: counts column %q, want %q", r.key, got, moved[r.key])
		}
	}
	if got := countsMoved(bench{counts: map[string]span{"a": {1, 2}, "b": {5, 5}}}, bench{counts: map[string]span{"b": {7, 9}, "a": {3, 3}}}); got != "a 1–2 → 3, b 5 → 7–9" {
		t.Errorf("countsMoved = %q", got)
	}
}
