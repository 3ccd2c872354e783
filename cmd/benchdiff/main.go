// Command benchdiff compares the `go test -bench` output of a parent
// revision against the change's, both taken on the same machine, and
// gates CI on regressions: a benchmark more than +25% slower than at the
// parent fails the run, one between +10% and +25% is soft-warned into
// the summary, and one whose fewest allocs/op pass the parent's most by
// more than allocTolerance and allocSlack fails too. A benchmark only the change has is reported as
// new, one only the parent has as removed; neither fails, because the
// addition or deletion is in the diff under review.
//
// Benchmarks are keyed by package + name (GOMAXPROCS suffix stripped)
// and each side is folded with min over its repeated runs, which is the
// right estimator for a noisy CI box: the minimum is the run least
// disturbed by neighbors, and a genuine regression raises the minimum.
// B/op and allocs/op (go test -benchmem) are folded the same way and
// printed beside ns/op; allocs/op also keeps its maximum. Allocations
// do not depend on the host's speed, so allocs/op gates at a far
// tighter bound than ns/op can: one more allocation per op fails a
// benchmark that steadily makes up to 50 of them. B/op is reported
// only, because buffer growth makes it vary. Every other unit a row
// reports (checkpoints, density_evals, bfs_runs, ...: a benchmark's
// work counts) is folded to its min and max over runs, and a row whose
// count ranges do not overlap prints both sides in a counts column. A
// changed count never fails: an algorithmic change moves counts on
// purpose, and one that claims no behaviour change must show none.
//
// Usage:
//
//	benchdiff old.txt new.txt
//	benchdiff -summary "$GITHUB_STEP_SUMMARY" old.txt new.txt
//
// cmd/benchdiff/gate.sh produces the two inputs in alternating rounds.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// The gate's thresholds on the change/parent ns/op ratio.
const (
	failThreshold = 1.25
	warnThreshold = 1.10
)

// A benchmark fails when the change's fewest allocs/op pass the
// parent's most × (1 + allocTolerance) + allocSlack. Most benchmarks
// allocate the same count in every run, but some do not: in a gate run
// whose packages were unchanged on both sides, BenchmarkApplyDelta100k
// read 173–186 allocs/op on one side and 176–185 on the other, so the
// side minima alone differ by 3. Measured against the parent's own
// range, that noise never fails, while one extra allocation still
// fails every benchmark whose count is steady below 50 allocs/op.
const (
	allocTolerance = 0.01
	allocSlack     = 0.5
)

// bench is one benchmark's figures on one side, each the minimum over
// its runs, and allocsMax the largest allocs/op; bytes and allocs are
// -1 when no run reported them. counts holds every other unit the runs
// reported, by unit.
type bench struct {
	ns, bytes, allocs, allocsMax float64
	counts                       map[string]span
}

// span is the least and the largest value of a count over runs.
type span struct{ min, max float64 }

// parseBench extracts min ns/op, B/op and allocs/op per benchmark key
// from go test -bench output. The "pkg:" header lines qualify benchmark
// names, so the same benchmark name in two packages cannot collide.
func parseBench(r io.Reader) (map[string]bench, error) {
	out := make(map[string]bench)
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Benchmark lines: name, iterations, then value-unit pairs
		// ("452044 ns/op", "12 B/op", custom metrics, ...).
		if len(fields) < 4 {
			continue
		}
		b := bench{ns: -1, bytes: -1, allocs: -1, allocsMax: -1}
		for i := 3; i < len(fields); i += 2 {
			unit := fields[i]
			v, err := strconv.ParseFloat(fields[i-1], 64)
			switch {
			case err != nil && (unit == "ns/op" || unit == "B/op" || unit == "allocs/op"):
				return nil, fmt.Errorf("benchdiff: bad %s %q in line %q", unit, fields[i-1], line)
			case err != nil: // an ungated unit: skip the value
			case unit == "ns/op":
				b.ns = v
			case unit == "B/op":
				b.bytes = v
			case unit == "allocs/op":
				b.allocs = v
			case unit != "MB/s": // throughput measures the host, not the work
				if b.counts == nil {
					b.counts = make(map[string]span)
				}
				b.counts[unit] = span{v, v}
			}
		}
		if b.ns < 0 {
			continue
		}
		b.allocsMax = b.allocs
		name := fields[0]
		// Strip the -GOMAXPROCS suffix so both sides key alike even when
		// one ran with another core count.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		key := name
		if pkg != "" {
			key = pkg + "." + name
		}
		if prev, ok := out[key]; ok {
			b.ns = min(b.ns, prev.ns)
			b.bytes = minReported(b.bytes, prev.bytes)
			b.allocs = minReported(b.allocs, prev.allocs)
			b.allocsMax = max(b.allocsMax, prev.allocsMax)
			for unit, c := range prev.counts {
				if v, ok := b.counts[unit]; ok {
					c = span{min(c.min, v.min), max(c.max, v.max)}
				}
				if b.counts == nil {
					b.counts = make(map[string]span)
				}
				b.counts[unit] = c
			}
		}
		out[key] = b
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchdiff: no benchmark lines found in input")
	}
	return out, nil
}

// minReported is the smaller of two figures, where -1 means not
// reported.
func minReported(a, b float64) float64 {
	switch {
	case a < 0:
		return b
	case b < 0:
		return a
	}
	return min(a, b)
}

type row struct {
	key            string
	parent, change bench   // zero when the side lacks the benchmark
	ratio          float64 // change/parent ns/op; 0 unless both sides have it
	status         string
}

// diff builds one row per benchmark either side ran, sorted by key, and
// counts the regressions and warnings among them. ns/op and allocs/op
// gate; a row failing both reads REGRESSION.
func diff(parent, change map[string]bench) (rows []row, regressions, warnings int) {
	for key, c := range change {
		r := row{key: key, change: c, status: "new"}
		if p, ok := parent[key]; ok && p.ns > 0 {
			r.parent = p
			r.ratio = c.ns / p.ns
			switch {
			case r.ratio > failThreshold:
				r.status = "REGRESSION"
				regressions++
			case allocsRose(p, c):
				r.status = "ALLOCS"
				regressions++
			case r.ratio > warnThreshold:
				r.status = "warn"
				warnings++
			case r.ratio < 1/failThreshold:
				r.status = "improved"
			default:
				r.status = "ok"
			}
		}
		rows = append(rows, r)
	}
	for key, p := range parent {
		if _, ok := change[key]; !ok {
			rows = append(rows, row{key: key, parent: p, status: "removed"})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	return rows, regressions, warnings
}

// countsMoved lists, in unit order, each count the two sides both
// reported whose ranges over runs do not overlap, as "unit parent →
// change"; a range prints as min–max.
func countsMoved(parent, change bench) string {
	var moved []string
	for unit, c := range change.counts {
		if p, ok := parent.counts[unit]; ok && (c.min > p.max || c.max < p.min) {
			moved = append(moved, fmt.Sprintf("%s %s → %s", unit, p, c))
		}
	}
	sort.Strings(moved)
	return strings.Join(moved, ", ")
}

func (s span) String() string {
	if s.min == s.max {
		return strconv.FormatFloat(s.min, 'g', -1, 64)
	}
	return strconv.FormatFloat(s.min, 'g', -1, 64) + "–" + strconv.FormatFloat(s.max, 'g', -1, 64)
}

// allocsRose reports whether the change's fewest allocs/op passed the
// gate's bound over the parent's most; a side that did not report
// allocs/op does not gate.
func allocsRose(parent, change bench) bool {
	return parent.allocsMax >= 0 && change.allocs > parent.allocsMax*(1+allocTolerance)+allocSlack
}

func main() {
	fs := flag.NewFlagSet("benchdiff", flag.ExitOnError)
	summaryPath := fs.String("summary", "", "also append the table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-summary FILE] old.txt new.txt")
		fs.PrintDefaults()
	}
	_ = fs.Parse(os.Args[1:]) // ExitOnError: Parse exits on a bad flag
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	parent, err := parseFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	change, err := parseFile(fs.Arg(1))
	if err != nil {
		fatal(err)
	}

	rows, regressions, warnings := diff(parent, change)
	table := renderTable(rows, regressions, warnings)
	fmt.Print(table)
	if *summaryPath != "" {
		f, err := os.OpenFile(*summaryPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fatal(err)
		}
		if _, err := f.WriteString(table); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d benchmark(s) regressed against the parent: ns/op more than +%.0f%%, or allocs/op more than +%.0f%% + %.1f over the parent's most\n",
			regressions, (failThreshold-1)*100, allocTolerance*100, allocSlack)
		os.Exit(1)
	}
}

func parseFile(path string) (map[string]bench, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := parseBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func renderTable(rows []row, regressions, warnings int) string {
	var sb strings.Builder
	sb.WriteString("### Benchmark regression gate\n\n")
	fmt.Fprintf(&sb, "Thresholds: fail > +%.0f%%, warn > +%.0f%% (change vs parent ns/op, min over runs); ALLOCS fails min allocs/op > parent's max allocs/op × %.2f + %.1f; B/op is reported, not gated; counts lists the work counts whose ranges over runs moved, not gated\n\n",
		(failThreshold-1)*100, (warnThreshold-1)*100, 1+allocTolerance, allocSlack)
	sb.WriteString("| benchmark | parent ns/op | change ns/op | delta | parent B/op | change B/op | parent allocs/op | change allocs/op | status | counts |\n")
	sb.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---|---|\n")
	// figure prints one side's figure, or a dash when the side lacks
	// the benchmark (no ns/op) or its runs did not report the figure.
	figure := func(b bench, v float64) string {
		if b.ns <= 0 || v < 0 {
			return "—"
		}
		return fmt.Sprintf("%.0f", v)
	}
	for _, r := range rows {
		delta := "—"
		if r.ratio > 0 {
			delta = fmt.Sprintf("%+.1f%%", (r.ratio-1)*100)
		}
		status := r.status
		if status == "REGRESSION" || status == "ALLOCS" {
			status = "❌ " + status
		} else if status == "warn" {
			status = "⚠️ warn"
		}
		fmt.Fprintf(&sb, "| %s | %s | %s | %s | %s | %s | %s | %s | %s | %s |\n", r.key,
			figure(r.parent, r.parent.ns), figure(r.change, r.change.ns), delta,
			figure(r.parent, r.parent.bytes), figure(r.change, r.change.bytes),
			figure(r.parent, r.parent.allocs), figure(r.change, r.change.allocs), status,
			countsMoved(r.parent, r.change))
	}
	fmt.Fprintf(&sb, "\n%d regression(s), %d warning(s)\n", regressions, warnings)
	return sb.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
