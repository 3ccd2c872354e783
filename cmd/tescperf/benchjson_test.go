package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchFile is BENCHMARK.json, the benchmark's declaration at the root
// of the repository.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) (benchFile, []byte) {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf, raw
}

// BENCHMARK.json decodes strictly, re-encodes to the same document, and
// has exactly its six top-level keys.
func TestBenchmarkJSONRoundTrip(t *testing.T) {
	bf, raw := readBenchFile(t)
	again, err := json.Marshal(bf)
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(raw, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(again, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("BENCHMARK.json does not survive a decode/encode round trip")
	}
	if n := len(a.(map[string]any)); n != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want 6", n)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// The declaration must agree with what the program reports and stay
// within the benchmark contract's limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bf, _ := readBenchFile(t)

	if len(bf.Paths) < 1 || len(bf.Paths) > 16 {
		t.Errorf("%d paths, want 1..16", len(bf.Paths))
	}
	for _, p := range bf.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("bad path %q", p)
		}
	}
	if len(bf.Command) < 1 || len(bf.Command) > 32 {
		t.Errorf("command has %d words, want 1..32", len(bf.Command))
	}
	for _, c := range bf.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("bad command word %q", c)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", bf.RunSeconds)
	}

	seen := make(map[string]bool)
	checkName := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}

	if len(bf.Workloads) < 2 || len(bf.Workloads) > 8 || len(bf.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		checkName(w.Name)
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, program has %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, program reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s/%s, program reports %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: bad unit %q or better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s with better=lower")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s must be declared with the largest bound (%v < %v)", setupBound, maxBound)
	}

	if len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, program reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s/%s, program reports %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: bad unit %q or better %q", m.Name, m.Unit, m.Better)
		}
	}

	// The whole schedule — 4 + 22 runs per workload, each with its
	// set-up and checks (under ~8 s here), plus two cold builds — must
	// fit the 3420 s budget.
	runs := 4 + 22*len(bf.Workloads)
	if total := runs*(bf.RunSeconds+8) + 2*120; total > 3420 {
		t.Errorf("schedule needs ~%d s, budget 3420 s", total)
	}
}
