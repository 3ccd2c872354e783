package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"time"

	"tesc/internal/monitor"
	"tesc/internal/snapshot"
	"tesc/internal/stats"
)

func testMonitorStates() []monitor.State {
	at := time.Unix(0, 1753500000000000000)
	return []monitor.State{
		{
			Def: monitor.Definition{
				ID: "mon-1", A: "ev-0", B: "ev-1", H: 2,
				SampleSize: 300, Alpha: 0.01, Alternative: stats.Greater,
				Seed: 0xfeed, Mode: monitor.Auto, Debounce: 100 * time.Millisecond,
				HistoryCap: 8,
			},
			History: []monitor.Sample{
				{Epoch: 3, At: at, Batches: 0, Tau: 0.25, Z: 3.5, P: 0.0002, AdjP: 0.0002, Significant: true, Reused: 0, Recomputed: 300, ElapsedMS: 1.25},
				{Epoch: 7, At: at.Add(time.Second), Batches: 4, Tau: 0.20, Z: 2.9, P: 0.002, AdjP: 0.002, Significant: true, Reused: 280, Recomputed: 20, ElapsedMS: 0.31},
				{Epoch: 9, At: at.Add(2 * time.Second), Batches: 1, Skipped: "below occurrence threshold"},
			},
		},
		{
			Def: monitor.Definition{
				ID: "watch/negative pair", A: "ev-2", B: "ev-3", H: 1,
				SampleSize: 900, Alpha: 0.05, Alternative: stats.Less,
				Seed: 1, Mode: monitor.Manual, Debounce: monitor.DefaultDebounce,
				HistoryCap: 64,
			},
		},
	}
}

// TestMonitorRoundTrip pins the MNTR section: definitions and history
// rings survive Save/Load exactly, timestamps and float statistics
// included.
func TestMonitorRoundTrip(t *testing.T) {
	g := randomGraph(120, 400, 3)
	in := &snapshot.Snapshot{
		Graph:        g,
		Store:        randomStore(t, g.NumNodes(), 3),
		Epoch:        9,
		GraphVersion: 4,
		Monitors:     testMonitorStates(),
	}
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := snapshot.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.Monitors, out.Monitors) {
		t.Fatalf("monitors did not round-trip:\n in  %+v\n out %+v", in.Monitors, out.Monitors)
	}
	info, err := snapshot.Inspect(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range info.Sections {
		if s.Tag == "MNTR" {
			found = true
		}
	}
	if !found {
		t.Fatal("no MNTR section written")
	}
}

// TestMonitorSaveNormalizesDefaults: Save must encode the NORMALIZED
// definition, so a zero-default def with a non-empty history (legal
// input — Normalize fills HistoryCap) round-trips instead of producing
// a file Load rejects. The writer/reader symmetry regression test.
func TestMonitorSaveNormalizesDefaults(t *testing.T) {
	g := randomGraph(40, 80, 9)
	sparse := []monitor.State{{
		Def: monitor.Definition{ID: "m", A: "a", B: "b", H: 1}, // all defaults zero
		History: []monitor.Sample{
			{Epoch: 2, At: time.Unix(0, 1)},
			{Epoch: 3, At: time.Unix(0, 2)},
		},
	}}
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, &snapshot.Snapshot{Graph: g, Monitors: sparse}); err != nil {
		t.Fatal(err)
	}
	out, err := snapshot.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Save wrote a file its own Load rejects: %v", err)
	}
	def := out.Monitors[0].Def
	if def.SampleSize != 900 || def.HistoryCap != monitor.DefaultHistory || def.Alpha != 0.05 {
		t.Fatalf("defaults not normalized on the wire: %+v", def)
	}
	if len(out.Monitors[0].History) != 2 {
		t.Fatalf("history lost: %+v", out.Monitors[0])
	}
}

// TestMonitorSectionForwardCompatible: a snapshot without monitors has
// no MNTR section, and Monitors loads as nil.
func TestMonitorSectionOmittedWhenEmpty(t *testing.T) {
	g := randomGraph(50, 100, 4)
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, &snapshot.Snapshot{Graph: g}); err != nil {
		t.Fatal(err)
	}
	out, err := snapshot.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if out.Monitors != nil {
		t.Fatalf("monitors = %+v, want nil", out.Monitors)
	}
}

// TestMonitorSaveRejectsBad: defective monitor states never reach disk.
func TestMonitorSaveRejectsBad(t *testing.T) {
	g := randomGraph(50, 100, 5)
	cases := map[string][]monitor.State{
		"no id":        {{Def: monitor.Definition{A: "a", B: "b", H: 1}}},
		"same events":  {{Def: monitor.Definition{ID: "m", A: "a", B: "a", H: 1}}},
		"zero level":   {{Def: monitor.Definition{ID: "m", A: "a", B: "b", H: 0}}},
		"duplicate id": {{Def: monitor.Definition{ID: "m", A: "a", B: "b", H: 1}}, {Def: monitor.Definition{ID: "m", A: "c", B: "d", H: 1}}},
	}
	for name, monitors := range cases {
		var buf bytes.Buffer
		err := snapshot.Save(&buf, &snapshot.Snapshot{Graph: g, Monitors: monitors})
		if err == nil {
			t.Errorf("%s: Save accepted a defective monitor", name)
		}
	}
}

// TestMonitorDecodeAdversarial: corrupting any byte of the MNTR
// payload must fail the load (CRC), and CRC-forged structural lies
// (bad counts, epochs out of order) are caught by validation.
func TestMonitorDecodeAdversarial(t *testing.T) {
	g := randomGraph(80, 200, 6)
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, &snapshot.Snapshot{Graph: g, Monitors: testMonitorStates()}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Locate the MNTR section in the byte stream.
	idx := bytes.Index(raw, []byte("MNTR"))
	if idx < 0 {
		t.Fatal("MNTR tag not found in encoded snapshot")
	}
	plen := binary.LittleEndian.Uint64(raw[idx+4 : idx+12])

	// Bit-flip a sample of payload bytes: every one must be caught.
	for off := uint64(0); off < plen; off += 7 {
		mut := append([]byte(nil), raw...)
		mut[uint64(idx+16)+off] ^= 0x40
		if _, err := snapshot.Load(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at MNTR payload offset %d loaded successfully", off)
		}
	}

	// Truncations inside the section must be caught.
	for _, cut := range []int{idx + 16, idx + 20, len(raw) - 3} {
		if _, err := snapshot.Load(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d loaded successfully", cut)
		}
	}

	// Epochs out of order survive the CRC (we re-encode honestly) but
	// must fail validation.
	bad := testMonitorStates()
	bad[0].History[0].Epoch, bad[0].History[1].Epoch = 9, 3
	var buf2 bytes.Buffer
	err := snapshot.Save(&buf2, &snapshot.Snapshot{Graph: g, Monitors: bad})
	if err == nil {
		if _, err := snapshot.Load(bytes.NewReader(buf2.Bytes())); err == nil ||
			!strings.Contains(err.Error(), "non-decreasing") {
			t.Fatalf("out-of-order history epochs loaded: %v", err)
		}
	}
}

func testWatchlistStates() []monitor.State {
	at := time.Unix(0, 1753500000000000000)
	return []monitor.State{
		{
			Def: monitor.Definition{
				ID: "watch-1", H: 2, TopK: 3, MinOccurrences: 2,
				SampleSize: 200, Alpha: 0.05, Alternative: stats.Greater,
				Seed: 0xbeef, Mode: monitor.Auto, Debounce: 50 * time.Millisecond,
				HistoryCap: 16,
			},
			History: []monitor.Sample{
				{
					Epoch: 4, At: at, Batches: 0,
					Tau: 0.31, Z: 4.1, P: 0.00002, AdjP: 0.00002, Significant: true,
					Reused: 0, Recomputed: 420, ElapsedMS: 2.5,
					Top: []monitor.TopPair{
						{A: "ev-0", B: "ev-1", Tau: 0.31, Z: 4.1, P: 0.00002, Significant: true},
						{A: "ev-0", B: "ev-2", Tau: 0.12, Z: 1.7, P: 0.04, Significant: true},
						{A: "ev-1", B: "ev-2", Tau: 0.02, Z: 0.3, P: 0.38},
					},
				},
				{
					Epoch: 8, At: at.Add(time.Second), Batches: 3,
					Tau: 0.29, Z: 3.9, P: 0.00005, AdjP: 0.00005, Significant: true,
					Reused: 390, Recomputed: 30, ElapsedMS: 0.4,
					Top: []monitor.TopPair{
						{A: "ev-0", B: "ev-1", Tau: 0.29, Z: 3.9, P: 0.00005, Significant: true},
					},
				},
				{Epoch: 11, At: at.Add(2 * time.Second), Batches: 1, Skipped: "fewer than two screenable events"},
			},
		},
		{
			Def: monitor.Definition{
				ID: "watch-2", H: 1, TopK: 1, MinOccurrences: 1,
				SampleSize: 900, Alpha: 0.05, Alternative: stats.TwoSided,
				Seed: 7, Mode: monitor.Manual, Debounce: monitor.DefaultDebounce,
				HistoryCap: 64,
			},
		},
	}
}

// TestWatchlistRoundTrip pins the WTCH section: watchlist definitions
// (top-k, min occurrences) and ranked history samples survive
// Save/Load exactly, in a file that also carries fixed-pair monitors.
func TestWatchlistRoundTrip(t *testing.T) {
	g := randomGraph(120, 400, 8)
	in := &snapshot.Snapshot{
		Graph:    g,
		Store:    randomStore(t, g.NumNodes(), 3),
		Monitors: append(testMonitorStates(), testWatchlistStates()...),
	}
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := snapshot.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.Monitors, out.Monitors) {
		t.Fatalf("monitors did not round-trip:\n in  %+v\n out %+v", in.Monitors, out.Monitors)
	}
	info, err := snapshot.Inspect(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var gotMntr, gotWtch bool
	for _, s := range info.Sections {
		gotMntr = gotMntr || s.Tag == "MNTR"
		gotWtch = gotWtch || s.Tag == "WTCH"
	}
	if !gotMntr || !gotWtch {
		t.Fatalf("sections = %+v, want both MNTR and WTCH", info.Sections)
	}

	// All-watchlist snapshots omit MNTR entirely.
	var buf2 bytes.Buffer
	if err := snapshot.Save(&buf2, &snapshot.Snapshot{Graph: g, Monitors: testWatchlistStates()}); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf2.Bytes(), []byte("MNTR")) {
		t.Error("all-watchlist snapshot still wrote an MNTR section")
	}
}

// TestWatchlistSaveRejectsBad: defective watchlist states never reach
// disk.
func TestWatchlistSaveRejectsBad(t *testing.T) {
	g := randomGraph(50, 100, 15)
	cases := map[string][]monitor.State{
		"pair on watchlist": {{Def: monitor.Definition{ID: "w", TopK: 2, A: "a", B: "b", H: 1}}},
		"negative topk":     {{Def: monitor.Definition{ID: "w", TopK: -1, H: 1}}},
		"ranked fixed pair": {{
			Def:     monitor.Definition{ID: "m", A: "a", B: "b", H: 1},
			History: []monitor.Sample{{Epoch: 1, Top: []monitor.TopPair{{A: "a", B: "b"}}}},
		}},
		"over-ranked sample": {{
			Def:     monitor.Definition{ID: "w", TopK: 1, H: 1},
			History: []monitor.Sample{{Epoch: 1, Top: []monitor.TopPair{{A: "a", B: "b"}, {A: "a", B: "c"}}}},
		}},
	}
	for name, monitors := range cases {
		var buf bytes.Buffer
		if err := snapshot.Save(&buf, &snapshot.Snapshot{Graph: g, Monitors: monitors}); err == nil {
			t.Errorf("%s: Save accepted a defective watchlist", name)
		}
	}
}

// TestWatchlistDecodeAdversarial: every corrupted WTCH byte fails the
// CRC, truncations are caught, and duplicate/colliding sections are
// rejected.
func TestWatchlistDecodeAdversarial(t *testing.T) {
	g := randomGraph(80, 200, 16)
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, &snapshot.Snapshot{Graph: g, Monitors: testWatchlistStates()}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	idx := bytes.Index(raw, []byte("WTCH"))
	if idx < 0 {
		t.Fatal("WTCH tag not found in encoded snapshot")
	}
	plen := binary.LittleEndian.Uint64(raw[idx+4 : idx+12])

	for off := uint64(0); off < plen; off += 7 {
		mut := append([]byte(nil), raw...)
		mut[uint64(idx+16)+off] ^= 0x40
		if _, err := snapshot.Load(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at WTCH payload offset %d loaded successfully", off)
		}
	}
	for _, cut := range []int{idx + 16, idx + 20, len(raw) - 3} {
		if _, err := snapshot.Load(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d loaded successfully", cut)
		}
	}
}
