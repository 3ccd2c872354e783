// Package snapshot persists the daemon's durable state — a CSR graph,
// its vicinity-size indexes, and its event store — in a compact,
// checksummed binary format, so a tescd restart warm-starts from disk
// instead of re-parsing text edge lists and re-running the O(|V|·BFS)
// index construction the paper prices as a one-time offline cost
// (§4.2). The economics of TESC rest on paying that cost once and
// amortizing it across many queries; this package is what makes "once"
// mean once per dataset, not once per process lifetime.
//
// # Format
//
// A snapshot is a header followed by self-describing sections, all
// little-endian:
//
//	header  := magic "TESCSNP1" | format version u32 | section count u32
//	section := tag [4]byte | payload length u64 | CRC32-IEEE u32 | payload
//
// The CRC covers the tag plus the payload, so a corrupted tag cannot
// silently demote a known section to an ignorable unknown one.
//
// Section tags:
//
//	META — epoch u64, graph version u64 (the serving-tier stamps)
//	GRPH — flags u8 (must be 0), n u64, arcs u64,
//	       per-node degrees n×u32, adjacency arcs×u32
//	EVTS — store epoch u64, universe u64, event count u32, then per
//	       event: name length u16, name, flags u8 (bit0 = weighted),
//	       occurrence count u32, sorted node IDs count×u32,
//	       [intensities count×f64 when weighted]
//	VIDX — max level u32, n u64, |V^h_v| columns level-major
//	       maxLevel×n×u32 (repeatable, one section per cached index)
//	MNTR — fixed-pair standing-query monitors: count u32, then per
//	       monitor the definition (id/a/b strings, h, sample size,
//	       alpha, alternative, seed, mode, debounce, history cap) and
//	       the history ring (epoch, timestamp, batches, statistics,
//	       reuse counters per sample)
//	WTCH — watchlist monitors (Definition.TopK > 0): like MNTR but
//	       the definition carries top-k and min-occurrences instead
//	       of an event pair, and every history sample additionally
//	       carries its ranking (count u32, then per entry a/b
//	       strings, tau/z/p, significance flag). A separate tag keeps
//	       pre-watchlist readers compatible: they skip WTCH as an
//	       unknown section and still load everything else.
//
// # Trust model
//
// Load assumes nothing about the bytes: every length is validated
// against the bytes actually present before anything is allocated (a
// lying length field hits EOF or a size-equation error, never an OOM),
// every section CRC is verified before parsing, and every semantic
// invariant the in-memory structures rely on — sorted adjacency rows,
// graph symmetry, monotone vicinity levels, sorted unique event names
// and occurrence lists, positive finite intensities — is re-checked. A
// truncated, bit-flipped, or hostile file is rejected with an error;
// it is never half-loaded.
//
// # Versioning
//
// The format version is bumped on any incompatible layout change and
// unknown versions are rejected. Unknown section tags are skipped
// (their CRC still verified), so future writers may append new
// sections without breaking old readers.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"time"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/monitor"
	"tesc/internal/stats"
	"tesc/internal/vicinity"
	"tesc/internal/wal"
)

// FormatVersion is the current snapshot format version.
const FormatVersion = 1

var magic = [8]byte{'T', 'E', 'S', 'C', 'S', 'N', 'P', '1'}

var (
	tagMeta  = [4]byte{'M', 'E', 'T', 'A'}
	tagGraph = [4]byte{'G', 'R', 'P', 'H'}
	tagEvent = [4]byte{'E', 'V', 'T', 'S'}
	tagVidx  = [4]byte{'V', 'I', 'D', 'X'}
	tagMntr  = [4]byte{'M', 'N', 'T', 'R'}
	tagWtch  = [4]byte{'W', 'T', 'C', 'H'}
)

// MaxMonitors bounds the monitor count an MNTR section may declare.
const MaxMonitors = 4096

// MaxVicinityLevels bounds VIDX depth, enforced symmetrically by Save
// and Load so a writer can never produce a file its own reader
// rejects. The paper studies h ≤ 3; anything past graph diameter is
// degenerate.
const MaxVicinityLevels = 64

// maxSections bounds the section count a file may declare.
const maxSections = 4096

// Snapshot is the durable state of one registered graph: the CSR
// graph, its frozen event store, any number of vicinity indexes (one
// per cached max level), and the serving-tier version stamps.
type Snapshot struct {
	Graph *graph.Graph
	// Store may be nil (no EVTS section): a graph persisted before any
	// events were registered.
	Store *events.Store
	// Indexes holds the persisted vicinity indexes in ascending
	// MaxLevel order, each bound to Graph.
	Indexes []*vicinity.Index
	// Epoch and GraphVersion are the serving-tier stamps
	// (server.Snapshot); both default to 1 when no META section is
	// present.
	Epoch        uint64
	GraphVersion uint64
	// Monitors holds the graph's standing queries (definitions plus
	// history rings), so a warm start restores continuous monitoring,
	// not just the data it runs over. May be empty (no MNTR section).
	Monitors []monitor.State
}

// SectionInfo describes one section of a snapshot file.
type SectionInfo struct {
	Tag   string
	Bytes uint64 // payload length, excluding the 16-byte section header
	CRC   uint32
}

// Info summarizes a snapshot file for inspection tooling.
type Info struct {
	FormatVersion uint32
	Sections      []SectionInfo
	Snapshot      *Snapshot
}

// ---- encoding -------------------------------------------------------

// Save writes the snapshot. Every index must be bound to s.Graph and
// the store's universe must match its node count; Save validates both
// so a mismatched snapshot can never reach disk.
func Save(w io.Writer, s *Snapshot) error {
	if s.Graph == nil {
		return fmt.Errorf("snapshot: nil graph")
	}
	n := s.Graph.NumNodes()
	if s.Store != nil {
		if s.Store.Universe() != n {
			return fmt.Errorf("snapshot: store universe %d != graph nodes %d", s.Store.Universe(), n)
		}
		if s.Store.NumEvents() > math.MaxUint32 {
			return fmt.Errorf("snapshot: %d events exceed the format's event-count field", s.Store.NumEvents())
		}
		// The name-length field is u16; a longer name would be silently
		// truncated into a payload the reader misparses — the writer
		// must never produce a file its own reader rejects.
		for _, name := range s.Store.Names() {
			if len(name) > math.MaxUint16 {
				return fmt.Errorf("snapshot: event name of %d bytes exceeds the format's %d-byte limit", len(name), math.MaxUint16)
			}
		}
	}
	seenLevel := make(map[int]bool, len(s.Indexes))
	for _, idx := range s.Indexes {
		if idx.Graph() != s.Graph {
			return fmt.Errorf("snapshot: index (max level %d) not bound to the snapshot graph", idx.MaxLevel())
		}
		if idx.MaxLevel() > MaxVicinityLevels {
			return fmt.Errorf("snapshot: index max level %d exceeds format limit %d", idx.MaxLevel(), MaxVicinityLevels)
		}
		if seenLevel[idx.MaxLevel()] {
			return fmt.Errorf("snapshot: duplicate index max level %d", idx.MaxLevel())
		}
		seenLevel[idx.MaxLevel()] = true
	}
	if len(s.Monitors) > MaxMonitors {
		return fmt.Errorf("snapshot: %d monitors exceed the format limit %d", len(s.Monitors), MaxMonitors)
	}
	// The encoded definitions are the NORMALIZED ones: Normalize fills
	// defaults in place, and encoding the raw input instead would let
	// Save write a file its own Load rejects (e.g. HistoryCap 0 with a
	// non-empty history ring) — the writer/reader symmetry every other
	// section keeps.
	monitors := make([]monitor.State, len(s.Monitors))
	seenMonitor := make(map[string]bool, len(s.Monitors))
	for i, st := range s.Monitors {
		def := st.Def
		if err := (&def).Normalize(); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		if def.ID == "" {
			return fmt.Errorf("snapshot: monitor without an ID")
		}
		if seenMonitor[def.ID] {
			return fmt.Errorf("snapshot: duplicate monitor ID %q", def.ID)
		}
		seenMonitor[def.ID] = true
		if def.H > MaxVicinityLevels {
			return fmt.Errorf("snapshot: monitor %q level %d exceeds format limit %d", def.ID, def.H, MaxVicinityLevels)
		}
		if def.Alternative > stats.Less {
			return fmt.Errorf("snapshot: monitor %q unknown alternative %d", def.ID, def.Alternative)
		}
		if def.Mode > monitor.Manual {
			return fmt.Errorf("snapshot: monitor %q unknown mode %d", def.ID, def.Mode)
		}
		if len(st.History) > def.HistoryCap {
			return fmt.Errorf("snapshot: monitor %q history %d exceeds its capacity %d", def.ID, len(st.History), def.HistoryCap)
		}
		for _, name := range []string{def.ID, def.A, def.B} {
			if len(name) > math.MaxUint16 {
				return fmt.Errorf("snapshot: monitor string of %d bytes exceeds the format's %d-byte limit", len(name), math.MaxUint16)
			}
		}
		for _, smp := range st.History {
			if len(smp.Skipped) > math.MaxUint16 {
				return fmt.Errorf("snapshot: monitor %q skipped reason of %d bytes exceeds the format's %d-byte limit", def.ID, len(smp.Skipped), math.MaxUint16)
			}
			if def.TopK == 0 && len(smp.Top) != 0 {
				return fmt.Errorf("snapshot: fixed-pair monitor %q has a ranked sample", def.ID)
			}
			if len(smp.Top) > def.TopK {
				return fmt.Errorf("snapshot: monitor %q sample ranks %d pairs, top-k is %d", def.ID, len(smp.Top), def.TopK)
			}
			for _, tp := range smp.Top {
				if len(tp.A) > math.MaxUint16 || len(tp.B) > math.MaxUint16 {
					return fmt.Errorf("snapshot: monitor %q ranked event name exceeds the format's %d-byte limit", def.ID, math.MaxUint16)
				}
			}
		}
		monitors[i] = monitor.State{Def: def, History: st.History}
	}
	// Fixed-pair monitors and watchlists travel in separate sections so
	// a pre-watchlist reader degrades gracefully (WTCH skips as an
	// unknown tag) instead of rejecting the whole file. Relative order
	// within each kind is preserved; Load puts fixed pairs first.
	var fixedMonitors, watchlists []monitor.State
	for _, st := range monitors {
		if st.Def.TopK > 0 {
			watchlists = append(watchlists, st)
		} else {
			fixedMonitors = append(fixedMonitors, st)
		}
	}
	epoch, gv := s.Epoch, s.GraphVersion
	if epoch == 0 {
		epoch = 1
	}
	if gv == 0 {
		gv = 1
	}

	bw := bufio.NewWriterSize(w, 1<<20)
	sections := 2 + len(s.Indexes) // META + GRPH + VIDX*
	if s.Store != nil {
		sections++
	}
	if len(fixedMonitors) > 0 {
		sections++
	}
	if len(watchlists) > 0 {
		sections++
	}
	var hdr [16]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], FormatVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(sections))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}

	if err := writeSection(bw, tagMeta, encodeMeta(epoch, gv)); err != nil {
		return err
	}
	if err := writeSection(bw, tagGraph, encodeGraph(s.Graph)); err != nil {
		return err
	}
	if s.Store != nil {
		if err := writeSection(bw, tagEvent, encodeEvents(s.Store)); err != nil {
			return err
		}
	}
	idxs := append([]*vicinity.Index(nil), s.Indexes...)
	sort.Slice(idxs, func(i, j int) bool { return idxs[i].MaxLevel() < idxs[j].MaxLevel() })
	for _, idx := range idxs {
		if err := writeSection(bw, tagVidx, encodeIndex(idx)); err != nil {
			return err
		}
	}
	if len(fixedMonitors) > 0 {
		if err := writeSection(bw, tagMntr, encodeMonitors(fixedMonitors, false)); err != nil {
			return err
		}
	}
	if len(watchlists) > 0 {
		if err := writeSection(bw, tagWtch, encodeMonitors(watchlists, true)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeSection emits one tag | length | crc | payload record.
func writeSection(w io.Writer, tag [4]byte, payload []byte) error {
	var hdr [16]byte
	copy(hdr[:4], tag[:])
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:16], sectionCRC(tag, payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// sectionCRC checksums a section's tag and payload together.
func sectionCRC(tag [4]byte, payload []byte) uint32 {
	h := crc32.NewIEEE()
	h.Write(tag[:])
	h.Write(payload)
	return h.Sum32()
}

func encodeMeta(epoch, gv uint64) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf[0:8], epoch)
	binary.LittleEndian.PutUint64(buf[8:16], gv)
	return buf
}

func encodeGraph(g *graph.Graph) []byte {
	n, arcs := g.NumNodes(), 2*g.NumEdges()
	buf := make([]byte, 0, 1+8+8+4*int64(n)+4*arcs)
	buf = append(buf, 0) // flags
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(arcs))
	g.ForEachPage(func(off []int64, _ []graph.NodeID) {
		b := buf
		for i := 1; i < len(off); i++ {
			b = binary.LittleEndian.AppendUint32(b, uint32(off[i]-off[i-1]))
		}
		buf = b
	})
	g.ForEachPage(func(off []int64, adj []graph.NodeID) {
		b := buf
		for _, u := range adj[off[0]:off[len(off)-1]] {
			b = binary.LittleEndian.AppendUint32(b, uint32(u))
		}
		buf = b
	})
	return buf
}

func encodeEvents(s *events.Store) []byte {
	buf := make([]byte, 0, 1<<12)
	buf = binary.LittleEndian.AppendUint64(buf, s.Epoch())
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Universe()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.NumEvents()))
	for _, name := range s.Names() { // sorted — canonical order
		occ := s.Occurrences(name)
		weighted := s.Weighted(name)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
		var flags byte
		if weighted {
			flags |= 1
		}
		buf = append(buf, flags)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(occ)))
		for _, v := range occ {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		if weighted {
			for _, v := range occ {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Intensity(name, v)))
			}
		}
	}
	return buf
}

// encodeMonitors serializes fixed-pair monitors (watchlist == false,
// MNTR layout) or watchlists (watchlist == true, WTCH layout — the
// pair strings are replaced by top-k/min-occurrences and each sample
// carries its ranking).
func encodeMonitors(monitors []monitor.State, watchlist bool) []byte {
	buf := make([]byte, 0, 1<<10)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(monitors)))
	for _, st := range monitors {
		def := st.Def
		buf = wal.AppendString(buf, def.ID)
		if !watchlist {
			buf = wal.AppendString(buf, def.A)
			buf = wal.AppendString(buf, def.B)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(def.H))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(def.SampleSize))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(def.Alpha))
		buf = append(buf, byte(def.Alternative), byte(def.Mode))
		buf = binary.LittleEndian.AppendUint64(buf, def.Seed)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(def.Debounce))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(def.HistoryCap))
		if watchlist {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(def.TopK))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(def.MinOccurrences))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.History)))
		for _, smp := range st.History {
			buf = binary.LittleEndian.AppendUint64(buf, smp.Epoch)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(smp.At.UnixNano()))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(smp.Batches))
			for _, f := range [4]float64{smp.Tau, smp.Z, smp.P, smp.AdjP} {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
			}
			var flags byte
			if smp.Significant {
				flags |= 1
			}
			buf = append(buf, flags)
			buf = wal.AppendString(buf, smp.Skipped)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(smp.Reused))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(smp.Recomputed))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(smp.ElapsedMS))
			if watchlist {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(smp.Top)))
				for _, tp := range smp.Top {
					buf = wal.AppendString(buf, tp.A)
					buf = wal.AppendString(buf, tp.B)
					for _, f := range [3]float64{tp.Tau, tp.Z, tp.P} {
						buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
					}
					var tflags byte
					if tp.Significant {
						tflags |= 1
					}
					buf = append(buf, tflags)
				}
			}
		}
	}
	return buf
}

func encodeIndex(idx *vicinity.Index) []byte {
	n := idx.Graph().NumNodes()
	levels := idx.MaxLevel()
	buf := make([]byte, 0, 4+8+4*n*levels)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(levels))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	for h := 1; h <= levels; h++ {
		for _, page := range idx.Pages(h) {
			for _, s := range page {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(s))
			}
		}
	}
	return buf
}

// ---- decoding -------------------------------------------------------

// Load reads and fully validates a snapshot. On any defect — short
// read, bad magic or version, CRC mismatch, lying length field,
// violated structural invariant — it returns an error and no partial
// state.
func Load(r io.Reader) (*Snapshot, error) {
	info, err := load(r)
	if err != nil {
		return nil, err
	}
	return info.Snapshot, nil
}

// Inspect is Load plus per-section metadata, for operator tooling.
func Inspect(r io.Reader) (*Info, error) {
	return load(r)
}

func load(r io.Reader) (*Info, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: reading header: %w", err)
	}
	if [8]byte(hdr[:8]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", hdr[:8])
	}
	version := binary.LittleEndian.Uint32(hdr[8:12])
	if version != FormatVersion {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (supported: %d)", version, FormatVersion)
	}
	count := binary.LittleEndian.Uint32(hdr[12:16])
	if count > maxSections {
		return nil, fmt.Errorf("snapshot: section count %d exceeds limit %d", count, maxSections)
	}

	info := &Info{FormatVersion: version}
	snap := &Snapshot{Epoch: 1, GraphVersion: 1}
	var fixedMonitors, watchlists []monitor.State
	var sawMeta, sawEvents bool
	seenLevel := make(map[int]bool)
	for i := uint32(0); i < count; i++ {
		var shdr [16]byte
		if _, err := io.ReadFull(r, shdr[:]); err != nil {
			return nil, fmt.Errorf("snapshot: reading section %d header: %w", i, err)
		}
		tag := [4]byte(shdr[:4])
		plen := binary.LittleEndian.Uint64(shdr[4:12])
		wantCRC := binary.LittleEndian.Uint32(shdr[12:16])
		payload, err := readPayload(r, plen)
		if err != nil {
			return nil, fmt.Errorf("snapshot: section %d (%q): %w", i, tag[:], err)
		}
		if got := sectionCRC(tag, payload); got != wantCRC {
			return nil, fmt.Errorf("snapshot: section %d (%q): CRC mismatch (file %08x, computed %08x)", i, tag[:], wantCRC, got)
		}
		info.Sections = append(info.Sections, SectionInfo{Tag: string(tag[:]), Bytes: plen, CRC: wantCRC})

		switch tag {
		case tagMeta:
			if sawMeta {
				return nil, fmt.Errorf("snapshot: duplicate META section")
			}
			sawMeta = true
			if err := decodeMeta(payload, snap); err != nil {
				return nil, err
			}
		case tagGraph:
			if snap.Graph != nil {
				return nil, fmt.Errorf("snapshot: duplicate GRPH section")
			}
			g, err := decodeGraph(payload)
			if err != nil {
				return nil, err
			}
			snap.Graph = g
		case tagEvent:
			if sawEvents {
				return nil, fmt.Errorf("snapshot: duplicate EVTS section")
			}
			if snap.Graph == nil {
				return nil, fmt.Errorf("snapshot: EVTS section before GRPH")
			}
			sawEvents = true
			store, err := decodeEvents(payload, snap.Graph.NumNodes())
			if err != nil {
				return nil, err
			}
			snap.Store = store
		case tagVidx:
			if snap.Graph == nil {
				return nil, fmt.Errorf("snapshot: VIDX section before GRPH")
			}
			idx, err := decodeIndex(payload, snap.Graph)
			if err != nil {
				return nil, err
			}
			if seenLevel[idx.MaxLevel()] {
				return nil, fmt.Errorf("snapshot: duplicate VIDX max level %d", idx.MaxLevel())
			}
			seenLevel[idx.MaxLevel()] = true
			snap.Indexes = append(snap.Indexes, idx)
		case tagMntr:
			if fixedMonitors != nil {
				return nil, fmt.Errorf("snapshot: duplicate MNTR section")
			}
			if fixedMonitors, err = decodeMonitors(payload, false); err != nil {
				return nil, err
			}
		case tagWtch:
			if watchlists != nil {
				return nil, fmt.Errorf("snapshot: duplicate WTCH section")
			}
			if watchlists, err = decodeMonitors(payload, true); err != nil {
				return nil, err
			}
		default:
			// Unknown section from a newer writer: CRC verified, payload
			// skipped.
		}
	}
	if snap.Graph == nil {
		return nil, fmt.Errorf("snapshot: no GRPH section")
	}
	// The declared section count must account for the whole file.
	var one [1]byte
	if k, _ := r.Read(one[:]); k != 0 {
		return nil, fmt.Errorf("snapshot: trailing data after %d declared sections", count)
	}
	// Merge the two monitor kinds (fixed pairs first, matching Save's
	// split) and reject IDs colliding across sections.
	seenMonitor := make(map[string]bool, len(fixedMonitors))
	for _, st := range fixedMonitors {
		seenMonitor[st.Def.ID] = true
	}
	for _, st := range watchlists {
		if seenMonitor[st.Def.ID] {
			return nil, fmt.Errorf("snapshot: monitor ID %q appears in both MNTR and WTCH", st.Def.ID)
		}
	}
	snap.Monitors = append(fixedMonitors, watchlists...)
	sort.Slice(snap.Indexes, func(i, j int) bool { return snap.Indexes[i].MaxLevel() < snap.Indexes[j].MaxLevel() })
	info.Snapshot = snap
	return info, nil
}

// readPayload reads exactly n bytes without trusting n: allocation is
// capped at chunk size per step, so a hostile length field makes the
// read hit EOF after the bytes actually present — memory use is
// bounded by the real input size (plus one chunk), never by the claim.
// Honest payloads up to one chunk get a single exact-size allocation
// and one read.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 4 << 20
	if n > math.MaxInt64 {
		return nil, fmt.Errorf("declared payload length %d not representable", n)
	}
	buf := make([]byte, min(n, chunk))
	var read uint64
	for {
		k, err := io.ReadFull(r, buf[read:])
		read += uint64(k)
		if err != nil {
			return nil, fmt.Errorf("truncated payload: declared %d bytes, got %d", n, read)
		}
		if read == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-read, chunk))...)
	}
}

func decodeMeta(b []byte, snap *Snapshot) error {
	if len(b) != 16 {
		return fmt.Errorf("snapshot: META payload is %d bytes, want 16", len(b))
	}
	snap.Epoch = binary.LittleEndian.Uint64(b[0:8])
	snap.GraphVersion = binary.LittleEndian.Uint64(b[8:16])
	if snap.Epoch < 1 || snap.GraphVersion < 1 {
		return fmt.Errorf("snapshot: META epoch %d / graph version %d must be >= 1", snap.Epoch, snap.GraphVersion)
	}
	return nil
}

func decodeGraph(b []byte) (*graph.Graph, error) {
	c := wal.NewReader(b, "snapshot: GRPH")
	flags, n64, arcs := c.U8(), c.U64(), c.U64()
	switch {
	case flags != 0:
		c.Failf("snapshot: GRPH unknown flag bits %#02x", flags)
	case n64 > uint64(graph.MaxNodes):
		c.Failf("snapshot: GRPH node count %d exceeds max %d", n64, graph.MaxNodes)
	// Exact size equation before any O(n) allocation: the payload must
	// hold precisely the declared degrees and arcs.
	case arcs > math.MaxInt64/4 || uint64(c.Remaining()) != 4*n64+4*arcs:
		c.Failf("snapshot: GRPH payload %d bytes does not match n=%d, arcs=%d", len(b), n64, arcs)
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	n := int(n64)
	// Bulk-decode both arrays (size-checked above) — per-value reader
	// calls are measurable on the warm-start path at Twitter scale.
	degBytes := c.Bytes(4 * n)
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + int64(binary.LittleEndian.Uint32(degBytes[4*v:]))
	}
	if offsets[n] != int64(arcs) {
		return nil, fmt.Errorf("snapshot: GRPH degrees sum to %d, declared %d arcs", offsets[n], arcs)
	}
	adjBytes := c.Bytes(4 * int(arcs))
	adj := make([]graph.NodeID, arcs)
	for i := range adj {
		adj[i] = graph.NodeID(binary.LittleEndian.Uint32(adjBytes[4*i:]))
	}
	g, err := graph.FromCSR(offsets, adj)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return g, nil
}

func decodeEvents(b []byte, universe int) (*events.Store, error) {
	c := wal.NewReader(b, "snapshot: EVTS")
	// Every event record is at least 8 bytes.
	epoch, u64v, numEvents := c.U64(), c.U64(), c.Count(8)
	switch {
	case epoch < 1:
		c.Failf("snapshot: EVTS epoch %d must be >= 1", epoch)
	case u64v != uint64(universe):
		c.Failf("snapshot: EVTS universe %d != graph nodes %d", u64v, universe)
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	builder := events.NewBuilder(universe)
	prevName := ""
	for e := uint32(0); e < numEvents; e++ {
		name, flags, count := c.Str(), c.U8(), c.U32()
		switch {
		case name == "":
			c.Failf("snapshot: EVTS event %d has empty name", e)
		case e > 0 && name <= prevName:
			c.Failf("snapshot: EVTS event names not strictly ascending (%q after %q)", name, prevName)
		case flags&^byte(1) != 0:
			c.Failf("snapshot: EVTS event %q unknown flag bits %#02x", name, flags)
		case count == 0:
			c.Failf("snapshot: EVTS event %q has no occurrences", name)
		}
		prevName = name
		weighted := flags&1 != 0
		nodeBytes := c.Bytes(4 * int(count))
		var intensityBytes []byte
		if weighted {
			intensityBytes = c.Bytes(8 * int(count))
		}
		if err := c.Err(); err != nil {
			return nil, err
		}
		prev := int64(-1)
		for k := 0; k < int(count); k++ {
			v := int64(binary.LittleEndian.Uint32(nodeBytes[4*k:]))
			if v >= int64(universe) {
				return nil, fmt.Errorf("snapshot: EVTS event %q node %d outside universe [0,%d)", name, v, universe)
			}
			if v <= prev {
				return nil, fmt.Errorf("snapshot: EVTS event %q occurrences not strictly ascending (%d after %d)", name, v, prev)
			}
			prev = v
			w := 1.0
			if weighted {
				w = math.Float64frombits(binary.LittleEndian.Uint64(intensityBytes[8*k:]))
				if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
					return nil, fmt.Errorf("snapshot: EVTS event %q node %d has bad intensity %g", name, v, w)
				}
			}
			builder.AddWeighted(name, graph.NodeID(v), w)
		}
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("snapshot: EVTS has %d trailing bytes", c.Remaining())
	}
	store, err := builder.BuildAt(epoch)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return store, nil
}

func decodeIndex(b []byte, g *graph.Graph) (*vicinity.Index, error) {
	c := wal.NewReader(b, "snapshot: VIDX")
	levels, n64 := c.U32(), c.U64()
	switch {
	case levels < 1 || levels > MaxVicinityLevels:
		c.Failf("snapshot: VIDX max level %d outside [1,%d]", levels, MaxVicinityLevels)
	case n64 != uint64(g.NumNodes()):
		c.Failf("snapshot: VIDX node count %d != graph nodes %d", n64, g.NumNodes())
	case uint64(c.Remaining()) != 4*uint64(levels)*n64:
		c.Failf("snapshot: VIDX payload %d bytes does not match %d levels × %d nodes", len(b), levels, n64)
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	n := int(n64)
	sizes := make([][]int32, levels)
	for h := range sizes {
		colBytes := c.Bytes(4 * n)
		col := make([]int32, n)
		for v := 0; v < n; v++ {
			raw := binary.LittleEndian.Uint32(colBytes[4*v:])
			if raw > uint32(math.MaxInt32) {
				return nil, fmt.Errorf("snapshot: VIDX size %d at level %d node %d overflows int32", raw, h+1, v)
			}
			col[v] = int32(raw)
		}
		sizes[h] = col
	}
	idx, err := vicinity.FromSizes(g, sizes)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return idx, nil
}

// decodeMonitors parses an MNTR (watchlist == false) or WTCH
// (watchlist == true) payload; see encodeMonitors for the layouts.
func decodeMonitors(b []byte, watchlist bool) ([]monitor.State, error) {
	what := "MNTR"
	if watchlist {
		what = "WTCH"
	}
	c := wal.NewReader(b, "snapshot: "+what)
	// Every monitor record is at least 44 bytes of fixed fields (WTCH
	// records are larger still).
	count := c.Count(44)
	if count > MaxMonitors {
		c.Failf("snapshot: %s declares %d monitors, limit %d", what, count, MaxMonitors)
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	out := make([]monitor.State, 0, count)
	seen := make(map[string]bool, count)
	for i := uint32(0); i < count; i++ {
		var def monitor.Definition
		def.ID = c.Str()
		if !watchlist {
			def.A, def.B = c.Str(), c.Str()
		}
		h, sample, alpha, alt, mode := c.U32(), c.U32(), c.F64(), c.U8(), c.U8()
		seed, debounce, histCap := c.U64(), c.U64(), c.U32()
		if watchlist {
			def.TopK, def.MinOccurrences = int(c.U32()), int(c.U32())
		}
		// Each history record is at least 77 bytes.
		histLen := c.Count(77)
		switch {
		case def.ID == "":
			c.Failf("snapshot: %s monitor %d has no ID", what, i)
		case seen[def.ID]:
			c.Failf("snapshot: %s duplicate monitor ID %q", what, def.ID)
		case h > MaxVicinityLevels:
			c.Failf("snapshot: %s monitor %q level %d exceeds limit %d", what, def.ID, h, MaxVicinityLevels)
		case alt > uint8(stats.Less):
			c.Failf("snapshot: %s monitor %q unknown alternative %d", what, def.ID, alt)
		case mode > uint8(monitor.Manual):
			c.Failf("snapshot: %s monitor %q unknown mode %d", what, def.ID, mode)
		case debounce > math.MaxInt64:
			c.Failf("snapshot: %s monitor %q debounce %d overflows", what, def.ID, debounce)
		case histLen > histCap:
			c.Failf("snapshot: %s monitor %q history %d exceeds its capacity %d", what, def.ID, histLen, histCap)
		case watchlist && def.TopK == 0:
			c.Failf("snapshot: %s monitor %q declares top-k 0", what, def.ID)
		}
		if err := c.Err(); err != nil {
			return nil, err
		}
		seen[def.ID] = true
		def.H = int(h)
		def.SampleSize = int(sample)
		def.Alpha = alpha
		def.Alternative = stats.Alternative(alt)
		def.Seed = seed
		def.Mode = monitor.Mode(mode)
		def.Debounce = time.Duration(debounce)
		def.HistoryCap = int(histCap)
		if err := def.Normalize(); err != nil {
			return nil, fmt.Errorf("snapshot: %s monitor %q: %w", what, def.ID, err)
		}
		st := monitor.State{Def: def}
		prevEpoch := uint64(0)
		for k := uint32(0); k < histLen; k++ {
			var smp monitor.Sample
			epoch, atNanos, batches := c.U64(), c.U64(), c.U32()
			smp.Tau, smp.Z, smp.P, smp.AdjP = c.F64(), c.F64(), c.F64(), c.F64()
			flags, skipped := c.U8(), c.Str()
			reused, recomputed, elapsed := c.U64(), c.U64(), c.F64()
			if watchlist {
				// Each ranked entry is at least 29 bytes.
				topLen := c.Count(29)
				if int(topLen) > def.TopK {
					c.Failf("snapshot: %s monitor %q sample %d ranks %d pairs, top-k is %d", what, def.ID, k, topLen, def.TopK)
				}
				for j := uint32(0); j < topLen && c.Err() == nil; j++ {
					tp := monitor.TopPair{A: c.Str(), B: c.Str()}
					tp.Tau, tp.Z, tp.P = c.F64(), c.F64(), c.F64()
					tflags := c.U8()
					if tflags&^byte(1) != 0 {
						c.Failf("snapshot: %s monitor %q sample %d rank %d unknown flag bits %#02x", what, def.ID, k, j, tflags)
					}
					tp.Significant = tflags&1 != 0
					smp.Top = append(smp.Top, tp)
				}
			}
			switch {
			case flags&^byte(1) != 0:
				c.Failf("snapshot: %s monitor %q sample %d unknown flag bits %#02x", what, def.ID, k, flags)
			case epoch < prevEpoch:
				c.Failf("snapshot: %s monitor %q history epochs not non-decreasing (%d after %d)", what, def.ID, epoch, prevEpoch)
			case reused > math.MaxInt64 || recomputed > math.MaxInt64:
				c.Failf("snapshot: %s monitor %q sample %d reuse counters overflow", what, def.ID, k)
			}
			if err := c.Err(); err != nil {
				return nil, err
			}
			prevEpoch = epoch
			smp.Epoch = epoch
			smp.At = time.Unix(0, int64(atNanos))
			smp.Batches = int(batches)
			smp.Significant = flags&1 != 0
			smp.Skipped = skipped
			smp.Reused = int64(reused)
			smp.Recomputed = int64(recomputed)
			smp.ElapsedMS = elapsed
			st.History = append(st.History, smp)
		}
		out = append(out, st)
	}
	if c.Remaining() != 0 {
		return nil, fmt.Errorf("snapshot: %s has %d trailing bytes", what, c.Remaining())
	}
	return out, nil
}

// ---- files ----------------------------------------------------------

// SaveFileFS writes the snapshot to path atomically through fsys
// (wal.WriteFileAtomic): a crash mid-write leaves at worst a torn temp
// file — which boot-time scans ignore by extension — never a torn
// snapshot. It returns the file's size.
func SaveFileFS(fsys wal.FS, path string, s *Snapshot) (int64, error) {
	return wal.WriteFileAtomic(fsys, path, func(w io.Writer) error { return Save(w, s) })
}

// SaveFile is SaveFileFS over the real filesystem.
func SaveFile(path string, s *Snapshot) (int64, error) {
	return SaveFileFS(wal.OSFS{}, path, s)
}

// LoadFileFS reads and validates the snapshot at path through fsys.
func LoadFileFS(fsys wal.FS, path string) (*Snapshot, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(bufio.NewReaderSize(f, 1<<20))
}

// LoadFile reads and validates the snapshot at path.
func LoadFile(path string) (*Snapshot, error) {
	return LoadFileFS(wal.OSFS{}, path)
}

// InspectFile is Inspect over a file.
func InspectFile(path string) (*Info, error) {
	f, err := wal.OSFS{}.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Inspect(bufio.NewReaderSize(f, 1<<20))
}
