package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/screen"
	"tesc/internal/snapshot"
	"tesc/internal/vicinity"
)

// validSnapshotBytes builds a small but fully featured snapshot:
// graph, weighted events, one index, meta stamps.
func validSnapshotBytes(t testing.TB) []byte {
	t.Helper()
	g := graph.MustFromEdges(8, [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {0, 7}, {1, 5}})
	b := events.NewBuilder(8)
	b.Add("a", 0)
	b.Add("a", 3)
	b.AddWeighted("b", 2, 2.5)
	b.Add("b", 6)
	store := b.Build()
	idx, err := vicinity.Build(g, 2, vicinity.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = snapshot.Save(&buf, &snapshot.Snapshot{
		Graph: g, Store: store, Indexes: []*vicinity.Index{idx}, Epoch: 5, GraphVersion: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTruncationAtEveryBoundary cuts the file at every byte offset;
// every prefix must be rejected, never half-loaded.
func TestTruncationAtEveryBoundary(t *testing.T) {
	data := validSnapshotBytes(t)
	for cut := 0; cut < len(data); cut++ {
		if _, err := snapshot.Load(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at byte %d/%d loaded without error", cut, len(data))
		}
	}
	if _, err := snapshot.Load(bytes.NewReader(data)); err != nil {
		t.Fatalf("untruncated file must load: %v", err)
	}
	// One extra byte after the declared sections is trailing garbage.
	if _, err := snapshot.Load(bytes.NewReader(append(append([]byte{}, data...), 0))); err == nil {
		t.Fatal("trailing byte loaded without error")
	}
}

// TestBitFlipEveryByte flips bits in every byte of the file — header,
// section headers, payloads, CRCs. The tag+payload CRC plus the strict
// header checks mean every flip must surface as an error.
func TestBitFlipEveryByte(t *testing.T) {
	data := validSnapshotBytes(t)
	for pos := 0; pos < len(data); pos++ {
		for _, mask := range []byte{0x01, 0x80} {
			mut := append([]byte{}, data...)
			mut[pos] ^= mask
			if _, err := snapshot.Load(bytes.NewReader(mut)); err == nil {
				t.Fatalf("bit flip %#02x at byte %d loaded without error", mask, pos)
			}
		}
	}
}

// sections parses the file's section table: (header offset, payload
// length) per section, for targeted corruption.
type sectionRef struct {
	off  int // offset of the 16-byte section header
	tag  string
	plen int
}

func parseSections(t *testing.T, data []byte) []sectionRef {
	t.Helper()
	count := int(binary.LittleEndian.Uint32(data[12:16]))
	var out []sectionRef
	off := 16
	for i := 0; i < count; i++ {
		plen := int(binary.LittleEndian.Uint64(data[off+4 : off+12]))
		out = append(out, sectionRef{off: off, tag: string(data[off : off+4]), plen: plen})
		off += 16 + plen
	}
	if off != len(data) {
		t.Fatalf("section walk ended at %d, file is %d bytes", off, len(data))
	}
	return out
}

// rewriteCRC recomputes a section's CRC after targeted payload edits,
// so the test exercises the semantic validators behind the checksum.
func rewriteCRC(data []byte, s sectionRef) {
	h := crc32.NewIEEE()
	h.Write(data[s.off : s.off+4])
	h.Write(data[s.off+16 : s.off+16+s.plen])
	binary.LittleEndian.PutUint32(data[s.off+12:s.off+16], h.Sum32())
}

// TestLyingFields forges internally consistent (CRC-correct) sections
// whose declared counts lie: oversize node counts, inflated arc
// counts, undersized universes. The semantic validators must reject
// each without large allocations or panics.
func TestLyingFields(t *testing.T) {
	base := validSnapshotBytes(t)
	find := func(tag string) sectionRef {
		for _, s := range parseSections(t, base) {
			if s.tag == tag {
				return s
			}
		}
		t.Fatalf("no %s section", tag)
		return sectionRef{}
	}

	corrupt := func(name, tag string, edit func(payload []byte)) {
		t.Run(name, func(t *testing.T) {
			data := append([]byte{}, base...)
			s := find(tag)
			edit(data[s.off+16 : s.off+16+s.plen])
			rewriteCRC(data, s)
			if _, err := snapshot.Load(bytes.NewReader(data)); err == nil {
				t.Fatalf("%s loaded without error", name)
			}
		})
	}

	// GRPH payload: flags u8 | n u64 | arcs u64 | degrees | adj.
	corrupt("oversize node count", "GRPH", func(p []byte) {
		binary.LittleEndian.PutUint64(p[1:9], 1<<40)
	})
	corrupt("node count beyond payload", "GRPH", func(p []byte) {
		binary.LittleEndian.PutUint64(p[1:9], uint64(len(p))) // plausible but unbacked by bytes
	})
	corrupt("inflated arc count", "GRPH", func(p []byte) {
		binary.LittleEndian.PutUint64(p[9:17], 1<<62)
	})
	corrupt("unknown graph flags", "GRPH", func(p []byte) {
		p[0] |= 0x40
	})
	corrupt("directed graph flag", "GRPH", func(p []byte) {
		p[0] |= 0x01
	})
	corrupt("degree sum mismatch", "GRPH", func(p []byte) {
		binary.LittleEndian.PutUint32(p[17:21], binary.LittleEndian.Uint32(p[17:21])+1)
	})
	corrupt("adjacency out of range", "GRPH", func(p []byte) {
		binary.LittleEndian.PutUint32(p[len(p)-4:], 9999)
	})
	corrupt("asymmetric adjacency", "GRPH", func(p []byte) {
		// Last adjacency entry: redirect the arc to a node that does not
		// point back (node 7's last neighbor becomes 3; 3 has no arc to 7).
		binary.LittleEndian.PutUint32(p[len(p)-4:], 3)
	})

	// EVTS payload: epoch u64 | universe u64 | count u32 | records.
	corrupt("zero events epoch", "EVTS", func(p []byte) {
		binary.LittleEndian.PutUint64(p[0:8], 0)
	})
	corrupt("events universe mismatch", "EVTS", func(p []byte) {
		binary.LittleEndian.PutUint64(p[8:16], 4)
	})
	corrupt("event count beyond payload", "EVTS", func(p []byte) {
		binary.LittleEndian.PutUint32(p[16:20], 1<<30)
	})
	corrupt("negative intensity", "EVTS", func(p []byte) {
		// Event "b" is weighted; its intensities are the trailing f64s.
		v := binary.LittleEndian.Uint64(p[len(p)-8:])
		binary.LittleEndian.PutUint64(p[len(p)-8:], v|0x8000000000000000)
	})

	// VIDX payload: levels u32 | n u64 | columns.
	corrupt("zero index levels", "VIDX", func(p []byte) {
		binary.LittleEndian.PutUint32(p[0:4], 0)
	})
	corrupt("huge index levels", "VIDX", func(p []byte) {
		binary.LittleEndian.PutUint32(p[0:4], 1<<20)
	})
	corrupt("index node count mismatch", "VIDX", func(p []byte) {
		binary.LittleEndian.PutUint64(p[4:12], 1<<33)
	})
	corrupt("vicinity size above n", "VIDX", func(p []byte) {
		binary.LittleEndian.PutUint32(p[12:16], 1000)
	})
	corrupt("vicinity levels decreasing", "VIDX", func(p []byte) {
		// Level-2 column follows the level-1 column; zero a level-2 entry
		// below its level-1 value.
		binary.LittleEndian.PutUint32(p[12+8*4:12+8*4+4], 0)
	})
}

// TestUnknownSectionSkipped proves forward compatibility: an unknown
// tag with a valid CRC is ignored, not fatal.
func TestUnknownSectionSkipped(t *testing.T) {
	data := validSnapshotBytes(t)
	payload := []byte("future payload")
	var extra bytes.Buffer
	extra.WriteString("XFUT")
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(payload)))
	extra.Write(lenBuf[:])
	h := crc32.NewIEEE()
	h.Write([]byte("XFUT"))
	h.Write(payload)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], h.Sum32())
	extra.Write(crcBuf[:])
	extra.Write(payload)

	mut := append([]byte{}, data...)
	binary.LittleEndian.PutUint32(mut[12:16], binary.LittleEndian.Uint32(mut[12:16])+1)
	mut = append(mut, extra.Bytes()...)
	snap, err := snapshot.Load(bytes.NewReader(mut))
	if err != nil {
		t.Fatalf("unknown section must be skipped, got error: %v", err)
	}
	if snap.Graph.NumNodes() != 8 || snap.Store == nil || len(snap.Indexes) != 1 {
		t.Fatalf("known sections lost while skipping unknown one: %+v", snap)
	}
}

// FuzzLoadSnapshot feeds arbitrary bytes to the loader: it must return
// an error or a valid snapshot, never panic or balloon memory. Part of
// the CI fuzz smoke.
func FuzzLoadSnapshot(f *testing.F) {
	valid := validSnapshotBytes(f)
	f.Add(valid)
	f.Add(valid[:20])
	f.Add([]byte("TESCSNP1"))
	f.Add([]byte{})
	// A few structured mutants to seed interesting paths.
	truncated := append([]byte{}, valid[:len(valid)/2]...)
	f.Add(truncated)
	flipped := append([]byte{}, valid...)
	flipped[30] ^= 0xff
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := snapshot.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if snap.Graph == nil {
			t.Fatal("nil-graph snapshot returned without error")
		}
		// Every monitor a snapshot restores re-screens with its H, n
		// and α, so each must already pass the screen's own rules
		// (testdata/fuzz holds an MNTR record with a NaN α).
		for _, st := range snap.Monitors {
			d := st.Def
			cfg, err := screen.Config{H: d.H, SampleSize: d.SampleSize, Alpha: d.Alpha}.Normalize()
			if err != nil || cfg.SampleSize != d.SampleSize || cfg.Alpha != d.Alpha {
				t.Fatalf("loaded monitor %q (H %d, n %d, alpha %g) fails screen.Config.Normalize: %v", d.ID, d.H, d.SampleSize, d.Alpha, err)
			}
		}
	})
}
