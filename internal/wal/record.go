package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Kind tags a WAL record. The numbering is part of the on-disk format.
type Kind uint8

const (
	// KindEdges is an applied edge-change batch: exactly the changes
	// ApplyDelta consumed, at the epoch and graph version the mutation
	// published.
	KindEdges Kind = 1
	// KindEvents is an event mutation: occurrence additions and
	// removals applied as one epoch bump.
	KindEvents Kind = 2
	// KindCheckpoint stamps a durable snapshot of the graph at the
	// given epoch. Purely informational — compaction coverage is
	// tracked by the server — but it makes the log self-describing for
	// offline inspection.
	KindCheckpoint Kind = 3
	// KindDrop records the graph's deregistration. Replay ignores all
	// earlier records of the name, so a later re-registration under
	// the same name can never absorb the previous generation's
	// mutations (their epochs would otherwise collide).
	KindDrop Kind = 4
)

func (k Kind) String() string {
	switch k {
	case KindEdges:
		return "edges"
	case KindEvents:
		return "events"
	case KindCheckpoint:
		return "checkpoint"
	case KindDrop:
		return "drop"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// EdgeChange mirrors tesc.EdgeChange without importing the public
// package: one applied edge flip.
type EdgeChange struct {
	U, V   int
	Insert bool
}

// Record is one logged mutation. Graph and Epoch are set on every
// kind; the remaining fields depend on Kind.
type Record struct {
	Kind  Kind
	Graph string
	// Epoch is the epoch the mutation published (KindEdges,
	// KindEvents), the epoch made durable (KindCheckpoint), or the
	// last epoch of the dropped generation (KindDrop).
	Epoch uint64

	// GraphVersion is the graph version KindEdges published.
	GraphVersion uint64
	// Changes holds the applied edge flips of a KindEdges record.
	Changes []EdgeChange

	// Add and Remove hold a KindEvents record's occurrence additions
	// and removals (event name → node IDs; an empty removal list means
	// the whole event), exactly the mutation-request semantics.
	Add    map[string][]int
	Remove map[string][]int
}

// mutation reports whether the record carries state a replay must
// re-apply (as opposed to log metadata).
func (r *Record) mutation() bool { return r.Kind == KindEdges || r.Kind == KindEvents }

// encodeRecord serializes a record payload (the framing — length and
// CRC — is the segment writer's job). Layout, all little-endian:
//
//	kind u8 | graph name u16+bytes | epoch u64 | kind-specific body
//
//	edges body:  graph version u64 | count u32 | count × {u u32, v u32, flags u8 (bit0 = insert)}
//	events body: add count u32 | add count × {name u16+bytes, n u32, n × node u32}
//	             | remove count u32 | same shape (n = 0 removes the whole event)
//	checkpoint/drop body: empty
//
// Event names are emitted sorted, so the same logical mutation always
// encodes to the same bytes — the differential tests compare logs
// across runs.
func encodeRecord(r *Record) ([]byte, error) {
	if len(r.Graph) > math.MaxUint16 {
		return nil, fmt.Errorf("wal: graph name of %d bytes exceeds the format's %d-byte limit", len(r.Graph), math.MaxUint16)
	}
	buf := make([]byte, 0, 64)
	buf = append(buf, byte(r.Kind))
	buf = AppendString(buf, r.Graph)
	buf = binary.LittleEndian.AppendUint64(buf, r.Epoch)
	switch r.Kind {
	case KindEdges:
		buf = binary.LittleEndian.AppendUint64(buf, r.GraphVersion)
		if len(r.Changes) > math.MaxUint32 {
			return nil, fmt.Errorf("wal: %d edge changes exceed the format's count field", len(r.Changes))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Changes)))
		for _, c := range r.Changes {
			if c.U < 0 || c.V < 0 || c.U > math.MaxUint32 || c.V > math.MaxUint32 {
				return nil, fmt.Errorf("wal: edge (%d,%d) outside the format's u32 node range", c.U, c.V)
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(c.U))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(c.V))
			var flags byte
			if c.Insert {
				flags |= 1
			}
			buf = append(buf, flags)
		}
	case KindEvents:
		var err error
		if buf, err = appendEventMap(buf, r.Add, "add"); err != nil {
			return nil, err
		}
		if buf, err = appendEventMap(buf, r.Remove, "remove"); err != nil {
			return nil, err
		}
	case KindCheckpoint, KindDrop:
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", r.Kind)
	}
	return buf, nil
}

// AppendString appends s in the durable formats' string encoding: a
// u16 length, then the bytes. Callers check the length fits first.
func AppendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func appendEventMap(buf []byte, m map[string][]int, what string) ([]byte, error) {
	if len(m) > math.MaxUint32 {
		return nil, fmt.Errorf("wal: %d %s events exceed the format's count field", len(m), what)
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m)))
	for _, name := range names {
		if len(name) > math.MaxUint16 {
			return nil, fmt.Errorf("wal: event name of %d bytes exceeds the format's %d-byte limit", len(name), math.MaxUint16)
		}
		nodes := m[name]
		if len(nodes) > math.MaxUint32 {
			return nil, fmt.Errorf("wal: event %q: %d nodes exceed the format's count field", name, len(nodes))
		}
		buf = AppendString(buf, name)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(nodes)))
		for _, v := range nodes {
			if v < 0 || v > math.MaxUint32 {
				return nil, fmt.Errorf("wal: event %q node %d outside the format's u32 range", name, v)
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	return buf, nil
}

// decodeRecord parses one record payload, trusting nothing: every
// count is validated against the bytes actually present before any
// allocation is sized by it, so a hostile payload fails cleanly
// instead of panicking or ballooning memory.
func decodeRecord(b []byte) (Record, error) {
	c := NewReader(b, "wal: record")
	rec := Record{Kind: Kind(c.U8()), Graph: c.Str(), Epoch: c.U64()}
	if rec.Graph == "" {
		c.Failf("wal: record without a graph name")
	}
	switch rec.Kind {
	case KindEdges:
		rec.GraphVersion = c.U64()
		rec.Changes = make([]EdgeChange, c.Count(9))
		for i := range rec.Changes {
			u, v, flags := c.U32(), c.U32(), c.U8()
			if flags&^byte(1) != 0 {
				c.Failf("wal: edges record unknown flag bits %#02x", flags)
			}
			rec.Changes[i] = EdgeChange{U: int(u), V: int(v), Insert: flags&1 != 0}
		}
	case KindEvents:
		rec.Add = decodeEventMap(&c)
		rec.Remove = decodeEventMap(&c)
	case KindCheckpoint, KindDrop:
	default:
		c.Failf("wal: unknown record kind %d", uint8(rec.Kind))
	}
	if c.Remaining() != 0 {
		c.Failf("wal: record has %d trailing bytes", c.Remaining())
	}
	if err := c.Err(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// decodeEventMap reads one KindEvents map: a count, then per entry a
// name (non-empty, strictly ascending) and its node IDs. Failures land
// in c.
func decodeEventMap(c *Reader) map[string][]int {
	// Each entry is at least 6 bytes (empty name, zero nodes).
	count := c.Count(6)
	if count == 0 {
		return nil
	}
	m := make(map[string][]int, count)
	prev := ""
	for i := uint32(0); i < count && c.Err() == nil; i++ {
		name := c.Str()
		switch {
		case name == "":
			c.Failf("wal: events record entry %d has empty name", i)
		case i > 0 && name <= prev:
			c.Failf("wal: events record names not strictly ascending (%q after %q)", name, prev)
		}
		prev = name
		nodes := make([]int, c.Count(4))
		for k := range nodes {
			nodes[k] = int(c.U32())
		}
		m[name] = nodes
	}
	return m
}

// Reader is a bounds-checked little-endian reader over one payload of
// a durable format: a WAL record here, a snapshot section in package
// snapshot. The first failure sticks: every later read returns a zero
// value without moving, so a decoder checks Err once per record or
// section rather than after every field. Zero values never size an
// allocation past the bytes actually present.
type Reader struct {
	b    []byte
	off  int
	what string
	err  error
}

// NewReader reads b; what prefixes truncation errors ("wal: record",
// "snapshot: GRPH").
func NewReader(b []byte, what string) Reader { return Reader{b: b, what: what} }

// Err returns the first failure, or nil.
func (c *Reader) Err() error { return c.err }

// Failf records a validation failure unless an earlier one is already
// recorded, so a truncation wins over any check tripped by the zero
// values it left behind.
func (c *Reader) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// Remaining returns the number of unread bytes.
func (c *Reader) Remaining() int { return len(c.b) - c.off }

// Bytes returns the next n bytes, aliasing the payload, or nil once
// the reader has failed.
func (c *Reader) Bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.Remaining() < n {
		c.err = fmt.Errorf("%s truncated: need %d bytes at offset %d, have %d", c.what, n, c.off, c.Remaining())
		return nil
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out
}

// Count reads a u32 element count and checks that that many elements
// of at least minSize bytes each fit in the bytes left, so a lying
// count fails here, before it can size an allocation. It returns 0 on
// failure.
func (c *Reader) Count(minSize int) uint32 {
	n := c.U32()
	if uint64(n)*uint64(minSize) > uint64(c.Remaining()) {
		c.Failf("%s declares %d elements of at least %d bytes in %d remaining bytes", c.what, n, minSize, c.Remaining())
		return 0
	}
	return n
}

// U8, U16, U32 and U64 read little-endian unsigned integers; each
// returns 0 once the reader has failed.
func (c *Reader) U8() byte {
	if b := c.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *Reader) U16() uint16 {
	if b := c.Bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (c *Reader) U32() uint32 {
	if b := c.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *Reader) U64() uint64 {
	if b := c.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Str reads a string written by AppendString.
func (c *Reader) Str() string { return string(c.Bytes(int(c.U16()))) }

// F64 reads a float64 by its IEEE-754 bits.
func (c *Reader) F64() float64 { return math.Float64frombits(c.U64()) }
