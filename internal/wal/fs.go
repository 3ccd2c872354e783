// Package wal implements tescd's mutation write-ahead log: an
// append-only, CRC-framed record stream that makes every acknowledged
// mutation durable before it is published, closing the window the
// debounced snapshot store leaves open (ROADMAP item 1). The log is
// segmented; a checkpoint folds the covered tail into the .tescsnap
// store and compaction deletes segments whose every record the
// snapshots already contain.
//
// All I/O goes through the FS interface so tests can substitute a
// deterministic faulty filesystem (FaultFS): crash after operation N,
// torn writes, failed fsyncs, short reads. That harness is what makes
// the recovery claim falsifiable — the crash-point sweep in
// internal/server drives every mutation schedule through every
// injectable crash and proves recovery bit-identical to the uncrashed
// run.
package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// File is a writable log or snapshot file. Sync must not return until
// the bytes written so far are durable.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// ReadFile is a sequentially readable file.
type ReadFile interface {
	io.Reader
	Close() error
}

// FS is the filesystem surface the WAL and the snapshot store need.
// The production implementation is OSFS; tests inject FaultFS to
// simulate crashes at any operation boundary.
type FS interface {
	// MkdirAll ensures dir exists.
	MkdirAll(dir string) error
	// Create opens path for writing, truncating any existing file.
	Create(path string) (File, error)
	// Open opens path for reading.
	Open(path string) (ReadFile, error)
	// ReadDir lists the file names (not paths) in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Remove deletes path.
	Remove(path string) error
	// Rename atomically replaces newPath with oldPath's file.
	Rename(oldPath, newPath string) error
	// SyncDir makes dir's namespace operations (create, rename,
	// remove) durable. On POSIX a rename is not crash-safe until the
	// containing directory is fsynced.
	SyncDir(dir string) error
	// IsNotExist reports whether err means the file was absent.
	IsNotExist(err error) bool
}

// OSFS is the production FS: the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OSFS) Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OSFS) Open(path string) (ReadFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OSFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		names = append(names, de.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) Remove(path string) error { return os.Remove(path) }

func (OSFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

// SyncDir fsyncs the directory itself so renames and unlinks survive a
// crash. Filesystems that refuse directory fsync (some network mounts)
// degrade to best-effort.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (OSFS) IsNotExist(err error) bool { return os.IsNotExist(err) }

// tmpSeq numbers temp files within the process. Uniqueness per
// directory is all the rename dance needs, and deterministic names
// keep the fault-injection crash sweeps reproducible (no randomness
// in the operation schedule).
var tmpSeq atomic.Uint64

// WriteFileAtomic replaces path through fsys so that a crash at any
// point leaves either the previous file or the new one there, never a
// torn one: write streams the content into a temp file in the same
// directory, the temp is fsynced and renamed over path, and finally
// the DIRECTORY is fsynced. It returns the bytes written. The temp
// file's ".tmp-N" suffix keeps boot-time scans, which match on
// extension, from ever opening a torn one.
//
// The directory fsync is load-bearing, not ceremony: on POSIX a rename
// is not durable until the containing directory is synced, so without
// it a crash shortly after WriteFileAtomic returned could roll the
// file back to the previous version — fatal once WAL compaction has
// deleted the log records that produced the newer one. FaultFS models
// exactly that rollback, and snapshot's TestSaveFileCrashSweep fails
// without this step.
func WriteFileAtomic(fsys FS, path string, write func(io.Writer) error) (int64, error) {
	tmpPath := fmt.Sprintf("%s.tmp-%d", path, tmpSeq.Add(1))
	tmp, err := fsys.Create(tmpPath)
	if err != nil {
		return 0, err
	}
	cleanup := func() {
		tmp.Close()
		_ = fsys.Remove(tmpPath)
	}
	cw := &countingWriter{w: tmp}
	if err := write(cw); err != nil {
		cleanup()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		_ = fsys.Remove(tmpPath)
		return 0, err
	}
	if err := fsys.Rename(tmpPath, path); err != nil {
		_ = fsys.Remove(tmpPath)
		return 0, err
	}
	return cw.n, fsys.SyncDir(filepath.Dir(path))
}

// countingWriter tallies the bytes streamed through it, sparing the
// caller a stat through the FS abstraction.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
