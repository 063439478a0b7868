// Package wal implements the write-ahead journal the scheduler service
// persists accepted mutations to, plus the CRC-protected checkpoint
// files that bound replay length.
//
// The journal is a single append-only file: an 8-byte magic header
// followed by frames of the form
//
//	[length uint32 LE][crc32(IEEE) of payload uint32 LE][payload]
//
// Appends happen with one write(2) per frame, so after a process kill
// (SIGKILL, panic, OOM) the file holds a prefix of whole frames plus at
// most one torn frame. Scan tolerates exactly that failure mode: it
// reads frames until the first torn or corrupt one, reports the valid
// prefix length, and the recovering writer truncates the tail before
// appending again. Losing page cache to a machine crash additionally
// requires fsync; the Writer's SyncPolicy chooses how eagerly to pay
// for that.
//
// Every byte the package writes goes through an FS (nil means the
// operating system), so a test can record each write, sync, rename and
// directory sync and rebuild what any crash instant would leave behind.
//
// The package knows nothing about record semantics — payloads are
// opaque bytes. internal/service defines the submit/cancel/round record
// encoding on top.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// magic identifies a journal file (version suffix 1).
var magic = [8]byte{'H', 'D', 'R', 'W', 'A', 'L', '0', '1'}

// ckptMagic identifies a checkpoint file.
var ckptMagic = [8]byte{'H', 'D', 'R', 'C', 'K', 'P', '0', '1'}

const (
	headerSize = 8
	frameHead  = 8 // u32 length + u32 crc
	// MaxRecord bounds a single record payload; a length field beyond it
	// is treated as a torn frame rather than an allocation request.
	MaxRecord = 16 << 20
)

// ErrNotJournal reports a file that exists, is long enough to carry a
// header, and does not start with the journal magic — almost certainly
// an operator error (wrong path), never a torn write.
var ErrNotJournal = errors.New("wal: file is not a journal (bad magic)")

// ErrCorrupt reports a checkpoint file that failed its integrity check.
var ErrCorrupt = errors.New("wal: corrupt checkpoint")

// SyncPolicy selects when appended frames are fsynced to stable
// storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every Append returns: an acknowledged
	// record survives machine crashes, at one fsync per record.
	SyncAlways SyncPolicy = iota
	// SyncGroup leaves fsync to the caller's group-commit loop (Sync is
	// called for a batch of records at once); acknowledgements are
	// expected to wait for the batch sync.
	SyncGroup
	// SyncOff never fsyncs: records reach the file with write(2) and
	// survive process kills, but a machine crash can lose the page
	// cache tail.
	SyncOff
)

// String names the policy (flag value form).
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncGroup:
		return "group"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParsePolicy converts a flag value to a SyncPolicy.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "group":
		return SyncGroup, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, group, or off)", s)
}

// FS is where the journal and checkpoints are written: file creation,
// writes, syncs, truncation, renames, removal and directory syncs. A
// nil FS is the operating system. Reads (Scan, ReadCheckpoint) always
// use the operating system: recovery reads what a crash left on disk.
type FS interface {
	// OpenFile opens name for writing; flag takes os.OpenFile's bits
	// (O_CREATE, O_TRUNC, O_APPEND, O_WRONLY), the mode is 0644.
	OpenFile(name string, flag int) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir makes dir's entries — files created, renamed or removed
	// in it — durable.
	SyncDir(dir string) error
}

// File is a file opened through an FS. Every Write lands at the end of
// the file: the package only ever writes a fresh file front to back or
// appends to one.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// osFS is the FS a nil FS means.
type osFS struct{}

func orOS(fsys FS) FS {
	if fsys == nil {
		return osFS{}
	}
	return fsys
}

func (osFS) OpenFile(name string, flag int) (File, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err // not a nil *os.File inside a non-nil File
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ScanResult describes the valid contents of a journal file.
type ScanResult struct {
	// Records holds every intact payload in append order.
	Records [][]byte
	// ValidSize is the byte length of the valid prefix (header plus
	// whole frames); a recovering writer truncates the file here.
	ValidSize int64
	// TruncatedBytes counts bytes past the valid prefix — a torn or
	// corrupt tail frame. Zero on a cleanly closed journal.
	TruncatedBytes int64
	// Existed reports whether the file was present at all.
	Existed bool
}

// Scan reads a journal, tolerating a torn or corrupt final frame: it
// returns every record in the valid prefix and where that prefix ends.
// A missing file or one killed before the header finished scans as an
// empty journal. A present file with a wrong magic fails with
// ErrNotJournal — that is a misconfiguration, not a crash artifact.
func Scan(path string) (*ScanResult, error) {
	res := &ScanResult{}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return res, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	res.Existed = true

	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	size := info.Size()
	if size < headerSize {
		// Killed between create and header write: everything is tail.
		res.TruncatedBytes = size
		return res, nil
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if hdr != magic {
		return nil, fmt.Errorf("%w: %s", ErrNotJournal, path)
	}
	res.ValidSize = headerSize

	var fh [frameHead]byte
	for {
		remaining := size - res.ValidSize
		if remaining == 0 {
			return res, nil
		}
		if remaining < frameHead {
			break // torn frame header
		}
		if _, err := io.ReadFull(f, fh[:]); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		length := int64(binary.LittleEndian.Uint32(fh[0:4]))
		sum := binary.LittleEndian.Uint32(fh[4:8])
		if length > MaxRecord || length > remaining-frameHead {
			break // implausible or past EOF: torn length/payload
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt tail frame
		}
		res.Records = append(res.Records, payload)
		res.ValidSize += frameHead + length
	}
	res.TruncatedBytes = size - res.ValidSize
	return res, nil
}

// Writer appends CRC-framed records to a journal file. It is not safe
// for concurrent use; the scheduler service confines it to the engine
// goroutine.
type Writer struct {
	f        File
	off      int64
	unsynced bool
	policy   SyncPolicy
	buf      []byte
}

// Create makes a fresh journal at path (truncating anything there),
// writes the header, and syncs it along with the containing directory
// so the file itself survives a crash. fsys nil writes to the OS.
func Create(path string, policy SyncPolicy, fsys FS) (*Writer, error) {
	fsys = orOS(fsys)
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(magic[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: sync dir: %w", err)
	}
	return &Writer{f: f, off: headerSize, policy: policy}, nil
}

// OpenAppend reopens an existing journal for appending after recovery:
// it truncates the file to validSize (dropping any torn tail Scan
// found) and positions the writer at the end. validSize comes from
// Scan; passing 0 for a file that never got its header rebuilds it.
func OpenAppend(path string, validSize int64, policy SyncPolicy, fsys FS) (*Writer, error) {
	if validSize < headerSize {
		return Create(path, policy, fsys)
	}
	f, err := orOS(fsys).OpenFile(path, os.O_WRONLY|os.O_APPEND)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := f.Truncate(validSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &Writer{f: f, off: validSize, policy: policy}, nil
}

// Append frames the payload and writes it with a single write call.
// Under SyncAlways it also fsyncs before returning, so a nil result
// means the record is on stable storage.
func (w *Writer) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	w.buf = w.buf[:0]
	var fh [frameHead]byte
	binary.LittleEndian.PutUint32(fh[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(fh[4:8], crc32.ChecksumIEEE(payload))
	w.buf = append(w.buf, fh[:]...)
	w.buf = append(w.buf, payload...)
	n, err := w.f.Write(w.buf)
	w.off += int64(n)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.unsynced = true
	if w.policy == SyncAlways {
		return w.Sync()
	}
	return nil
}

// Sync flushes appended frames to stable storage. A no-op when nothing
// is pending or the policy is SyncOff.
func (w *Writer) Sync() error {
	if !w.unsynced || w.policy == SyncOff {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.unsynced = false
	return nil
}

// Policy reports the writer's sync policy.
func (w *Writer) Policy() SyncPolicy { return w.policy }

// Close syncs (regardless of policy, so a graceful shutdown is always
// durable) and closes the file.
func (w *Writer) Close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	return w.f.Close()
}

// Abort closes the file descriptor without syncing — the crash-path
// counterpart of Close, used when simulating a kill in-process.
func (w *Writer) Abort() {
	w.f.Close()
}

// WriteCheckpoint atomically replaces the checkpoint at path: the
// CRC-framed payload is written to a temporary file, synced, and
// renamed over the target, then the directory is synced. A crash at
// any point leaves either the old checkpoint or the new one, never a
// torn mixture.
func WriteCheckpoint(path string, payload []byte) error {
	return WriteCheckpointFS(nil, path, [][]byte{payload})
}

// ckptBuffer is how many bytes WriteCheckpointFS gathers per write: a
// small checkpoint is one write, a large one a few per buffer length.
const ckptBuffer = 64 << 10

// WriteCheckpointFS is WriteCheckpoint through fsys (nil: the OS) of
// the payload that is the concatenation of parts. The parts are
// streamed after a header whose CRC one pass over them computes, so the
// payload is never gathered into one buffer.
func WriteCheckpointFS(fsys FS, path string, parts [][]byte) error {
	fsys = orOS(fsys)
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var size int
	var sum uint32
	for _, p := range parts {
		size += len(p)
		sum = crc32.Update(sum, crc32.IEEETable, p)
	}
	var fh [headerSize + frameHead]byte
	copy(fh[:headerSize], ckptMagic[:])
	binary.LittleEndian.PutUint32(fh[headerSize:headerSize+4], uint32(size))
	binary.LittleEndian.PutUint32(fh[headerSize+4:], sum)
	// A bufio.Writer's first error sticks, and Flush returns it.
	w := bufio.NewWriterSize(f, ckptBuffer)
	w.Write(fh[:])
	for _, p := range parts {
		w.Write(p)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// ReadCheckpoint loads and verifies a checkpoint written by
// WriteCheckpoint. A missing file returns os.ErrNotExist; any framing
// or CRC failure returns an error wrapping ErrCorrupt, which recovery
// treats as "no usable checkpoint" and falls back to full replay.
func ReadCheckpoint(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < headerSize+frameHead {
		return nil, fmt.Errorf("%w: %s: short file (%d bytes)", ErrCorrupt, path, len(data))
	}
	var m [headerSize]byte
	copy(m[:], data[:headerSize])
	if m != ckptMagic {
		return nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, path)
	}
	length := int(binary.LittleEndian.Uint32(data[headerSize : headerSize+4]))
	sum := binary.LittleEndian.Uint32(data[headerSize+4 : headerSize+frameHead])
	payload := data[headerSize+frameHead:]
	if length != len(payload) {
		return nil, fmt.Errorf("%w: %s: length %d but %d payload bytes", ErrCorrupt, path, length, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, path)
	}
	return payload, nil
}
