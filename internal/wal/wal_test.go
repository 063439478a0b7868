package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func writeRecords(t *testing.T, path string, policy SyncPolicy, recs ...string) {
	t.Helper()
	w, err := Create(path, policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

func TestScanRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	writeRecords(t, path, SyncAlways, "alpha", "beta", "", "gamma with a longer payload")
	res, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "beta", "", "gamma with a longer payload"}
	if len(res.Records) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(res.Records), len(want))
	}
	for i, r := range res.Records {
		if string(r) != want[i] {
			t.Errorf("record %d = %q, want %q", i, r, want[i])
		}
	}
	if res.TruncatedBytes != 0 {
		t.Errorf("TruncatedBytes = %d on a clean journal", res.TruncatedBytes)
	}
	if res.ValidSize != fileSize(t, path) {
		t.Errorf("ValidSize = %d, file is %d", res.ValidSize, fileSize(t, path))
	}
}

// cutKind names what cutting a journal to cut bytes tears; ends[k] is
// the length of the journal holding its first k frames.
func cutKind(cut int, ends []int) string {
	switch {
	case cut == 0:
		return "empty_file"
	case cut < headerSize:
		return "killed_mid-header"
	case cut == headerSize:
		return "header_only"
	}
	k := len(ends) - 1
	for ends[k] > cut {
		k--
	}
	switch {
	case cut == ends[k]:
		return "whole_frames"
	case cut < ends[k]+frameHead:
		return "torn_frame_header"
	}
	return "torn_payload"
}

// TestScanDamagedTails cuts a 3-record journal at every length from 0
// to its size — whatever a kill during any of its writes can leave —
// and then damages the whole journal in the ways a cut cannot. Every
// cut scans as exactly the whole frames below it, with valid and
// truncated bytes adding up to the cut, and every damaged journal
// reopens at its valid size and appends a record the next Scan returns.
func TestScanDamagedTails(t *testing.T) {
	recs := []string{"record-0", "record-1", "record-2"}
	src := filepath.Join(t.TempDir(), "journal.wal")
	writeRecords(t, src, SyncOff, recs...)
	whole, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	ends := []int{headerSize}
	for _, r := range recs {
		ends = append(ends, ends[len(ends)-1]+frameHead+len(r))
	}
	cuts := make(map[string][]int)
	for cut := 0; cut <= len(whole); cut++ {
		kind := cutKind(cut, ends)
		cuts[kind] = append(cuts[kind], cut)
	}
	for _, kind := range []string{"empty_file", "killed_mid-header", "header_only", "whole_frames", "torn_frame_header", "torn_payload"} {
		t.Run(kind, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.wal")
			for _, cut := range cuts[kind] {
				if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				res, err := Scan(path)
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				kept := 0
				for kept < len(recs) && ends[kept+1] <= cut {
					kept++
				}
				if res.ValidSize+res.TruncatedBytes != int64(cut) {
					t.Fatalf("cut %d: valid %d + truncated %d", cut, res.ValidSize, res.TruncatedBytes)
				}
				if cut >= headerSize && res.ValidSize != int64(ends[kept]) {
					t.Fatalf("cut %d: ValidSize %d, want %d", cut, res.ValidSize, ends[kept])
				}
				checkScanAndReopen(t, path, res, recs[:kept])
			}
		})
	}

	for _, tc := range []struct {
		name string
		// damage mutates a 3-record journal file in place.
		damage      func(t *testing.T, path string)
		wantRecords int
	}{
		{"missing file", func(t *testing.T, path string) { os.Remove(path) }, 0},
		{"corrupt final crc", flipLastByte, 2},
		// A plausible-length frame header with a wrong checksum.
		{"garbage appended after valid frames", appendBytes(2, 0, 0, 0, 9, 9, 9, 9, 'x', 'y'), 3},
		{"implausible length field", appendBytes(0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.wal")
			writeRecords(t, path, SyncOff, recs...)
			tc.damage(t, path)
			res, err := Scan(path)
			if err != nil {
				t.Fatal(err)
			}
			checkScanAndReopen(t, path, res, recs[:tc.wantRecords])
		})
	}

	t.Run("not a journal", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "journal.wal")
		if err := os.WriteFile(path, []byte("definitely not a journal"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Scan(path); !errors.Is(err, ErrNotJournal) {
			t.Fatalf("Scan = %v, want %v", err, ErrNotJournal)
		}
	})
}

// checkScanAndReopen asserts a scan returned exactly want, then reopens
// the journal at the scan's valid size, appends, and rescans: recovery
// must be able to append after any damage.
func checkScanAndReopen(t *testing.T, path string, res *ScanResult, want []string) {
	t.Helper()
	if len(res.Records) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(res.Records), len(want))
	}
	for i, r := range res.Records {
		if string(r) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, r, want[i])
		}
	}
	w, err := OpenAppend(path, res.ValidSize, SyncAlways, nil)
	if err != nil {
		t.Fatalf("OpenAppend after damage: %v", err)
	}
	next := fmt.Sprintf("record-%d", len(want))
	if err := w.Append([]byte(next)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res2, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Records) != len(want)+1 || string(res2.Records[len(want)]) != next || res2.TruncatedBytes != 0 {
		t.Fatalf("after reopen and append: %d records (want %d ending %q), %d truncated bytes",
			len(res2.Records), len(want)+1, next, res2.TruncatedBytes)
	}
}

// appendBytes returns a damage that appends b to the journal.
func appendBytes(b ...byte) func(t *testing.T, path string) {
	return func(t *testing.T, path string) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(b); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
}

func truncateTo(t *testing.T, path string, n int64) {
	t.Helper()
	if err := os.Truncate(path, n); err != nil {
		t.Fatal(err)
	}
}

func flipLastByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// tearFS is the OS with one journal write torn: the write after the
// header keeps only the first half of its frame and reports ENOSPC, as
// a disk that filled mid-append would.
type tearFS struct {
	osFS
	writes int
}

type tearFile struct {
	File
	fs *tearFS
}

func (t *tearFS) OpenFile(name string, flag int) (File, error) {
	f, err := t.osFS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return &tearFile{File: f, fs: t}, nil
}

func (f *tearFile) Write(p []byte) (int, error) {
	if f.fs.writes++; f.fs.writes == 3 { // header, first record, then tear
		n, _ := f.File.Write(p[:len(p)/2])
		return n, syscall.ENOSPC
	}
	return f.File.Write(p)
}

// TestFailPointTornWrite tears an append partway through its frame and
// checks the caller gets the write error, the torn frame is invisible
// to Scan, and every earlier record survives.
func TestFailPointTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	w, err := Create(path, SyncOff, &tearFS{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("survives")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("torn-in-half")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Append of a torn frame = %v, want ENOSPC", err)
	}
	w.Abort()

	res, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || string(res.Records[0]) != "survives" {
		t.Fatalf("scan after torn write = %q", res.Records)
	}
	if res.TruncatedBytes == 0 {
		t.Error("torn frame left no truncated tail")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.ckpt")
	if _, err := ReadCheckpoint(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing checkpoint read = %v, want ErrNotExist", err)
	}
	payload := []byte(`{"seq": 42}`)
	if err := WriteCheckpoint(path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Errorf("checkpoint = %q, want %q", got, payload)
	}

	// Overwrite is atomic: the new payload fully replaces the old.
	next := []byte(`{"seq": 43, "more": true}`)
	if err := WriteCheckpoint(path, next); err != nil {
		t.Fatal(err)
	}
	got, err = ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(next) {
		t.Errorf("checkpoint after overwrite = %q, want %q", got, next)
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name   string
		mutate func(t *testing.T, path string)
	}{
		{"flipped payload byte", flipLastByte},
		{"truncated", func(t *testing.T, path string) { truncateTo(t, path, fileSize(t, path)-4) }},
		{"short file", func(t *testing.T, path string) { truncateTo(t, path, 5) }},
		{"bad magic", func(t *testing.T, path string) {
			if err := os.WriteFile(path, make([]byte, 64), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for i, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("ckpt-%d", i))
			if err := WriteCheckpoint(path, []byte("engine state here")); err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, path)
			if _, err := ReadCheckpoint(path); !errors.Is(err, ErrCorrupt) {
				t.Errorf("ReadCheckpoint = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestSyncPolicyParsing(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncGroup, SyncOff} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
}

// TestOpenAppendOnFreshPath covers recovery pointed at a directory that
// has a journal path but no journal yet (validSize 0 from a fresh scan).
func TestOpenAppendOnFreshPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	w, err := OpenAppend(path, 0, SyncAlways, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || string(res.Records[0]) != "first" {
		t.Fatalf("records = %q", res.Records)
	}
}

// FuzzScan appends arbitrary bytes to a journal holding two good
// records — a torn frame, a lying length, a bad checksum, more valid
// frames — and to an empty file. Scan must not panic or misreport: the
// good records survive in order, every byte is either in the valid
// prefix or counted as truncated, and a writer reopened at ValidSize
// appends a record the next Scan returns after exactly what this one
// returned.
func FuzzScan(f *testing.F) {
	frame := func(payload string) []byte {
		b := make([]byte, frameHead, frameHead+len(payload))
		binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE([]byte(payload)))
		return append(b, payload...)
	}
	f.Add([]byte{}, true)
	f.Add(frame("third"), true)
	f.Add(frame("third")[:5], true)
	f.Add(append(frame("third"), 0xff), true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, true)
	f.Add([]byte{4, 0, 0, 0, 1, 2, 3, 4, 'd', 'a', 't', 'a'}, true)
	f.Add(magic[:], false)
	f.Add(magic[:3], false)
	f.Add(append(append([]byte{}, magic[:]...), frame("only")...), false)
	f.Add([]byte("definitely not a journal"), false)

	f.Fuzz(func(t *testing.T, tail []byte, afterGood bool) {
		path := filepath.Join(t.TempDir(), "journal.wal")
		var good []string
		if afterGood {
			good = []string{"first", "second"}
			writeRecords(t, path, SyncOff, good...)
		}
		file, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := file.Write(tail); err != nil {
			t.Fatal(err)
		}
		file.Close()

		res, err := Scan(path)
		if err != nil {
			if afterGood || !errors.Is(err, ErrNotJournal) {
				t.Fatalf("Scan: %v", err)
			}
			return // a foreign file is refused, not scanned
		}
		if len(res.Records) < len(good) {
			t.Fatalf("Scan kept %d records, lost some of the %d good ones", len(res.Records), len(good))
		}
		for i, want := range good {
			if string(res.Records[i]) != want {
				t.Fatalf("record %d = %q, want %q", i, res.Records[i], want)
			}
		}
		if size := fileSize(t, path); res.ValidSize+res.TruncatedBytes != size {
			t.Fatalf("valid %d + truncated %d != file size %d", res.ValidSize, res.TruncatedBytes, size)
		}
		w, err := OpenAppend(path, res.ValidSize, SyncOff, nil)
		if err != nil {
			t.Fatalf("OpenAppend at %d: %v", res.ValidSize, err)
		}
		if err := w.Append([]byte("after")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Scan(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Records) != len(res.Records)+1 || again.TruncatedBytes != 0 ||
			string(again.Records[len(res.Records)]) != "after" {
			t.Fatalf("after reopening at the valid size: %d records (was %d), %d truncated bytes",
				len(again.Records), len(res.Records), again.TruncatedBytes)
		}
	})
}
