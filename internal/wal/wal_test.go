package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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

// TestScanDamagedTails drives Scan through every tail-damage shape a
// killed process can leave behind and checks the valid prefix survives.
func TestScanDamagedTails(t *testing.T) {
	cases := []struct {
		name string
		// damage mutates a 3-record journal file in place.
		damage      func(t *testing.T, path string)
		wantRecords int
		wantErr     error
	}{
		{
			name:        "missing file",
			damage:      func(t *testing.T, path string) { os.Remove(path) },
			wantRecords: 0,
		},
		{
			name: "empty file",
			damage: func(t *testing.T, path string) {
				if err := os.Truncate(path, 0); err != nil {
					t.Fatal(err)
				}
			},
			wantRecords: 0,
		},
		{
			name: "killed mid-header",
			damage: func(t *testing.T, path string) {
				if err := os.Truncate(path, 3); err != nil {
					t.Fatal(err)
				}
			},
			wantRecords: 0,
		},
		{
			name:        "header only",
			damage:      func(t *testing.T, path string) { truncateTo(t, path, headerSize) },
			wantRecords: 0,
		},
		{
			name: "torn frame header",
			damage: func(t *testing.T, path string) {
				truncateTo(t, path, fileSize(t, path)-int64(len("record-2"))-3)
			},
			wantRecords: 2,
		},
		{
			name: "torn payload",
			damage: func(t *testing.T, path string) {
				truncateTo(t, path, fileSize(t, path)-2)
			},
			wantRecords: 2,
		},
		{
			name: "corrupt final crc",
			damage: func(t *testing.T, path string) {
				flipLastByte(t, path)
			},
			wantRecords: 2,
		},
		{
			name: "garbage appended after valid frames",
			damage: func(t *testing.T, path string) {
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				// A plausible-length frame header with a wrong checksum.
				if _, err := f.Write([]byte{2, 0, 0, 0, 9, 9, 9, 9, 'x', 'y'}); err != nil {
					t.Fatal(err)
				}
				f.Close()
			},
			wantRecords: 3,
		},
		{
			name: "implausible length field",
			damage: func(t *testing.T, path string) {
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}); err != nil {
					t.Fatal(err)
				}
				f.Close()
			},
			wantRecords: 3,
		},
		{
			name: "not a journal",
			damage: func(t *testing.T, path string) {
				if err := os.WriteFile(path, []byte("definitely not a journal"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: ErrNotJournal,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.wal")
			writeRecords(t, path, SyncOff, "record-0", "record-1", "record-2")
			tc.damage(t, path)
			res, err := Scan(path)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Scan = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Records) != tc.wantRecords {
				t.Fatalf("scanned %d records, want %d", len(res.Records), tc.wantRecords)
			}
			for i, r := range res.Records {
				if want := fmt.Sprintf("record-%d", i); string(r) != want {
					t.Errorf("record %d = %q, want %q", i, r, want)
				}
			}

			// Recovery must be able to append after the damage: reopen at
			// the valid prefix, append, and rescan.
			w, err := OpenAppend(path, res.ValidSize, SyncAlways, nil)
			if err != nil {
				t.Fatalf("OpenAppend after damage: %v", err)
			}
			next := fmt.Sprintf("record-%d", tc.wantRecords)
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
			if len(res2.Records) != tc.wantRecords+1 {
				t.Fatalf("after append: %d records, want %d", len(res2.Records), tc.wantRecords+1)
			}
			if got := string(res2.Records[tc.wantRecords]); got != next {
				t.Errorf("appended record = %q, want %q", got, next)
			}
			if res2.TruncatedBytes != 0 {
				t.Errorf("TruncatedBytes = %d after recovery append", res2.TruncatedBytes)
			}
		})
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

// TestFailPointTornWrite injects a mid-append crash and checks the torn
// frame is invisible to Scan while every earlier record survives.
func TestFailPointTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	cut := false
	fp := func(offset int64, frame []byte) int {
		if offset > headerSize && !cut { // tear the second record
			cut = true
			return len(frame) / 2
		}
		return -1
	}
	w, err := Create(path, SyncOff, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("survives")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("torn-in-half")); !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("Append under fail point = %v, want ErrCrashInjected", err)
	}
	// A crashed writer refuses further work.
	if err := w.Append([]byte("after")); !errors.Is(err, ErrCrashInjected) {
		t.Fatalf("Append after crash = %v, want ErrCrashInjected", err)
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
