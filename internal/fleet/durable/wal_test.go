package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeTestWAL creates a WAL with n small records and returns its path and
// the records written.
func writeTestWAL(t testing.TB, dir string, n int) (string, []Record) {
	t.Helper()
	path := filepath.Join(dir, "t.wal")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf(`{"cell":%d,"data":"abcdefgh"}`, i))
		typ := byte(1 + i%4)
		if err := w.Append(typ, payload); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, Record{Type: typ, Payload: payload})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, recs
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type != b[i].Type || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

func TestWALRoundTrip(t *testing.T) {
	path, want := writeTestWAL(t, t.TempDir(), 5)
	w, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(got, want) {
		t.Fatalf("replay mismatch: got %d records, want %d", len(got), len(want))
	}
	// The reopened log must be appendable, and a second replay must see
	// the extension.
	if err := w.Append(0x07, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, got2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(want)+1 || got2[len(want)].Type != 0x07 {
		t.Fatalf("post-append replay: got %d records", len(got2))
	}
}

// TestWALTruncationSweep simulates a crash at every possible byte length:
// every prefix of a valid log must open without error, replay some prefix
// of the records, and remain appendable. This is the torn-tail contract —
// SIGKILL mid-append never makes a log unreadable.
func TestWALTruncationSweep(t *testing.T) {
	dir := t.TempDir()
	path, want := writeTestWAL(t, dir, 4)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(full); cut++ {
		p := filepath.Join(dir, fmt.Sprintf("cut%d.wal", cut))
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, err := Open(p)
		if err != nil {
			t.Fatalf("cut at %d bytes: open: %v", cut, err)
		}
		if !sameRecords(recs, want[:len(recs)]) {
			t.Fatalf("cut at %d bytes: replay is not a prefix of the original", cut)
		}
		// The truncated log must accept appends, and the union must replay.
		if err := w.Append(0x09, []byte("resume")); err != nil {
			t.Fatalf("cut at %d bytes: append: %v", cut, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		_, recs2, err := Open(p)
		if err != nil {
			t.Fatalf("cut at %d bytes: reopen: %v", cut, err)
		}
		if len(recs2) != len(recs)+1 || recs2[len(recs)].Type != 0x09 {
			t.Fatalf("cut at %d bytes: appended record lost (%d vs %d+1)", cut, len(recs2), len(recs))
		}
	}
}

// TestWALCorruptMidFile flips one byte in every record except the last:
// damage with intact data behind it is corruption, not a torn tail, and
// must fail loudly instead of silently dropping acknowledged records.
func TestWALCorruptMidFile(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeTestWAL(t, dir, 4)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte well inside the first record.
	corrupt := append([]byte(nil), full...)
	corrupt[walHeaderLen+8] ^= 0xFF
	p := filepath.Join(dir, "corrupt.wal")
	if err := os.WriteFile(p, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-file corruption: err = %v, want ErrCorrupt", err)
	}
}

// TestWALCorruptFinalRecord flips a byte in the last record: with nothing
// behind it this is indistinguishable from a torn append and must be
// truncated away, keeping the earlier records.
func TestWALCorruptFinalRecord(t *testing.T) {
	dir := t.TempDir()
	path, want := writeTestWAL(t, dir, 4)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)-6] ^= 0xFF // inside the final record's payload
	p := filepath.Join(dir, "torn.wal")
	if err := os.WriteFile(p, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs, err := Open(p)
	if err != nil {
		t.Fatalf("torn final record: %v", err)
	}
	defer w.Close()
	if !sameRecords(recs, want[:3]) {
		t.Fatalf("torn final record: replayed %d records, want the first 3", len(recs))
	}
}

func TestWALEmptyFile(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "empty.wal")
	if err := os.WriteFile(p, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w, recs, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("empty file replayed %d records", len(recs))
	}
	if err := w.Append(0x01, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, recs, err = Open(p); err != nil || len(recs) != 1 {
		t.Fatalf("reinitialized file: recs=%d err=%v", len(recs), err)
	}
}

func TestWALUnknownVersion(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeTestWAL(t, dir, 2)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full[len(walMagicPrefix)] = walVersion + 1
	p := filepath.Join(dir, "future.wal")
	if err := os.WriteFile(p, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(p); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: err = %v, want ErrVersion", err)
	}
}

func TestWALBadMagic(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "foreign.wal")
	if err := os.WriteFile(p, []byte("NOTAWAL0 some bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(p); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign file: err = %v, want ErrCorrupt", err)
	}
}

func TestCreateExclusive(t *testing.T) {
	p := filepath.Join(t.TempDir(), "x.wal")
	w, err := CreateExclusive(p)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := CreateExclusive(p); err == nil {
		t.Fatal("second CreateExclusive on the same path must fail")
	}
}

// TestWALSyncBatching checks the batching arithmetic: with SyncEvery=3,
// appends 1 and 2 stay unsynced, append 3 flushes.
func TestWALSyncBatching(t *testing.T) {
	p := filepath.Join(t.TempDir(), "b.wal")
	w, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SyncEvery = 3
	for i := 0; i < 2; i++ {
		if err := w.Append(0x01, []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if w.unsynced != 2 {
		t.Fatalf("unsynced = %d, want 2", w.unsynced)
	}
	if err := w.Append(0x01, []byte("r")); err != nil {
		t.Fatal(err)
	}
	if w.unsynced != 0 {
		t.Fatalf("after batch fsync: unsynced = %d, want 0", w.unsynced)
	}
}

// FuzzOpenWAL opens arbitrary bytes as a WAL file. Open must never panic,
// and when it accepts the file, replay and torn-tail truncation must be
// idempotent: a second Open returns the same records without error.
func FuzzOpenWAL(f *testing.F) {
	path, _ := writeTestWAL(f, f.TempDir(), 3)
	full, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(full[:len(full)-3])            // torn final record
	f.Add(full[:walHeaderLen+2])         // torn length prefix
	f.Add(full[:walHeaderLen-1])         // torn header
	f.Add([]byte{})                      // empty file
	f.Add([]byte("NOTAWAL0 some bytes")) // foreign header
	corrupt := append([]byte(nil), full...)
	corrupt[walHeaderLen+6] ^= 0xff // mid-file damage
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "f.wal")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs, err := Open(p)
		if err != nil {
			return
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2, recs2, err := Open(p)
		if err != nil {
			t.Fatalf("second Open of an accepted log: %v", err)
		}
		defer w2.Close()
		if !sameRecords(recs, recs2) {
			t.Fatalf("second Open replayed %d records, first %d", len(recs2), len(recs))
		}
	})
}
