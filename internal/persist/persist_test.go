package persist

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cognicryptgen/internal/faultinject"
)

func testSnapshot() *Snapshot {
	return &Snapshot{
		SavedAtUnixMS: 1723100000000,
		Fingerprint:   "fp-abc123",
		RuleFiles:     map[string]string{"Cipher.crysl": "SPEC gca.Cipher"},
		Entries: []Entry{
			{Name: "uc1.go", Source: "package t1", Verify: true},
			{Name: "uc2.go", Source: "package t2"},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := testSnapshot()
	n, err := st.Save(want)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(st.Path())
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != n {
		t.Fatalf("Save reported %d bytes, file is %d", n, fi.Size())
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != want.Fingerprint || got.SavedAtUnixMS != want.SavedAtUnixMS {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if len(got.Entries) != 2 || got.Entries[0] != want.Entries[0] || got.Entries[1] != want.Entries[1] {
		t.Fatalf("entries mismatch: %+v", got.Entries)
	}
	if got.RuleFiles["Cipher.crysl"] != "SPEC gca.Cipher" {
		t.Fatalf("rule files lost: %+v", got.RuleFiles)
	}
}

// TestParentFormatDecodes: a snapshot written when entries also carried a
// cache key, a package override and the whole response still loads under
// FormatVersion 1, yielding each entry's compile tuple.
func TestParentFormatDecodes(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"saved_at_unix_ms":1,"ruleset_fingerprint":"fp-old","entries":[` +
		`{"key":"k1","name":"uc1.go","source":"package t1","package":"out","verify":true,` +
		`"response":{"name":"uc1.go","output":"package out\n","ruleset_fingerprint":"fp-old","cached":false,"duration_ms":1}},` +
		`{"key":"k2","name":"uc2.go","source":"package t2","response":{"name":"uc2.go","output":"package t2\n"}}]}`)
	raw := make([]byte, headerLen, headerLen+len(payload))
	copy(raw, Magic[:])
	binary.LittleEndian.PutUint32(raw[8:], FormatVersion)
	binary.LittleEndian.PutUint32(raw[12:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(raw[16:], uint64(len(payload)))
	if err := os.WriteFile(st.Path(), append(raw, payload...), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{{Name: "uc1.go", Source: "package t1", Verify: true}, {Name: "uc2.go", Source: "package t2"}}
	if got.Fingerprint != "fp-old" || len(got.Entries) != 2 || got.Entries[0] != want[0] || got.Entries[1] != want[1] {
		t.Fatalf("parent-format snapshot decoded as %+v, want entries %+v", got, want)
	}
}

func TestLoadMissing(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("want ErrNoSnapshot, got %v", err)
	}
}

// TestCorruptionMatrix covers every way a snapshot file can be wrong at the
// format layer; each case must yield a *CorruptError, never a panic.
func TestCorruptionMatrix(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(t *testing.T, path string, raw []byte) []byte
		wantSub string
	}{
		{"empty", func(t *testing.T, _ string, _ []byte) []byte { return nil }, "empty file"},
		{"truncated-header", func(t *testing.T, _ string, raw []byte) []byte { return raw[:10] }, "truncated header"},
		{"truncated-payload", func(t *testing.T, _ string, raw []byte) []byte { return raw[:len(raw)-7] }, "truncated payload"},
		{"bad-magic", func(t *testing.T, _ string, raw []byte) []byte {
			raw[0] ^= 0xff
			return raw
		}, "bad magic"},
		{"future-version", func(t *testing.T, _ string, raw []byte) []byte {
			binary.LittleEndian.PutUint32(raw[8:], FormatVersion+1)
			return raw
		}, "newer than supported"},
		{"bad-crc", func(t *testing.T, _ string, raw []byte) []byte {
			raw[len(raw)-1] ^= 0xff
			return raw
		}, "crc mismatch"},
		{"garbage-payload-with-valid-crc", func(t *testing.T, _ string, raw []byte) []byte {
			// Valid framing around a payload that is not JSON.
			payload := []byte("{not json")
			out := raw[:headerLen]
			binary.LittleEndian.PutUint32(out[12:], crc32.ChecksumIEEE(payload))
			binary.LittleEndian.PutUint64(out[16:], uint64(len(payload)))
			return append(out, payload...)
		}, "undecodable payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Save(testSnapshot()); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(st.Path())
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(st.Path(), tc.mutate(t, st.Path(), raw), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = st.Load()
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("want *CorruptError, got %v", err)
			}
			if !strings.Contains(ce.Reason, tc.wantSub) {
				t.Fatalf("reason %q does not mention %q", ce.Reason, tc.wantSub)
			}
		})
	}
}

// TestSaveLeavesNoTempLitter: a failed save (injected snapshot-write fault)
// keeps the previous snapshot intact and leaves no temp files behind.
func TestSaveFaultKeepsPrevious(t *testing.T) {
	defer faultinject.Reset()
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(testSnapshot()); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.PointSnapshotWrite, faultinject.Fault{Mode: faultinject.ModeError, Times: 1})
	next := testSnapshot()
	next.Fingerprint = "fp-new"
	if _, err := st.Save(next); err == nil {
		t.Fatal("want injected save failure")
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != "fp-abc123" {
		t.Fatalf("previous snapshot not preserved: %+v", got)
	}
	ents, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != SnapshotFile {
			t.Fatalf("unexpected file in store dir: %s", e.Name())
		}
	}
}

func TestLoadFault(t *testing.T) {
	defer faultinject.Reset()
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(testSnapshot()); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.PointSnapshotLoad, faultinject.Fault{Mode: faultinject.ModeError, Times: 1})
	if _, err := st.Load(); err == nil {
		t.Fatal("want injected load failure")
	}
	// Disarmed after Times: 1 — the same file loads clean.
	if _, err := st.Load(); err != nil {
		t.Fatal(err)
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		snap := testSnapshot()
		snap.SavedAtUnixMS = int64(i)
		if _, err := st.Save(snap); err != nil {
			t.Fatal(err)
		}
	}
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.SavedAtUnixMS != 4 {
		t.Fatalf("want last save visible, got %d", got.SavedAtUnixMS)
	}
	if _, err := os.Stat(filepath.Join(st.Dir(), SnapshotFile)); err != nil {
		t.Fatal(err)
	}
}
