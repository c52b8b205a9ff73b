// Package persist is cryptgend's crash-safe snapshot store: the warm state
// a node would otherwise lose on restart — the compile tuples of its
// resident plans and the active rule-set source — written as one atomic,
// versioned, CRC-checked file. No generated bytes are stored: a restarted
// node re-derives every plan by replaying its tuple through the pipeline,
// so nothing it serves is ever read back from disk.
//
// The write path is the classic durable-rename protocol: marshal to a temp
// file in the destination directory, fsync the file, rename it over the
// live snapshot, fsync the directory. A crash at any instant leaves either
// the previous complete snapshot or the new complete snapshot, never a torn
// one. The read path trusts nothing: magic, format version, payload length,
// and CRC are all checked before the payload is decoded, and every way a
// file can be wrong maps to a typed error so the caller can log WHY it is
// cold-starting. Corruption is an expected input here, not an exception —
// a snapshot exists to make restarts cheaper, and the worst snapshot bug
// would be one that makes restarts impossible.
package persist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"cognicryptgen/internal/faultinject"
)

// SnapshotFile is the live snapshot's file name inside a Store directory.
const SnapshotFile = "snapshot.ccgsnap"

// FormatVersion is the current on-disk format. A snapshot written by a
// newer daemon (version > FormatVersion) is unreadable by this one and
// load fails with a *CorruptError naming the version — a downgraded node
// cold-starts instead of misdecoding a future layout.
const FormatVersion = 1

// Magic opens every snapshot file. Eight bytes so the header stays
// 8-aligned: magic | uint32 version | uint32 crc(payload) | uint64 len |
// payload (JSON).
var Magic = [8]byte{'C', 'C', 'G', 'S', 'N', 'A', 'P', 0}

const headerLen = 8 + 4 + 4 + 8

// Snapshot is the durable payload: everything a restarted node needs to
// serve warm. Entries are ordered LRU→MRU so a restore that replays them
// in order reproduces the plan cache's recency ordering exactly.
type Snapshot struct {
	// SavedAtUnixMS is the wall-clock write time (snapshot_age_seconds).
	SavedAtUnixMS int64 `json:"saved_at_unix_ms"`
	// Fingerprint is the rule-set fingerprint every entry's plan was
	// compiled under. A restore into a registry running a different rule
	// set is a stale snapshot: discarded whole, cold start.
	Fingerprint string `json:"ruleset_fingerprint"`
	// RuleFiles maps rule file names to CrySL source text — the active rule
	// set itself, so a node whose rule source is gone at boot (wiped config
	// dir) can recompile its last-good rules from the snapshot.
	RuleFiles map[string]string `json:"rule_files,omitempty"`
	// Entries are the resident plans' compile tuples, LRU first.
	Entries []Entry `json:"entries"`
}

// Entry is one plan's compile tuple. Plans are recompiled, not serialized:
// their bytes are an in-memory representation, and recompilation is
// deterministic and cheap next to a cold miss. A file written when entries
// also carried a cache key, a package and a response still decodes (JSON
// ignores the extra fields), so the format version did not change.
type Entry struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Verify bool   `json:"verify,omitempty"`
}

// ErrNoSnapshot reports a clean absence: the store directory has no
// snapshot file at all (first boot, or snapshots never completed). Not a
// corruption — callers may log it at a lower severity.
var ErrNoSnapshot = errors.New("persist: no snapshot")

// CorruptError reports a snapshot file that exists but cannot be trusted:
// truncated, wrong magic, future format version, CRC mismatch, or
// undecodable payload. Every CorruptError is a cold start, never a crash.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("persist: corrupt snapshot %s: %s", e.Path, e.Reason)
}

// Store reads and writes snapshots in one directory. The directory is
// created on NewStore; the live snapshot is always SnapshotFile inside it.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a snapshot directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("persist: empty snapshot directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating snapshot dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the live snapshot's path.
func (s *Store) Path() string { return filepath.Join(s.dir, SnapshotFile) }

// Save writes snap atomically and returns the file's total size in bytes.
// The previous snapshot stays intact until the rename, so a failure (or
// an injected snapshot-write fault) at any point loses only this save.
func (s *Store) Save(snap *Snapshot) (int64, error) {
	if ferr := faultinject.Fire(faultinject.PointSnapshotWrite); ferr != nil {
		return 0, ferr
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return 0, fmt.Errorf("persist: encoding snapshot: %w", err)
	}
	buf := make([]byte, headerLen, headerLen+len(payload))
	copy(buf, Magic[:])
	binary.LittleEndian.PutUint32(buf[8:], FormatVersion)
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(buf[16:], uint64(len(payload)))
	buf = append(buf, payload...)

	tmp, err := os.CreateTemp(s.dir, SnapshotFile+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("persist: creating temp snapshot: %w", err)
	}
	tmpName := tmp.Name()
	// Any failure below must not leave temp litter accumulating.
	cleanup := func(err error) (int64, error) {
		tmp.Close()
		os.Remove(tmpName)
		return 0, err
	}
	if _, err := tmp.Write(buf); err != nil {
		return cleanup(fmt.Errorf("persist: writing snapshot: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("persist: syncing snapshot: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return cleanup(fmt.Errorf("persist: closing snapshot: %w", err))
	}
	if err := os.Rename(tmpName, s.Path()); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	syncDir(s.dir)
	return int64(len(buf)), nil
}

// syncDir fsyncs a directory so the rename that published a snapshot is
// itself durable. Best-effort: some filesystems reject directory fsync,
// and an undurable rename only costs the latest snapshot, not correctness.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Load reads and verifies the live snapshot. It returns ErrNoSnapshot when
// none exists, a *CorruptError for anything untrustworthy, and never
// panics on file content — though an armed snapshot-load fault in panic
// mode does propagate, which is exactly the load-time-panic case the
// service's restore guard exists to contain.
func (s *Store) Load() (*Snapshot, error) {
	if ferr := faultinject.Fire(faultinject.PointSnapshotLoad); ferr != nil {
		return nil, ferr
	}
	path := s.Path()
	raw, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, ErrNoSnapshot
		}
		return nil, fmt.Errorf("persist: reading snapshot: %w", err)
	}
	if len(raw) == 0 {
		return nil, &CorruptError{Path: path, Reason: "empty file"}
	}
	if len(raw) < headerLen {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("truncated header: %d bytes", len(raw))}
	}
	if [8]byte(raw[:8]) != Magic {
		return nil, &CorruptError{Path: path, Reason: "bad magic"}
	}
	version := binary.LittleEndian.Uint32(raw[8:])
	if version > FormatVersion {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("format version %d is newer than supported %d", version, FormatVersion)}
	}
	crc := binary.LittleEndian.Uint32(raw[12:])
	plen := binary.LittleEndian.Uint64(raw[16:])
	payload := raw[headerLen:]
	if uint64(len(payload)) != plen {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("truncated payload: have %d bytes, header says %d", len(payload), plen)}
	}
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("crc mismatch: computed %08x, header says %08x", got, crc)}
	}
	var snap Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("undecodable payload: %v", err)}
	}
	return &snap, nil
}
