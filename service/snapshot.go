package service

import (
	"fmt"
	"log"
	"time"

	"testing/fstest"

	"cognicryptgen/crysl"
	"cognicryptgen/internal/persist"
)

// Warm-restart snapshots. With Config.SnapshotDir set, the server
// periodically (and on graceful Close) writes a crash-safe snapshot of its
// resident plans' compile tuples (name, source, verify) plus the active
// rule-set source, both keyed by the rule-set fingerprint, through
// internal/persist. At boot the snapshot is loaded and — if its
// fingerprint matches the live rule set — its tuples join the background
// boot warm, which recompiles each plan through the pipeline. Plan bytes
// are never serialized, so no served byte is ever read back from disk.
// Every failure mode on this path — corrupt file, stale fingerprint,
// injected fault, panic — degrades to a logged cold start. A snapshot must
// never be able to take the daemon down.

// loadSnapshot reads the store's snapshot, converting every failure —
// including a panic out of an armed snapshot-load fault — into a logged
// cold start (nil).
func loadSnapshot(store *persist.Store) (snap *persist.Snapshot) {
	defer func() {
		if rec := recover(); rec != nil {
			log.Printf("service: panic loading snapshot (cold start): %v", rec)
			snap = nil
		}
	}()
	loaded, err := store.Load()
	if err != nil {
		if err == persist.ErrNoSnapshot {
			return nil
		}
		log.Printf("service: snapshot unusable (cold start): %v", err)
		return nil
	}
	return loaded
}

// snapshotRuleLoader compiles the rule source files captured in a snapshot
// into a rule set, for booting when the operator's loader fails. The
// compiled set's fingerprint must equal the snapshot's recorded one
// (Fingerprint hashes rule content, not file paths, so this holds wherever
// the files originally lived); a mismatch means the snapshot does not
// actually contain the rules it claims and is rejected.
func snapshotRuleLoader(snap *persist.Snapshot) func() (*crysl.RuleSet, error) {
	if snap == nil || len(snap.RuleFiles) == 0 {
		return nil
	}
	return func() (*crysl.RuleSet, error) {
		fsys := fstest.MapFS{}
		for name, src := range snap.RuleFiles {
			fsys[name] = &fstest.MapFile{Data: []byte(src)}
		}
		set, err := crysl.LoadFS(fsys, ".")
		if err != nil {
			return nil, fmt.Errorf("service: compiling snapshot rule source: %w", err)
		}
		if fp := set.Fingerprint(); fp != snap.Fingerprint {
			return nil, fmt.Errorf("service: snapshot rule source fingerprint %s does not match recorded %s", fp, snap.Fingerprint)
		}
		return set, nil
	}
}

// restorable returns a loaded snapshot's plan tuples for the boot warm
// when its rule-set fingerprint matches the live one, and counts them as
// restore_entries. A mismatch is a stale snapshot: nothing restores.
func (s *Server) restorable(restored *persist.Snapshot) []persist.Entry {
	if restored == nil {
		return nil
	}
	if live := s.registry.Snapshot().Fingerprint; restored.Fingerprint != live {
		log.Printf("service: snapshot rule-set fingerprint %s does not match live %s (cold start)", restored.Fingerprint, live)
		return nil
	}
	s.restoreEntries.Store(int64(len(restored.Entries)))
	if len(restored.Entries) > 0 {
		log.Printf("service: restoring %d plan tuple(s) from snapshot", len(restored.Entries))
	}
	return restored.Entries
}

// ruleSources resolves the rule-source capture for snapshots: the
// configured hook, or the embedded rule sources when the server runs the
// default loader. A custom Loader without a RuleSources hook snapshots no
// rule files (the plan tuples still restore).
func (s *Server) ruleSources() map[string]string {
	fn := s.cfg.RuleSources
	if fn == nil {
		return nil
	}
	files, err := fn()
	if err != nil {
		log.Printf("service: snapshot rule sources: %v", err)
		return nil
	}
	return files
}

// writeSnapshot captures and durably writes one snapshot. Any failure —
// injected fault, full disk, panic — is contained here: the previous
// snapshot file survives (persist renames atomically) and the daemon keeps
// serving.
func (s *Server) writeSnapshot() (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("service: panic writing snapshot: %v", rec)
			log.Print(err)
		}
	}()
	snap := s.registry.Snapshot()
	seeds := snap.Plans.Seeds(snap.Fingerprint)
	ps := &persist.Snapshot{
		SavedAtUnixMS: time.Now().UnixMilli(),
		Fingerprint:   snap.Fingerprint,
		RuleFiles:     s.ruleSources(),
		Entries:       make([]persist.Entry, len(seeds)),
	}
	for i, sd := range seeds {
		ps.Entries[i] = persist.Entry(sd)
	}
	n, err := s.store.Save(ps)
	if err != nil {
		log.Printf("service: snapshot write failed (previous snapshot intact): %v", err)
		return err
	}
	s.snapshotBytes.Store(n)
	s.snapshotAt.Store(time.Now().UnixNano())
	return nil
}

// SnapshotNow writes a snapshot immediately (no-op without SnapshotDir).
// Used by cmd/cryptgend's forced-exit path for a best-effort final capture
// and by drills that need a deterministic snapshot boundary.
func (s *Server) SnapshotNow() error {
	if s.store == nil {
		return nil
	}
	return s.writeSnapshot()
}

// snapLoop is the periodic snapshot writer, started by New when
// SnapshotDir is set and stopped by Close/Abort.
func (s *Server) snapLoop(interval time.Duration) {
	defer close(s.snapDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-t.C:
			s.writeSnapshot()
		}
	}
}
