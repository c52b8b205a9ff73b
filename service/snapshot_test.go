package service

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"cognicryptgen/crysl"
	"cognicryptgen/gen"
	"cognicryptgen/internal/faultinject"
	"cognicryptgen/internal/persist"
	"cognicryptgen/rules"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// TestSnapshotWarmRestart is the durability round-trip: a server generates
// all embedded templates with verification (tuples its boot warm does not
// cover), closes gracefully (writing its final snapshot), and a second
// server booted on the same directory replays the snapshot's tuples in its
// boot warm and then splices every one of them from a restored plan —
// byte-identical to standalone generation.
func TestSnapshotWarmRestart(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Config{Workers: 2, CacheSize: 64, SnapshotDir: dir, SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, uc := range templates.All() {
		if _, err := a.Generate(ctx, wire.GenerateRequest{UseCase: uc.ID, Verify: true}); err != nil {
			t.Fatalf("use case %d: %v", uc.ID, err)
		}
	}
	a.Close()
	if fi, err := os.Stat(filepath.Join(dir, persist.SnapshotFile)); err != nil || fi.Size() == 0 {
		t.Fatalf("final snapshot missing after Close: %v", err)
	}

	b, err := New(Config{Workers: 2, CacheSize: 64, SnapshotDir: dir, SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	m := b.MetricsSnapshot()
	if m.RestoreEntries < int64(len(templates.All())) {
		t.Fatalf("restored %d entries, want >= %d", m.RestoreEntries, len(templates.All()))
	}
	waitWarm(t, b)
	if ms := b.MetricsSnapshot().RestoreMS; ms <= 0 {
		t.Errorf("restore_ms = %v after a warm replaying %d tuples", ms, m.RestoreEntries)
	}

	direct, err := gen.New(rules.MustLoad(), "", gen.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, uc := range templates.All() {
		src, err := templates.Source(uc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.GenerateFile(uc.File, src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Generate(ctx, wire.GenerateRequest{UseCase: uc.ID, Verify: true})
		if err != nil {
			t.Fatalf("use case %d after restore: %v", uc.ID, err)
		}
		if !got.Cached {
			t.Errorf("use case %d not spliced from a restored plan", uc.ID)
		}
		if got.Output != want.Output {
			t.Errorf("use case %d (%s): restored output differs from standalone generation", uc.ID, uc.File)
		}
	}
	if hits := b.MetricsSnapshot().CacheHits; hits < int64(len(templates.All())) {
		t.Errorf("restored node recorded %d cache hits, want >= %d", hits, len(templates.All()))
	}
}

// seedRequest is the request writeSeedSnapshot's server generates. Verify
// keeps its plan out of every boot warm's embedded templates, so only a
// restored snapshot makes it resident.
var seedRequest = wire.GenerateRequest{UseCase: 11, Verify: true}

// writeSeedSnapshot boots a throwaway server on dir, generates one result,
// and closes it so dir holds a small valid snapshot to corrupt.
func writeSeedSnapshot(t *testing.T, dir string) {
	t.Helper()
	s, err := New(Config{Workers: 1, CacheSize: 8, SnapshotDir: dir, SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Generate(context.Background(), seedRequest); err != nil {
		t.Fatal(err)
	}
	s.Close()
}

// TestSnapshotCorruptionColdStart: every way a snapshot file can be wrong
// — truncated, empty, bad magic, mangled version, flipped payload byte,
// or recorded under a different rule-set fingerprint — boots as a clean
// cold start that still generates correctly. A snapshot must never be able
// to take the daemon down.
func TestSnapshotCorruptionColdStart(t *testing.T) {
	seed := t.TempDir()
	writeSeedSnapshot(t, seed)
	raw, err := os.ReadFile(filepath.Join(seed, persist.SnapshotFile))
	if err != nil {
		t.Fatal(err)
	}

	corruptions := []struct {
		name string
		make func(t *testing.T, dir string)
	}{
		{"truncated-header", func(t *testing.T, dir string) {
			writeFile(t, dir, raw[:12])
		}},
		{"empty", func(t *testing.T, dir string) {
			writeFile(t, dir, nil)
		}},
		{"bad-magic", func(t *testing.T, dir string) {
			b := append([]byte(nil), raw...)
			copy(b, "GARBAGE!")
			writeFile(t, dir, b)
		}},
		{"mangled-version", func(t *testing.T, dir string) {
			b := append([]byte(nil), raw...)
			b[8] ^= 0xFF
			writeFile(t, dir, b)
		}},
		{"crc-mismatch", func(t *testing.T, dir string) {
			b := append([]byte(nil), raw...)
			b[len(b)-1] ^= 0x01
			writeFile(t, dir, b)
		}},
		{"truncated-payload", func(t *testing.T, dir string) {
			writeFile(t, dir, raw[:len(raw)-4])
		}},
		{"fingerprint-mismatch", func(t *testing.T, dir string) {
			st, err := persist.NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			uc, _ := templates.ByID(seedRequest.UseCase)
			src, _ := templates.Source(uc)
			if _, err := st.Save(&persist.Snapshot{
				Fingerprint: "not-the-live-fingerprint",
				Entries:     []persist.Entry{{Name: uc.File, Source: src, Verify: true}},
			}); err != nil {
				t.Fatal(err)
			}
		}},
	}

	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			c.make(t, dir)
			s, err := New(Config{Workers: 1, CacheSize: 8, SnapshotDir: dir, SnapshotInterval: time.Hour})
			if err != nil {
				t.Fatalf("corrupt snapshot killed the boot: %v", err)
			}
			defer s.Close()
			if n := s.MetricsSnapshot().RestoreEntries; n != 0 {
				t.Fatalf("restored %d entries from a corrupt snapshot", n)
			}
			waitWarm(t, s)
			resp, err := s.Generate(context.Background(), seedRequest)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Cached || resp.Output == "" {
				t.Fatalf("cold start served wrong state: cached=%v", resp.Cached)
			}
		})
	}
}

func writeFile(t *testing.T, dir string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, persist.SnapshotFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotLoadFaultColdStart: a panic injected at the snapshot-load
// point is contained to a logged cold start.
func TestSnapshotLoadFaultColdStart(t *testing.T) {
	dir := t.TempDir()
	writeSeedSnapshot(t, dir)
	faultinject.Arm(faultinject.PointSnapshotLoad, faultinject.Fault{Mode: faultinject.ModePanic, Times: 1})
	defer faultinject.Disarm(faultinject.PointSnapshotLoad)
	s, err := New(Config{Workers: 1, CacheSize: 8, SnapshotDir: dir, SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatalf("injected load panic killed the boot: %v", err)
	}
	defer s.Close()
	if n := s.MetricsSnapshot().RestoreEntries; n != 0 {
		t.Fatalf("restored %d entries through an injected load panic", n)
	}
}

// TestSnapshotRulesFallbackBoot: when the operator's rule loader fails at
// boot, the rule source captured in the snapshot compiles to the exact
// recorded fingerprint and the node comes up serving — degraded, with the
// boot failure on /readyz — instead of refusing to start.
func TestSnapshotRulesFallbackBoot(t *testing.T) {
	dir := t.TempDir()
	writeSeedSnapshot(t, dir)

	bootErr := errors.New("rules directory lost in the restart")
	s, err := New(Config{
		Workers:          1,
		CacheSize:        8,
		SnapshotDir:      dir,
		SnapshotInterval: time.Hour,
		Loader:           func() (*crysl.RuleSet, error) { return nil, bootErr },
	})
	if err != nil {
		t.Fatalf("boot with failing loader + rule snapshot: %v", err)
	}
	defer s.Close()

	ready := s.ReadyInfo()
	if ready.Status != wire.ReadyDegraded {
		t.Fatalf("readyz status %q, want %q", ready.Status, wire.ReadyDegraded)
	}
	if ready.LastError == "" {
		t.Fatal("degraded readyz missing the boot loader error")
	}
	// The restored rule set is the embedded one (that's what the seed
	// server snapshotted), so the restored plan tuples are live too.
	if fp := s.Registry().Snapshot().Fingerprint; fp != rules.MustLoad().Fingerprint() {
		t.Fatalf("fallback rule set fingerprint %s differs from embedded", fp)
	}
	waitWarm(t, s)
	resp, err := s.Generate(context.Background(), seedRequest)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("restored tuple not served warm on the fallback-booted node")
	}
}

// TestReadyzRestoring: every boot reports "restoring" until its boot warm
// finishes — served with HTTP 200 like degraded, because the node answers
// correctly throughout and must not be ejected by peers or SDK probes —
// then "ok". An armed generate latency fault holds each of the warm's
// pipeline runs, so the restoring window is observable.
func TestReadyzRestoring(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	faultinject.Arm(faultinject.PointGenerate, faultinject.Fault{Mode: faultinject.ModeLatency, Latency: 50 * time.Millisecond})
	srv, ts := chaosServer(t, Config{Workers: 1})

	var ready wire.ReadyResponse
	if resp := getJSON(t, ts.URL+"/readyz", &ready); resp.StatusCode != http.StatusOK {
		t.Fatalf("restoring readyz served %d, want 200", resp.StatusCode)
	}
	if ready.Status != wire.ReadyRestoring {
		t.Fatalf("readyz status %q while the boot warm is held, want %q", ready.Status, wire.ReadyRestoring)
	}
	if got := srv.ReadyInfo().Status; got != wire.ReadyRestoring {
		t.Fatalf("ReadyInfo status %q, want %q", got, wire.ReadyRestoring)
	}
	faultinject.Reset()
	waitWarm(t, srv)
	if got := srv.ReadyInfo().Status; got != wire.ReadyOK {
		t.Fatalf("ReadyInfo status %q after the boot warm, want %q", got, wire.ReadyOK)
	}
	if n := srv.MetricsSnapshot().PlanEntries; n < len(templates.All()) {
		t.Errorf("boot warm left %d plans, want the %d embedded templates'", n, len(templates.All()))
	}
}

// TestSnapshotParentFormatRestores: a snapshot file in the parent format —
// entries carrying a cache key, a package override and a whole response
// next to the tuple — still restores its tuples. The stored response is
// never served: the plan is recompiled, and a request under another name
// and package splices byte-identically to the pipeline.
func TestSnapshotParentFormatRestores(t *testing.T) {
	dir := t.TempDir()
	src := unseenBody(t, 4, "parent-format snapshot")
	entry, err := json.Marshal(map[string]any{
		"key": "parent-key", "name": "old.go", "source": src, "package": "vault", "verify": true,
		"response": map[string]any{"name": "old.go", "output": "stale", "cached": false, "duration_ms": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := fmt.Appendf(nil, `{"saved_at_unix_ms":1,"ruleset_fingerprint":%q,"entries":[%s]}`, rules.MustLoad().Fingerprint(), entry)
	raw := make([]byte, 24, 24+len(payload)) // magic | version | crc | payload length
	copy(raw, persist.Magic[:])
	binary.LittleEndian.PutUint32(raw[8:], persist.FormatVersion)
	binary.LittleEndian.PutUint32(raw[12:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(raw[16:], uint64(len(payload)))
	writeFile(t, dir, append(raw, payload...))

	s, err := New(Config{Workers: 1, SnapshotDir: dir, SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := s.MetricsSnapshot().RestoreEntries; n != 1 {
		t.Fatalf("restored %d tuples from a parent-format snapshot, want 1", n)
	}
	waitWarm(t, s)
	direct, err := gen.New(rules.MustLoad(), "", gen.Options{PackageName: "app", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.GenerateFile("new.go", src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Generate(context.Background(), wire.GenerateRequest{Name: "new.go", Source: src, Package: "app", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cached {
		t.Error("restored tuple not spliced from a recompiled plan")
	}
	if got.Output != want.Output {
		t.Error("output spliced from the restored plan differs from the pipeline")
	}
}

// heapAfterGC is the live heap once two collections have run, the
// second one emptying the sync.Pool victim caches the first one filled.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestPlansKeepNoSourceWithoutSnapshots: a server without a snapshot
// directory keeps no request source in its plans. Each of N distinct
// bodies ends in a large comment that the generated output, and so its
// plan, keeps too; a plan that also held its request's source would hold
// the body twice. The heap may grow by less than 1.5x the body size per
// compiled plan.
func TestPlansKeepNoSourceWithoutSnapshots(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	waitWarm(t, srv)
	uc, err := templates.ByID(3)
	if err != nil {
		t.Fatal(err)
	}
	src, err := templates.Source(uc)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 256<<10)
	body := func(i int) string { return fmt.Sprintf("%s\n// body %d %s\n", src, i, pad) }
	bodySize := len(body(0))
	const n = 8
	ctx := context.Background()
	plansBefore := srv.registry.Plans().Len()
	before := heapAfterGC()
	for i := 0; i < n; i++ {
		resp, err := srv.Generate(ctx, wire.GenerateRequest{Name: fmt.Sprintf("padded_%d.go", i), Source: body(i)})
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if resp.Cached {
			t.Fatalf("body %d was spliced, want a pipeline run compiling its plan", i)
		}
	}
	grown := int64(heapAfterGC()) - int64(before)
	if got := srv.registry.Plans().Len() - plansBefore; got != n {
		t.Fatalf("%d plans compiled, want %d", got, n)
	}
	t.Logf("heap grew %d bytes over %d plans of %d-byte bodies", grown, n, bodySize)
	if limit := int64(n * bodySize * 3 / 2); grown >= limit {
		t.Errorf("heap grew %d bytes over %d plans of %d-byte bodies, want < %d (1.5x body per plan)", grown, n, bodySize, limit)
	}
	runtime.KeepAlive(srv)
}

// TestSnapshotEntryPerResidentPlan: a server with a snapshot directory
// keeps every plan's compile tuple, so its snapshot holds one entry per
// resident plan, source included.
func TestSnapshotEntryPerResidentPlan(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Workers: 1, SnapshotDir: dir, SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	waitWarm(t, srv)
	ctx := context.Background()
	for _, id := range []int{1, 4, 11} {
		// Verify keeps these plans apart from the boot warm's.
		if _, err := srv.Generate(ctx, wire.GenerateRequest{UseCase: id, Verify: true}); err != nil {
			t.Fatalf("use case %d: %v", id, err)
		}
	}
	if err := srv.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	store, err := persist.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	resident := srv.registry.Plans().Len()
	if want := len(templates.All()) + 3; resident != want {
		t.Fatalf("%d resident plans, want %d", resident, want)
	}
	if len(snap.Entries) != resident {
		t.Errorf("snapshot holds %d entries, want one per resident plan (%d)", len(snap.Entries), resident)
	}
	verified := 0
	for _, e := range snap.Entries {
		if e.Name == "" || e.Source == "" {
			t.Errorf("entry %+v lacks its name or source", e.Name)
		}
		if e.Verify {
			verified++
		}
	}
	if verified != 3 {
		t.Errorf("%d verified entries, want 3", verified)
	}
}
