package srccheck

import (
	"fmt"
	"go/build"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentImport is the Importer's concurrency contract: 16
// goroutines hammering one Importer with overlapping paths must race-free
// deduplicate onto a single build per path and all receive the same
// *types.Package. Run under -race (scripts/verify.sh does).
func TestConcurrentImport(t *testing.T) {
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	imp := NewImporter(root)
	paths := []string{
		ModulePath + "/gca",
		ModulePath + "/crysl/ast",
		"crypto/sha256",
		"crypto/aes",
		"fmt",
		"strings",
		"errors",
		"io",
	}
	const goroutines = 16
	got := make([]map[string]*types.Package, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = map[string]*types.Package{}
			// Each goroutine walks the paths from a different offset so the
			// first builds are triggered by different goroutines.
			for i := range paths {
				p := paths[(g+i)%len(paths)]
				pkg, err := imp.Import(p)
				if err != nil {
					errs[g] = fmt.Errorf("goroutine %d: %s: %w", g, p, err)
					return
				}
				got[g][p] = pkg
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range paths {
		first := got[0][p]
		if first == nil {
			t.Fatalf("%s: no package", p)
		}
		for g := 1; g < goroutines; g++ {
			if got[g][p] != first {
				t.Errorf("%s: goroutine %d got a different *types.Package than goroutine 0", p, g)
			}
		}
	}
}

// TestSharedUniverseAcrossInstances: separate Importers and Checkers of
// the same module root share one universe, so the packages they hand out
// are pointer-identical — the property that makes the N-workers cold path
// cost one import, not N.
func TestSharedUniverseAcrossInstances(t *testing.T) {
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	a := NewImporter(root)
	b := NewImporter(root)
	pa, err := a.Import(ModulePath + "/gca")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Import(ModulePath + "/gca")
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Error("two Importers of one root returned different gca packages")
	}
	c1, err := NewChecker("")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewChecker("")
	if err != nil {
		t.Fatal(err)
	}
	if c1.Fset != c2.Fset {
		t.Error("checkers of one root have different FileSets")
	}
	pc, err := c2.ImportPackage(ModulePath + "/gca")
	if err != nil {
		t.Fatal(err)
	}
	if pc != pa {
		t.Error("Checker and Importer returned different gca packages")
	}
	_ = c1
}

// TestConcurrentCheckSource: Checkers are safe for concurrent use — the
// shared FileSet is internally synchronized and imports go through the
// concurrency-safe universe.
func TestConcurrentCheckSource(t *testing.T) {
	c, err := NewChecker("")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := fmt.Sprintf(`package p%d

import "cognicryptgen/gca"

func f() error {
	r, err := gca.NewSecureRandom()
	if err != nil {
		return err
	}
	return r.NextBytes(make([]byte, %d))
}
`, g, g+1)
			if _, _, _, err := c.CheckSource(fmt.Sprintf("c%d.go", g), src); err != nil {
				errs[g] = err
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestImportCycleDetected: a module-local import cycle is reported as an
// error (per-chain detection), not a deadlock or a stack overflow.
func TestImportCycleDetected(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"cyca/a.go": "package cyca\n\nimport \"" + ModulePath + "/cycb\"\n\nvar A = cycb.B\n",
		"cycb/b.go": "package cycb\n\nimport \"" + ModulePath + "/cyca\"\n\nvar B = cyca.A\n",
	})
	u := SharedUniverse(dir)
	_, err := u.Import(ModulePath + "/cyca")
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want import-cycle error, got %v", err)
	}
}

// writeModule writes files (slash-separated path → content) into a fresh
// temporary module named ModulePath and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module " + ModulePath + "\n\ngo 1.24\n"
	for rel, content := range files {
		p := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestModuleLocalBuildConstraints: a module-local package is the files
// go build would compile. A //go:build ignore file and a _windows.go file
// (on any other GOOS) each redeclare the package's symbol, so
// type-checking them along with the rest fails.
func TestModuleLocalBuildConstraints(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"tagged/a.go":         "package tagged\n\nconst Name = \"a\"\n",
		"tagged/gen.go":       "//go:build ignore\n\npackage tagged\n\nconst Name = \"ignored\"\n",
		"tagged/a_windows.go": "package tagged\n\nconst Name = \"windows\"\n",
	})
	ctxt := build.Default
	if ctxt.GOOS == "windows" {
		ctxt.GOOS = "linux"
	}
	pkg, err := newUniverse(dir, ctxt).Import(ModulePath + "/tagged")
	if err != nil {
		t.Fatal(err)
	}
	if got := pkg.Scope().Lookup("Name").(*types.Const).Val().String(); got != `"a"` {
		t.Errorf("Name = %s, want \"a\"", got)
	}
}

// TestResolveMatchesGoBuild: locating a package and scanning its
// directory once gives the resolution a full go/build import gives from
// every importing directory. After a gca warm, each (srcDir, path) the
// universe located names the same canonical path and directory as
// build.Default.Import(path, srcDir, 0), and the files the universe parsed
// from that directory are exactly its GoFiles and CgoFiles.
func TestResolveMatchesGoBuild(t *testing.T) {
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	u := newUniverse(root, build.Default)
	if _, err := u.Import(ModulePath + "/gca"); err != nil {
		t.Fatal(err)
	}
	parsed := map[string][]string{} // directory → parsed file names
	u.fset.Iterate(func(f *token.File) bool {
		dir, name := filepath.Split(f.Name())
		dir = filepath.Clean(dir)
		parsed[dir] = append(parsed[dir], name)
		return true
	})
	n := 0
	u.located.Range(func(k, v any) bool {
		key, loc := k.(locateKey), v.(location)
		n++
		want, err := build.Default.Import(key.path, key.srcDir, 0)
		if err != nil || loc.err != nil {
			t.Errorf("%s from %s: go/build error %v, universe error %v", key.path, key.srcDir, err, loc.err)
			return true
		}
		if loc.importPath != want.ImportPath || loc.dir != want.Dir {
			t.Errorf("%s from %s: located (%s, %s), go/build (%s, %s)",
				key.path, key.srcDir, loc.importPath, loc.dir, want.ImportPath, want.Dir)
		}
		got := slices.Sorted(slices.Values(parsed[loc.dir]))
		files := slices.Sorted(slices.Values(append(want.GoFiles, want.CgoFiles...)))
		if !slices.Equal(got, files) {
			t.Errorf("%s: parsed %v, go/build selects %v", want.ImportPath, got, files)
		}
		return true
	})
	if n < 100 {
		t.Errorf("only %d resolutions recorded; want the gca closure (>100)", n)
	}
}

// TestOneScanPerPackageDir: a warm scans each package directory once,
// however many packages import it and however many goroutines import
// concurrently. A go/build scan of a directory opens each of its source
// files to read the header; locating a package opens none (for a vendored
// path it only lists the candidate directory), so the number of times a
// file is opened is the number of times its directory was scanned. Four
// goroutines warm one unshared universe from gca through a context that
// counts the opens.
func TestOneScanPerPackageDir(t *testing.T) {
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	opened := map[string]int{}
	ctxt := build.Default
	ctxt.OpenFile = func(path string) (io.ReadCloser, error) {
		mu.Lock()
		opened[path]++
		mu.Unlock()
		return os.Open(path)
	}
	u := newUniverse(root, ctxt)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := u.Import(ModulePath + "/gca"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	scans := map[string]int{} // directory → scans, the most any of its files was opened
	for path, n := range opened {
		dir := filepath.Dir(path)
		scans[dir] = max(scans[dir], n)
	}
	total := 0
	for dir, n := range scans {
		total += n
		if n > 1 {
			t.Errorf("%s scanned %d times", dir, n)
		}
	}
	t.Logf("%d go/build scans for %d directories", total, len(scans))
	if len(scans) < 100 {
		t.Errorf("only %d directories scanned through the context; want the gca closure (>100)", len(scans))
	}
}

// TestVendoredImportResolves: a GOROOT package that imports a vendored
// path resolves it through the go/build cache to its canonical
// "vendor/..." import path, and every Checker of the root gets the same
// *types.Package for it and for the importer.
func TestVendoredImportResolves(t *testing.T) {
	c1, err := NewChecker("")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewChecker("")
	if err != nil {
		t.Fatal(err)
	}
	tls1, err := c1.ImportPackage("crypto/tls")
	if err != nil {
		t.Fatal(err)
	}
	tls2, err := c2.ImportPackage("crypto/tls")
	if err != nil {
		t.Fatal(err)
	}
	if tls1 != tls2 {
		t.Error("two Checkers got different crypto/tls packages")
	}
	const canonical = "vendor/golang.org/x/crypto/cryptobyte"
	var vendored *types.Package
	for _, imp := range tls1.Imports() {
		if strings.HasSuffix(imp.Path(), "golang.org/x/crypto/cryptobyte") {
			vendored = imp
		}
	}
	if vendored == nil || vendored.Path() != canonical {
		t.Fatalf("crypto/tls imports %v, want %s", vendored, canonical)
	}
	direct, err := c2.ImportPackage(canonical)
	if err != nil {
		t.Fatal(err)
	}
	if direct != vendored {
		t.Error("importing the canonical path gave a different package than crypto/tls imports")
	}
}

// BenchmarkUniverseWarm is the cold start of one process: a fresh unshared
// universe per iteration imports gca and its standard-library closure.
func BenchmarkUniverseWarm(b *testing.B) {
	root, err := ModuleRoot("")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := newUniverse(root, build.Default).Import(ModulePath + "/gca"); err != nil {
			b.Fatal(err)
		}
	}
}
