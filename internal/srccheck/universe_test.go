package srccheck

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
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
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		p := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module "+ModulePath+"\n\ngo 1.24\n")
	write("cyca/a.go", "package cyca\n\nimport \""+ModulePath+"/cycb\"\n\nvar A = cycb.B\n")
	write("cycb/b.go", "package cycb\n\nimport \""+ModulePath+"/cyca\"\n\nvar B = cyca.A\n")
	u := SharedUniverse(dir)
	_, err := u.Import(ModulePath + "/cyca")
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want import-cycle error, got %v", err)
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
