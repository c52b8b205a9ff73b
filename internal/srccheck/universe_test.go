package srccheck

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"cognicryptgen/templates"
)

// TestConcurrentImport is the universe's import concurrency contract:
// 16 goroutines hammering one shared universe with overlapping paths must
// race-free deduplicate onto a single build per path and all receive the
// same *types.Package. Run under -race (scripts/verify.sh does).
func TestConcurrentImport(t *testing.T) {
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	imp := SharedUniverse(root)
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

// TestSharedUniverseAcrossInstances: separate SharedUniverse lookups and
// Checkers of the same module root share one universe, so the packages
// they hand out are pointer-identical — the property that makes the N-workers cold path
// cost one import, not N.
func TestSharedUniverseAcrossInstances(t *testing.T) {
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	a := SharedUniverse(root)
	b := SharedUniverse(root)
	pa, err := a.Import(ModulePath + "/gca")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Import(ModulePath + "/gca")
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Error("two SharedUniverse lookups of one root returned different gca packages")
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
		t.Error("Checker and SharedUniverse returned different gca packages")
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
// build.Default.Import(path, srcDir, 0), and for every package the
// universe built, the files it parsed from that package's directory are
// exactly its GoFiles and CgoFiles.
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
		return true
	})
	built := builtPaths(u)
	for _, path := range built {
		_, dir, err := u.resolve(path, root)
		if err != nil {
			t.Fatal(err)
		}
		want, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := slices.Sorted(slices.Values(parsed[dir]))
		files := slices.Sorted(slices.Values(append(want.GoFiles, want.CgoFiles...)))
		if !slices.Equal(got, files) {
			t.Errorf("%s: parsed %v, go/build selects %v", path, got, files)
		}
	}
	if n < 100 {
		t.Errorf("only %d resolutions recorded; want the gca closure (>100)", n)
	}
	if len(built) < 24 {
		t.Errorf("only %d packages built; want the gca closure (24)", len(built))
	}
}

// builtPaths returns the sorted canonical paths of the packages u has
// built successfully.
func builtPaths(u *Universe) []string {
	u.mu.Lock()
	defer u.mu.Unlock()
	var paths []string
	for path, e := range u.entries {
		select {
		case <-e.done:
			if e.pkg != nil {
				paths = append(paths, path)
			}
		default:
		}
	}
	slices.Sort(paths)
	return paths
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
	// Before the universe pruned each dependency to its importable API, a
	// gca warm scanned 115 directories, one per package it built. Now it
	// scans 65 on Go 1.24: the 24 packages it builds, plus the directories
	// of imports whose package name pruning reads and then drops.
	t.Logf("%d go/build scans for %d directories", total, len(scans))
	if len(scans) < 65 {
		t.Errorf("only %d directories scanned through the context; want the gca closure (65)", len(scans))
	}
}

// TestVendoredImportResolves: a vendored path imported from a GOROOT
// package's directory resolves through go/build's vendor search to its
// canonical "vendor/..." import path, and every Checker of the root and
// its shared universe get the same *types.Package for it and for the
// importer.
// crypto/tls's API no longer uses cryptobyte, so tls.Imports() does not
// list it; the import is made from crypto/tls's directory instead.
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
	tls, err := build.Default.Import("crypto/tls", "", build.FindOnly)
	if err != nil {
		t.Fatal(err)
	}
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	vendored, err := SharedUniverse(root).importFrom("golang.org/x/crypto/cryptobyte", tls.Dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vendored.Path() != canonical {
		t.Fatalf("cryptobyte from crypto/tls resolves to %s, want %s", vendored.Path(), canonical)
	}
	direct, err := c2.ImportPackage(canonical)
	if err != nil {
		t.Fatal(err)
	}
	if direct != vendored {
		t.Error("importing the canonical path gave a different package than crypto/tls imports")
	}
}

// TestUniverseClosure pins the packages a gca warm builds: gca and the
// standard-library packages its exported API reaches through the exported
// API of each dependency. Without pruning to the importable API, the same
// warm built 115 packages (752 files), reflect, unicode, os and time among
// them. The set is the Go 1.24 standard library's; other releases get
// only the bound.
func TestUniverseClosure(t *testing.T) {
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	u := newUniverse(root, build.Default)
	if _, err := u.Import(ModulePath + "/gca"); err != nil {
		t.Fatal(err)
	}
	got := builtPaths(u)
	want := []string{
		ModulePath + "/gca",
		"crypto",
		"crypto/cipher",
		"crypto/ecdh",
		"crypto/ecdsa",
		"crypto/elliptic",
		"crypto/internal/boring",
		"crypto/internal/fips140",
		"crypto/internal/fips140/bigmod",
		"crypto/internal/fips140/ecdh",
		"crypto/internal/fips140/nistec",
		"crypto/internal/fips140/nistec/fiat",
		"crypto/internal/fips140/rsa",
		"crypto/rsa",
		"errors",
		"fmt",
		"hash",
		"internal/sync",
		"io",
		"math",
		"math/big",
		"math/rand",
		"sync",
		"sync/atomic",
	}
	if !strings.HasPrefix(runtime.Version(), "go1.24") {
		if len(got) > 2*len(want) {
			t.Errorf("a gca warm built %d packages, want about %d: %q", len(got), len(want), got)
		}
		return
	}
	if !slices.Equal(got, want) {
		t.Errorf("a gca warm built %d packages %q\nwant %d: %q", len(got), got, len(want), want)
	}
}

// bootWarmPaths mirrors what service.New warms the universe with: gca and
// every import path of the embedded templates.
func bootWarmPaths(t testing.TB) []string {
	t.Helper()
	srcs, err := templates.Sources()
	if err != nil {
		t.Fatal(err)
	}
	return append([]string{ModulePath + "/gca"}, ImportPaths(slices.Collect(maps.Values(srcs))...)...)
}

// TestBootWarmCoversTemplates: once the boot warm (gca and the embedded
// templates' imports, one Warm call) has finished, type-checking each of
// the 13 templates builds no further universe package. A generation
// checks its template and, when verified, an output that imports a subset
// of the template's imports plus gca, so no generation of a template does
// either. The warmed set is the Go 1.24 standard library's; other
// releases get only the covering check.
func TestBootWarmCoversTemplates(t *testing.T) {
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	u := newUniverse(root, build.Default)
	u.Warm(bootWarmPaths(t)...)
	warmed := builtPaths(u)
	c := &Checker{Fset: u.fset, u: u}
	srcs, err := templates.Sources()
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) != 13 {
		t.Fatalf("%d embedded templates, want 13", len(srcs))
	}
	for name, src := range srcs {
		f, _, _, err := c.CheckSource(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c.Release(f)
	}
	if got := builtPaths(u); !slices.Equal(got, warmed) {
		t.Errorf("checking the templates built more than the boot warm:\nafter %q\nwarmed %q", got, warmed)
	}
	want := []string{
		ModulePath + "/gca",
		ModulePath + "/gen/fluent",
		"crypto",
		"crypto/cipher",
		"crypto/ecdh",
		"crypto/ecdsa",
		"crypto/elliptic",
		"crypto/internal/boring",
		"crypto/internal/fips140",
		"crypto/internal/fips140/bigmod",
		"crypto/internal/fips140/ecdh",
		"crypto/internal/fips140/nistec",
		"crypto/internal/fips140/nistec/fiat",
		"crypto/internal/fips140/rsa",
		"crypto/rsa",
		"crypto/subtle",
		"encoding/hex",
		"errors",
		"fmt",
		"hash",
		"internal/poll",
		"internal/sync",
		"io",
		"io/fs",
		"iter",
		"math",
		"math/big",
		"math/rand",
		"os",
		"strings",
		"sync",
		"sync/atomic",
		"syscall",
		"time",
		"unicode",
	}
	if !strings.HasPrefix(runtime.Version(), "go1.24") {
		return
	}
	if !slices.Equal(warmed, want) {
		t.Errorf("the boot warm built %d packages %q\nwant %d: %q", len(warmed), warmed, len(want), want)
	}
}

// TestUniversePositionsMatchUnblanked: the universe parses dependencies
// with their bodies and literal contents blanked, and no position moves.
// A universe is built for gca, the templates' imports and the roots of
// TestUniverseAPIMatchesSourceImporter; for every package-level object,
// method, field, parameter and result of every package it built, the
// object's position must name an identifier of the same name in an
// unblanked go/parser parse of the same file, at an equal token.Position.
func TestUniversePositionsMatchUnblanked(t *testing.T) {
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	u := newUniverse(root, build.Default)
	u.Warm(append(bootWarmPaths(t), "fmt", "os", "net/http", "crypto/tls", "crypto/x509", "encoding/json")...)

	type refFile struct {
		fset  *token.FileSet
		tf    *token.File
		names map[token.Pos]string // identifier position → name
	}
	refs := map[string]*refFile{}
	ref := func(name string) *refFile {
		if r, ok := refs[name]; ok {
			return r
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("unblanked parse: %v", err)
		}
		r := &refFile{fset: fset, tf: fset.File(f.FileStart), names: map[token.Pos]string{}}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				r.names[id.Pos()] = id.Name
			}
			return true
		})
		refs[name] = r
		return r
	}
	compared := 0
	check := func(obj types.Object) {
		if !obj.Pos().IsValid() || obj.Name() == "" || obj.Name() == "_" {
			return
		}
		tf := u.fset.File(obj.Pos())
		r := ref(tf.Name())
		got := u.fset.Position(obj.Pos())
		pos := r.tf.Pos(got.Offset)
		if name, ok := r.names[pos]; !ok || name != obj.Name() {
			t.Errorf("%s at %s: unblanked parse has %q there", obj, got, name)
			return
		}
		if want := r.fset.Position(pos); got != want {
			t.Errorf("%s: position %s, unblanked %s", obj, got, want)
		}
		compared++
	}
	for _, path := range builtPaths(u) {
		pkg, err := u.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range pkg.Scope().Names() {
			eachDeclared(pkg.Scope().Lookup(name), check)
		}
	}
	t.Logf("%d objects in %d files at their unblanked positions", compared, len(refs))
	if compared < 10000 {
		t.Errorf("compared %d objects; want the closure's (> 10000)", compared)
	}
}

// eachDeclared calls f for obj and for the methods, struct fields,
// interface methods, parameters and results its declaration declares.
func eachDeclared(obj types.Object, f func(types.Object)) {
	f(obj)
	sig := func(s *types.Signature) {
		for _, tup := range []*types.Tuple{s.Params(), s.Results()} {
			for v := range tup.Variables() {
				f(v)
			}
		}
	}
	switch obj := obj.(type) {
	case *types.Func:
		sig(obj.Signature())
	case *types.TypeName:
		if n, ok := obj.Type().(*types.Named); ok {
			for m := range n.Methods() {
				f(m)
				sig(m.Signature())
			}
		}
		switch u := obj.Type().Underlying().(type) {
		case *types.Struct:
			for v := range u.Fields() {
				f(v)
			}
		case *types.Interface:
			for m := range u.ExplicitMethods() {
				f(m)
				sig(m.Signature())
			}
		}
	}
}

// TestUniverseLineTablesExact: universe package files stay in the FileSet
// for the life of the process, so after a gca warm every one of them
// holds a line table of exactly its length, with no spare capacity left
// from the scanner's appends.
func TestUniverseLineTablesExact(t *testing.T) {
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	u := newUniverse(root, build.Default)
	if _, err := u.Import(ModulePath + "/gca"); err != nil {
		t.Fatal(err)
	}
	files, lines := 0, 0
	u.fset.Iterate(func(f *token.File) bool {
		files++
		l := f.Lines()
		lines += len(l)
		if len(l) != cap(l) {
			t.Errorf("%s: line table len %d, cap %d", f.Name(), len(l), cap(l))
		}
		return true
	})
	if files == 0 {
		t.Fatal("a gca warm left no file in the universe's FileSet")
	}
	t.Logf("%d universe files, %d line offsets", files, lines)
}

// TestUniverseAPIMatchesSourceImporter: the universe builds each
// dependency as its importable API only, and that API is the one the
// standard source importer, the reference implementation, builds from
// the whole package. An unshared universe is warmed from gca and six
// large standard-library roots; for every non-module package it built,
// each exported object must print the same (constants: the same value),
// and each exported named type must have the same underlying type and
// the same method sets for T and *T, unexported methods included. A
// non-generic, non-interface type must also have the same size and
// comparability.
func TestUniverseAPIMatchesSourceImporter(t *testing.T) {
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	u := newUniverse(root, build.Default)
	roots := []string{ModulePath + "/gca", "fmt", "os", "net/http", "crypto/tls", "crypto/x509", "encoding/json"}
	for _, p := range roots {
		if _, err := u.Import(p); err != nil {
			t.Fatal(err)
		}
	}
	ref := importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
	compared := 0
	for _, path := range builtPaths(u) {
		if moduleLocal(path) {
			continue
		}
		got, err := u.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.ImportFrom(path, root, 0)
		if err != nil {
			t.Fatalf("source importer: %v", err)
		}
		compared++
		gs, ws := got.Scope(), want.Scope()
		for _, name := range ws.Names() {
			if !token.IsExported(name) {
				continue
			}
			wo, g := ws.Lookup(name), gs.Lookup(name)
			if g == nil {
				t.Errorf("%s.%s: missing", path, name)
				continue
			}
			if gs, ws := types.ObjectString(g, nil), types.ObjectString(wo, nil); gs != ws {
				t.Errorf("%s.%s: object %s, source importer %s", path, name, gs, ws)
			}
			if wc, ok := wo.(*types.Const); ok {
				if gv, wv := g.(*types.Const).Val().ExactString(), wc.Val().ExactString(); gv != wv {
					t.Errorf("%s.%s: value %s, source importer %s", path, name, gv, wv)
				}
			}
			if _, ok := wo.(*types.TypeName); ok {
				compareType(t, path+"."+name, u.sizes, g.Type(), wo.Type())
			}
		}
		for _, name := range gs.Names() {
			if token.IsExported(name) && ws.Lookup(name) == nil {
				t.Errorf("%s.%s: not in the source importer's package", path, name)
			}
		}
	}
	t.Logf("compared %d packages", compared)
	if compared < 50 {
		t.Errorf("compared %d packages; want the closure of %v (>= 50)", compared, roots)
	}
}

// compareType compares an exported named type of the universe with the
// source importer's for TestUniverseAPIMatchesSourceImporter.
func compareType(t *testing.T, name string, sizes types.Sizes, got, want types.Type) {
	t.Helper()
	if gs, ws := types.TypeString(got.Underlying(), nil), types.TypeString(want.Underlying(), nil); gs != ws {
		t.Errorf("%s: underlying %s, source importer %s", name, gs, ws)
	}
	for _, ptr := range []bool{false, true} {
		g, w := got, want
		if ptr {
			g, w = types.NewPointer(g), types.NewPointer(w)
		}
		if gm, wm := methodSet(g), methodSet(w); !slices.Equal(gm, wm) {
			t.Errorf("%s: method set of %s\n%q\nsource importer\n%q", name, g, gm, wm)
		}
	}
	if n, ok := types.Unalias(want).(*types.Named); (ok && n.TypeParams().Len() > 0) || types.IsInterface(want) {
		return
	}
	if gs, ws := sizes.Sizeof(got), sizes.Sizeof(want); gs != ws {
		t.Errorf("%s: size %d, source importer %d", name, gs, ws)
	}
	if gc, wc := types.Comparable(got), types.Comparable(want); gc != wc {
		t.Errorf("%s: comparable %v, source importer %v", name, gc, wc)
	}
}

func methodSet(T types.Type) []string {
	ms := types.NewMethodSet(T)
	out := make([]string, ms.Len())
	for i := range out {
		out[i] = ms.At(i).String()
	}
	return out
}

// TestBrokenImportOnlyInBodies: an import a package uses only inside
// function bodies is not part of its API, so it is never built, and a
// package that fails to type-check there no longer fails its importer.
func TestBrokenImportOnlyInBodies(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"broken/b.go": "package broken\n\nvar X int = \"s\"\n",
		"user/u.go": "package user\n\nimport \"" + ModulePath + "/broken\"\n\n" +
			"func F() int { return broken.X }\n",
	})
	u := newUniverse(dir, build.Default)
	if _, err := u.Import(ModulePath + "/user"); err != nil {
		t.Fatalf("a broken import used only in a function body failed the importer: %v", err)
	}
	if _, err := u.Import(ModulePath + "/broken"); err == nil {
		t.Fatal("the broken package type-checked")
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
