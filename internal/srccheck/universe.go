package srccheck

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Universe is a process-wide, concurrency-safe cache of type-checked
// packages for one module root: the compiled artefacts of `go/types` are
// immutable once built, so — like CrySL's compiled rules — they are built
// once and shared by every Checker in the process.
//
// Before the universe existed, every Checker owned a private importer and
// re-type-checked the entire transitive closure of its imports. N daemon
// workers paid N× that tax; now the first Import builds each package
// exactly once, concurrent importers of the same path wait on a per-path
// latch, and importers of different paths build in parallel. go/build
// scans each package directory once, behind a per-directory latch,
// however many directories import it. Each dependency is built as its
// importable API only (see build), from files parsed with their function
// bodies and literal contents blanked (blankBodies): for the generator
// that is gca and 23 standard-library packages, about 0.11 s and 23 MB of
// allocation on a 2-CPU x86-64 host (BenchmarkUniverseWarm, go1.24).
//
// All packages in a universe share one token.FileSet (FileSet methods are
// synchronized, so concurrent parses and type-checks are safe) and one
// consistent package graph — mixing packages from two universes would
// break named-type identity, which is why the cache is keyed by module
// root and shared process-wide rather than per Checker. The FileSet holds
// two kinds of file. Universe package files stay for the life of the
// process: the cached packages' positions resolve against them, so each
// keeps a line table of exactly its length (parseAll). Files a
// Checker parses for one call are removed again (Checker.Release), so the
// FileSet, and with it the resident heap, does not grow with the number of
// sources checked.
type Universe struct {
	fset  *token.FileSet
	root  string // module root directory (absolute, cleaned)
	ctxt  *build.Context
	sizes types.Sizes

	mu      sync.Mutex
	entries map[string]*entry   // canonical import path → build state
	scans   map[string]*dirScan // package directory → go/build scan

	// located caches the first step of resolution per (srcDir, path):
	// go/build's FindOnly lookup of the package directory and canonical
	// import path, which stats directories but reads no file. The second
	// step, the scan that lists the directory and reads every file header,
	// runs once per directory behind its dirScan latch, so errors, io or
	// sync are scanned once, not once per importing directory.
	located sync.Map // locateKey → location
}

type locateKey struct{ srcDir, path string }

// location is a located package: its canonical import path and directory,
// or the error go/build gave for it.
type location struct {
	importPath, dir string
	err             error
}

// entry is the per-package build latch: the first importer creates it and
// builds; everyone else waits on done. pkg/err are immutable after done
// closes.
type entry struct {
	done chan struct{}
	pkg  *types.Package
	err  error
}

// dirScan is the one go/build scan of a package directory: its package
// name and the files go/build selects. build reads the files; import
// pruning reads only the name, for imports it may never build.
type dirScan struct {
	once  sync.Once
	name  string
	files []string // GoFiles, then CgoFiles
	cgo   bool
	err   error
}

var universes sync.Map // module root → *Universe

// SharedUniverse returns the process-wide universe for the module rooted
// at root, creating it on first use. Callers typically go through
// NewChecker instead.
func SharedUniverse(root string) *Universe {
	key := filepath.Clean(root)
	if u, ok := universes.Load(key); ok {
		return u.(*Universe)
	}
	actual, _ := universes.LoadOrStore(key, newUniverse(key, build.Default))
	return actual.(*Universe)
}

// newUniverse returns an unshared universe for the module rooted at root
// that resolves and scans packages through ctxt.
func newUniverse(root string, ctxt build.Context) *Universe {
	return &Universe{
		fset:    token.NewFileSet(),
		root:    root,
		ctxt:    &ctxt,
		sizes:   types.SizesFor(ctxt.Compiler, ctxt.GOARCH),
		entries: map[string]*entry{},
		scans:   map[string]*dirScan{},
	}
}

// Fset returns the universe's shared FileSet. All positions of all cached
// packages (and of files checked through a Checker of the same root)
// resolve against it.
func (u *Universe) Fset() *token.FileSet { return u.fset }

// Import resolves and type-checks the package with the given import path,
// building it on first use and returning the shared *types.Package
// afterwards. Safe for concurrent use.
func (u *Universe) Import(path string) (*types.Package, error) {
	return u.importFrom(path, u.root, nil)
}

// Warm imports each path concurrently, ignoring errors (a real use of a
// failing path surfaces the error then), and returns once all are built.
// Long-lived services call this in the background at startup so the first
// request does not pay the first-import tax. A path some goroutine already
// builds gets no goroutine of its own: Warm waits for it afterwards.
func (u *Universe) Warm(paths ...string) {
	var wg sync.WaitGroup
	for _, p := range paths {
		if u.started(p, u.root) {
			continue
		}
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			_, _ = u.Import(p)
		}(p)
	}
	wg.Wait()
	for _, p := range paths {
		_, _ = u.Import(p) // built or in flight: this only waits
	}
}

// started reports whether the package path, imported from srcDir, is
// built or being built already, or cannot be resolved (importing it then
// reports the error at once).
func (u *Universe) started(path, srcDir string) bool {
	canonical, _, err := u.resolve(path, srcDir)
	if err != nil {
		return true
	}
	u.mu.Lock()
	_, ok := u.entries[canonical]
	u.mu.Unlock()
	return ok
}

// moduleLocal reports whether path addresses a package inside this module.
func moduleLocal(path string) bool {
	return path == ModulePath || strings.HasPrefix(path, ModulePath+"/")
}

// importFrom is the universe's importer core. srcDir anchors go/build
// resolution of non-module paths (vendor directories inside GOROOT); stack
// is the chain of packages currently being built by this goroutine's call
// chain, used to detect import cycles. A true cross-goroutine import cycle
// is invalid Go and is not detected (it would deadlock); the per-chain
// stack catches every cycle a single compilation can encounter.
func (u *Universe) importFrom(path, srcDir string, stack map[string]bool) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	canonical, dir, err := u.resolve(path, srcDir)
	if err != nil {
		return nil, fmt.Errorf("srccheck: importing %q: %w", path, err)
	}
	if stack[canonical] {
		return nil, fmt.Errorf("srccheck: import cycle through %q", canonical)
	}
	u.mu.Lock()
	e, ok := u.entries[canonical]
	if !ok {
		e = &entry{done: make(chan struct{})}
		u.entries[canonical] = e
		u.mu.Unlock()
		e.pkg, e.err = u.build(canonical, dir, stack)
		close(e.done)
	} else {
		u.mu.Unlock()
		<-e.done
	}
	return e.pkg, e.err
}

// resolve maps an import path, as written in a file of srcDir, to the
// package's canonical import path and directory. A module-local path maps
// straight into the module root; any other is located through go/build.
func (u *Universe) resolve(path, srcDir string) (canonical, dir string, err error) {
	if moduleLocal(path) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, ModulePath), "/")
		return path, filepath.Join(u.root, filepath.FromSlash(rel)), nil
	}
	loc := u.locate(path, srcDir)
	return loc.importPath, loc.dir, loc.err
}

// locate finds a non-module package's directory and canonical import path
// through go/build, memoizing per (importing directory, path). FindOnly
// keeps go/build's vendor search (crypto/tls's
// golang.org/x/crypto/cryptobyte is vendor/golang.org/x/crypto/cryptobyte)
// but skips the directory scan. Duplicate concurrent lookups are possible
// and harmless (both results are equal; first store wins).
func (u *Universe) locate(path, srcDir string) location {
	key := locateKey{srcDir, path}
	if l, ok := u.located.Load(key); ok {
		return l.(location)
	}
	bp, err := u.ctxt.Import(path, srcDir, build.FindOnly)
	l := location{importPath: bp.ImportPath, dir: bp.Dir, err: err}
	actual, _ := u.located.LoadOrStore(key, l)
	return actual.(location)
}

// build scans, parses and type-checks the package in dir, which path
// names canonically. The scan is go/build's, for module-local and
// standard-library packages alike, so both honour build constraints and
// file-name GOOS/GOARCH suffixes and leave test files out.
//
// Only what an importer can see is type-checked. Like the standard source
// importer, function bodies are ignored. Beyond that, a package outside
// the module keeps only the declarations its exported API reaches
// (pruneDecls), and every package keeps only the imports its remaining
// declarations use outside bodies (pruneImports), so a gca warm builds 24
// of the 115 packages in its import closure. Module-local packages keep every declaration:
// gen walks gca's whole scope. Three things follow, and are intended:
//   - types.Package.Imports() lists only the imports a package's API uses;
//   - a reference to an unexported std name p.x reports "undefined: p.x",
//     not "name x not exported by package p";
//   - an import that is broken (it fails to parse or type-check) but used
//     only in a dependency's function bodies no longer fails the
//     universe, as type errors inside those bodies never did;
//   - a syntax error inside a dependency's function body or literal
//     contents no longer fails its import: parseAll blanks them unread.
//
// The exported API is the one the source importer builds:
// TestUniverseAPIMatchesSourceImporter compares objects, underlying
// types, method sets, sizes and comparability package by package.
func (u *Universe) build(path, dir string, stack map[string]bool) (*types.Package, error) {
	sub := make(map[string]bool, len(stack)+1)
	for k := range stack {
		sub[k] = true
	}
	sub[path] = true

	s := u.scan(dir)
	if s.err != nil {
		return nil, fmt.Errorf("srccheck: importing %q: %w", path, s.err)
	}
	files, err := u.parseAll(dir, s.files)
	if err != nil {
		return nil, err
	}
	if !moduleLocal(path) {
		pruneDecls(files)
	}
	u.pruneImports(files, dir)
	u.prefetch(files, dir, sub)

	conf := types.Config{
		IgnoreFuncBodies: true,
		// Cgo packages are checked with FakeImportC (C.* selectors resolve
		// to invalid types) — enough for every package whose exported API
		// is pure Go, which is all the generator can reach.
		FakeImportC: s.cgo,
		Importer:    &chainImporter{u: u, srcDir: dir, stack: sub},
		Sizes:       u.sizes,
	}
	pkg, err := conf.Check(path, u.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("srccheck: type-checking %s: %w", path, err)
	}
	return pkg, nil
}

// scan returns go/build's scan of dir, running it on first use. Concurrent
// callers for one directory wait on its latch, so each directory is
// scanned once however many packages import it or build from it.
func (u *Universe) scan(dir string) *dirScan {
	u.mu.Lock()
	s, ok := u.scans[dir]
	if !ok {
		s = &dirScan{}
		u.scans[dir] = s
	}
	u.mu.Unlock()
	s.once.Do(func() {
		bp, err := u.ctxt.ImportDir(dir, 0)
		if err != nil {
			s.err = err
			return
		}
		s.name = bp.Name
		s.files = append(slices.Clip(bp.GoFiles), bp.CgoFiles...)
		s.cgo = len(bp.CgoFiles) > 0
	})
	return s
}

// parseAll parses the named files of dir into the shared FileSet (whose
// methods are synchronized), on as many goroutines as there are CPUs, the
// calling one included, returning the first error in filename order for
// determinism. Each file is parsed with its function bodies and literal
// contents blanked (blankBodies), which no importer reads. Each parsed
// file stays in the FileSet for the life of the process, so its line
// table is trimmed to its length; positions are unchanged.
func (u *Universe) parseAll(dir string, filenames []string) ([]*ast.File, error) {
	files := make([]*ast.File, len(filenames))
	errs := make([]error, len(filenames))
	var next atomic.Int64
	parse := func() {
		for i := int(next.Add(1) - 1); i < len(filenames); i = int(next.Add(1) - 1) {
			path := filepath.Join(dir, filenames[i])
			src, err := os.ReadFile(path)
			if err != nil {
				errs[i] = err
				continue
			}
			blankBodies(src)
			files[i], errs[i] = parser.ParseFile(u.fset, path, src, parser.SkipObjectResolution)
			if files[i] != nil {
				trimLines(u.fset.File(files[i].FileStart))
			}
		}
	}
	var wg sync.WaitGroup
	for range min(len(filenames), runtime.GOMAXPROCS(0)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parse()
		}()
	}
	parse()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("srccheck: parsing %s: %w", filenames[i], err)
		}
	}
	return files, nil
}

// trimLines replaces tf's line table with an exact-size copy, dropping the
// spare capacity append left behind. It copies into make, not
// slices.Clone, whose append would report a capacity rounded up to the
// allocator's size class.
func trimLines(tf *token.File) {
	lines := tf.Lines()
	if len(lines) == cap(lines) {
		return
	}
	exact := make([]int, len(lines))
	copy(exact, lines)
	tf.SetLines(exact)
}

// prefetch fans the package's direct imports out across goroutines before
// type-checking begins, so independent subtrees of the import graph build
// concurrently instead of one-by-one in the type checker's demand order.
// An import that is built or being built already gets no goroutine: one
// would only wait on its latch. Errors are deliberately dropped here: the
// type checker re-requests every import synchronously and hits the cached
// result (or error) then.
func (u *Universe) prefetch(files []*ast.File, srcDir string, stack map[string]bool) {
	seen := map[string]bool{}
	var wg sync.WaitGroup
	for _, f := range files {
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil || p == "C" || p == "unsafe" || seen[p] || u.started(p, srcDir) {
				continue
			}
			seen[p] = true
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				_, _ = u.importFrom(p, srcDir, stack)
			}(p)
		}
	}
	wg.Wait()
}

// chainImporter adapts the universe to types.Importer/ImporterFrom while
// threading one build chain's cycle-detection stack. The stack is written
// once (in build) and only read afterwards, so sharing it across the
// prefetch goroutines is race-free.
type chainImporter struct {
	u      *Universe
	srcDir string
	stack  map[string]bool
}

func (ci *chainImporter) Import(path string) (*types.Package, error) {
	return ci.u.importFrom(path, ci.srcDir, ci.stack)
}

func (ci *chainImporter) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if srcDir == "" {
		srcDir = ci.srcDir
	}
	return ci.u.importFrom(path, srcDir, ci.stack)
}
