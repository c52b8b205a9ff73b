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
	"strconv"
	"strings"
	"sync"
)

// Universe is a process-wide, concurrency-safe cache of type-checked
// packages for one module root: the compiled artefacts of `go/types` are
// immutable once built, so — like CrySL's compiled rules — they are built
// once and shared by every Checker and Importer in the process.
//
// Before the universe existed, every Checker owned a private importer and
// re-type-checked the entire transitive closure of its imports (for the
// generator: gca and the whole crypto/* subtree, ~900 ms). N daemon
// workers paid N× that tax; now the first Import builds each package
// exactly once, concurrent importers of the same path wait on a per-path
// latch, and importers of different paths build in parallel.
//
// All packages in a universe share one token.FileSet (FileSet methods are
// synchronized, so concurrent parses and type-checks are safe) and one
// consistent package graph — mixing packages from two universes would
// break named-type identity, which is why the cache is keyed by module
// root and shared process-wide rather than per Checker. The FileSet holds
// two kinds of file. Universe package files stay for the life of the
// process: the cached packages' positions resolve against them. Files a
// Checker parses for one call are removed again (Checker.Release), so the
// FileSet, and with it the resident heap, does not grow with the number of
// sources checked.
type Universe struct {
	fset  *token.FileSet
	root  string // module root directory (absolute, cleaned)
	ctxt  *build.Context
	sizes types.Sizes

	mu      sync.Mutex
	entries map[string]*entry // canonical import path → build state

	// resolved caches go/build path resolution keyed by (srcDir, path):
	// resolution scans the package directory and parses every file header,
	// so paying it once per importing directory instead of once per Import
	// call roughly halves the first warm-up and makes cache hits cheap.
	resolved sync.Map // resolveKey → resolveResult
}

type resolveKey struct{ srcDir, path string }

type resolveResult struct {
	bp  *buildInputs
	err error
}

// buildInputs is what build and importFrom read of a go/build resolution.
// The resolve cache keeps only these fields: a *build.Package also carries
// the import positions and header data of every file, which nothing reads
// after resolution.
type buildInputs struct {
	ImportPath, Dir   string
	GoFiles, CgoFiles []string
}

// entry is the per-package build latch: the first importer creates it and
// builds; everyone else waits on done. pkg/err are immutable after done
// closes.
type entry struct {
	done chan struct{}
	pkg  *types.Package
	err  error
}

var universes sync.Map // module root → *Universe

// SharedUniverse returns the process-wide universe for the module rooted
// at root, creating it on first use. Callers typically go through
// NewChecker or NewImporter instead.
func SharedUniverse(root string) *Universe {
	key := filepath.Clean(root)
	if u, ok := universes.Load(key); ok {
		return u.(*Universe)
	}
	ctxt := build.Default
	u := &Universe{
		fset:    token.NewFileSet(),
		root:    key,
		ctxt:    &ctxt,
		sizes:   types.SizesFor(ctxt.Compiler, ctxt.GOARCH),
		entries: map[string]*entry{},
	}
	actual, _ := universes.LoadOrStore(key, u)
	return actual.(*Universe)
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
// failing path surfaces the error then). Long-lived services call this in
// the background at startup so the first request does not pay the
// first-import tax.
func (u *Universe) Warm(paths ...string) {
	var wg sync.WaitGroup
	for _, p := range paths {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			_, _ = u.Import(p)
		}(p)
	}
	wg.Wait()
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
	canonical := path
	var bp *buildInputs
	if !moduleLocal(path) {
		var err error
		bp, err = u.resolve(path, srcDir)
		if err != nil {
			return nil, fmt.Errorf("srccheck: importing %q: %w", path, err)
		}
		canonical = bp.ImportPath
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
		e.pkg, e.err = u.build(canonical, bp, stack)
		close(e.done)
	} else {
		u.mu.Unlock()
		<-e.done
	}
	return e.pkg, e.err
}

// resolve locates a non-module package through go/build, memoizing per
// (importing directory, path). Duplicate concurrent resolutions are
// possible and harmless (both results are equal; first store wins).
func (u *Universe) resolve(path, srcDir string) (*buildInputs, error) {
	key := resolveKey{srcDir, path}
	if r, ok := u.resolved.Load(key); ok {
		rr := r.(resolveResult)
		return rr.bp, rr.err
	}
	bp, err := u.ctxt.Import(path, srcDir, 0)
	r := resolveResult{err: err}
	if err == nil {
		r.bp = &buildInputs{ImportPath: bp.ImportPath, Dir: bp.Dir, GoFiles: bp.GoFiles, CgoFiles: bp.CgoFiles}
	}
	actual, _ := u.resolved.LoadOrStore(key, r)
	rr := actual.(resolveResult)
	return rr.bp, rr.err
}

// build parses and type-checks one package. bp is the go/build resolution
// for non-module packages (nil for module-local paths). Signatures only:
// like the standard source importer, function bodies are ignored — an
// import needs the exported API, and skipping bodies cuts the cost of the
// crypto/* closure severalfold.
func (u *Universe) build(path string, bp *buildInputs, stack map[string]bool) (*types.Package, error) {
	sub := make(map[string]bool, len(stack)+1)
	for k := range stack {
		sub[k] = true
	}
	sub[path] = true

	var dir string
	var filenames []string
	cgo := false
	if bp == nil { // module-local: resolve against the source tree
		rel := strings.TrimPrefix(strings.TrimPrefix(path, ModulePath), "/")
		dir = filepath.Join(u.root, filepath.FromSlash(rel))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("srccheck: reading %s: %w", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			filenames = append(filenames, name)
		}
		if len(filenames) == 0 {
			return nil, fmt.Errorf("srccheck: no Go files in %s", dir)
		}
	} else {
		dir = bp.Dir
		filenames = append(filenames, bp.GoFiles...)
		filenames = append(filenames, bp.CgoFiles...)
		// Cgo packages are checked with FakeImportC (C.* selectors resolve
		// to invalid types) — enough for every package whose exported API is
		// pure Go, which is all the generator can reach.
		cgo = len(bp.CgoFiles) > 0
	}

	files, err := u.parseAll(dir, filenames)
	if err != nil {
		return nil, err
	}
	u.prefetch(files, dir, sub)

	conf := types.Config{
		IgnoreFuncBodies: true,
		FakeImportC:      cgo,
		Importer:         &chainImporter{u: u, srcDir: dir, stack: sub},
		Sizes:            u.sizes,
	}
	pkg, err := conf.Check(path, u.fset, files, nil)
	if err != nil {
		return nil, fmt.Errorf("srccheck: type-checking %s: %w", path, err)
	}
	return pkg, nil
}

// parseAll parses the named files of dir concurrently into the shared
// FileSet (whose methods are synchronized), returning the first error in
// filename order for determinism.
func (u *Universe) parseAll(dir string, filenames []string) ([]*ast.File, error) {
	files := make([]*ast.File, len(filenames))
	errs := make([]error, len(filenames))
	var wg sync.WaitGroup
	for i, name := range filenames {
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			files[i], errs[i] = parser.ParseFile(u.fset, path, nil, parser.SkipObjectResolution)
		}(i, filepath.Join(dir, name))
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("srccheck: parsing %s: %w", filenames[i], err)
		}
	}
	return files, nil
}

// prefetch fans the package's direct imports out across goroutines before
// type-checking begins, so independent subtrees of the import graph build
// concurrently instead of one-by-one in the type checker's demand order.
// Errors are deliberately dropped here: the type checker re-requests every
// import synchronously and hits the cached result (or error) then.
func (u *Universe) prefetch(files []*ast.File, srcDir string, stack map[string]bool) {
	seen := map[string]bool{}
	var wg sync.WaitGroup
	for _, f := range files {
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil || p == "C" || p == "unsafe" || seen[p] {
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
