// Package srccheck type-checks Go source against this module's packages
// without invoking the go tool.
//
// The CGO 2020 paper guarantees that generated code "is free of syntax
// errors and type-checks". For the Java original, the Eclipse JDT provided
// that check; here go/parser and go/types do. Because generated code
// imports module-local packages (cognicryptgen/gca, cognicryptgen/gen/...)
// that the standard source importer cannot resolve in module mode, this
// package implements a module-aware source importer: module-local import
// paths are parsed and type-checked from the source tree, everything else
// is resolved through go/build and type-checked from GOROOT source.
//
// All type-checked packages live in a process-wide shared Universe keyed
// by module root (see universe.go): the first Checker in a process pays
// the one-time cost of importing the crypto façade's transitive closure,
// every later Checker constructs in microseconds, and concurrent imports
// are both safe and deduplicated.
//
// Positions resolve against the universe's one token.FileSet. The files of
// universe packages stay in it for the life of the process; a file a
// Checker parses for one call (a template, a verified output, an analyzed
// source) is removed again with Checker.Release once its positions have
// been resolved, and the Check methods release it themselves when they
// fail. A long-running daemon's FileSet therefore stays the size of its
// universe however many sources it checks.
package srccheck

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// ModulePath is this module's path as declared in go.mod.
const ModulePath = "cognicryptgen"

// ModuleRoot locates the module root by walking up from dir (or the
// working directory when dir is empty) until a go.mod declaring ModulePath
// is found.
func ModuleRoot(dir string) (string, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		dir = wd
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.Contains(string(data), "module "+ModulePath) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("srccheck: module root for %q not found", ModulePath)
		}
		dir = parent
	}
}

// ImportPaths returns the sorted, distinct import paths of the Go sources
// srcs, read from their import clauses alone (parser.ImportsOnly). A
// source that fails to parse contributes the imports before the error.
func ImportPaths(srcs ...string) []string {
	fset := token.NewFileSet()
	var paths []string
	for _, src := range srcs {
		f, _ := parser.ParseFile(fset, "", src, parser.ImportsOnly)
		if f == nil {
			continue
		}
		for _, spec := range f.Imports {
			if p, err := strconv.Unquote(spec.Path.Value); err == nil {
				paths = append(paths, p)
			}
		}
	}
	slices.Sort(paths)
	return slices.Compact(paths)
}

// Checker type-checks in-memory Go sources against the module.
//
// A Checker is safe for concurrent use: its FileSet is the universe's
// shared, internally synchronized FileSet, and imports resolve through the
// concurrency-safe universe. CheckSource and CheckDir fill a types.Info
// drawn from a process-wide pool, one Info per call; VerifySource and
// VerifyFile fill none.
//
// The files a successful CheckSource, CheckDir or FormatFile returns keep
// their line tables in that FileSet, where they would stay for the life of
// the process; the caller passes them to Release once it has resolved
// their positions. Universe package files are never released. The caller
// may likewise pass the returned Info to Recycle once nothing reads it, so
// a later check fills maps that are already grown; an Info never recycled
// is garbage-collected as usual.
type Checker struct {
	Fset *token.FileSet
	u    *Universe
}

// NewChecker returns a checker rooted at the module containing dir ("" =
// working directory). The first Checker of a module root in a process pays
// for the imports it triggers; every subsequent Checker shares the
// already-built universe and constructs in microseconds.
func NewChecker(dir string) (*Checker, error) {
	root, err := ModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	u := SharedUniverse(root)
	return &Checker{Fset: u.fset, u: u}, nil
}

// ImportPackage loads and type-checks a package by import path.
func (c *Checker) ImportPackage(path string) (*types.Package, error) {
	return c.u.Import(path)
}

// importer returns a fresh types.Importer view over the universe (fresh
// cycle-detection chain per checked file set).
func (c *Checker) importer() types.ImporterFrom {
	return &chainImporter{u: c.u, srcDir: c.u.root}
}

// CheckDir parses and type-checks the Go files go build would compile for
// the package in dir (see packageFiles), returning the files and the
// shared type info. The files' line tables live in the shared FileSet
// until the caller passes them to Release; on error CheckDir releases them
// itself and returns only the error.
func (c *Checker) CheckDir(dir string) ([]*ast.File, *types.Package, *types.Info, error) {
	names, err := c.packageFiles(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(names) == 0 {
		return nil, nil, nil, fmt.Errorf("srccheck: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(c.Fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		files = append(files, f)
		if err != nil {
			c.Release(files...)
			return nil, nil, nil, fmt.Errorf("srccheck: parsing %s: %w", name, err)
		}
	}
	info := infoPool.Get().(*types.Info)
	pkg, err := c.check(files[0].Name.Name, files, info)
	if err != nil {
		c.Release(files...)
		c.Recycle(info)
		return nil, nil, nil, err
	}
	return files, pkg, info, nil
}

// CheckPackageWith type-checks the Go package in dir together with one
// additional in-memory file (filename/src), as if the file had been saved
// into the directory. The package's files are the ones go build would
// compile (see packageFiles). An empty or non-existent directory degrades
// to checking the new file alone. Every file it parses is released before
// it returns.
func (c *Checker) CheckPackageWith(dir, filename, src string) error {
	extra, err := parser.ParseFile(c.Fset, filename, src, parser.SkipObjectResolution)
	files := []*ast.File{extra}
	defer func() { c.Release(files...) }()
	if err != nil {
		return fmt.Errorf("srccheck: parse %s: %w", filename, err)
	}
	names, err := c.packageFiles(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	for _, name := range names {
		f, err := parser.ParseFile(c.Fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		files = append(files, f)
		if err != nil {
			return fmt.Errorf("srccheck: parsing existing %s: %w", name, err)
		}
		if f.Name.Name != extra.Name.Name {
			return fmt.Errorf("srccheck: package mismatch: %s declares %q, new file declares %q", name, f.Name.Name, extra.Name.Name)
		}
	}
	_, err = c.check(extra.Name.Name, files, nil)
	return err
}

// packageFiles lists the files go build would compile for the package in
// dir: the scan is go/build's, through the universe's context, so
// //go:build lines and _GOOS/_GOARCH file-name suffixes apply and test
// files stay out. Unlike the universe's scans it is not memoized, since a
// user's directory may change between checks. A directory without such
// files gives none and no error.
func (c *Checker) packageFiles(dir string) ([]string, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("srccheck: %w", err)
	}
	bp, err := c.u.ctxt.ImportDir(dir, 0)
	if noGo := (*build.NoGoError)(nil); errors.As(err, &noGo) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("srccheck: %w", err)
	}
	return append(bp.GoFiles, bp.CgoFiles...), nil
}

// PackageNameOf reports the package name declared by the Go files go
// build would compile in dir, or "" when the directory has none or they
// disagree.
func PackageNameOf(dir string) string {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return ""
	}
	return bp.Name
}

// CheckSource parses and type-checks a single in-memory Go file named
// filename containing src. It returns the parsed file, its package, and
// the type info. The file's line table lives in the shared FileSet until
// the caller passes the file to Release, and the Info is the caller's
// until it passes it to Recycle; on error CheckSource releases and
// recycles them itself and returns only the error.
func (c *Checker) CheckSource(filename, src string) (*ast.File, *types.Package, *types.Info, error) {
	info := infoPool.Get().(*types.Info)
	f, pkg, err := c.checkSource(filename, src, info)
	if err != nil {
		c.Recycle(info)
		return nil, nil, nil, err
	}
	return f, pkg, info, nil
}

// VerifySource is CheckSource for a caller that only needs the verdict:
// it type-checks the file without recording type info, which the checker
// would otherwise fill for every expression and identifier, and releases
// the file itself before it returns. Errors are the ones CheckSource
// reports, file:line:col positions included.
func (c *Checker) VerifySource(filename, src string) error {
	f, _, err := c.checkSource(filename, src, nil)
	c.Release(f)
	return err
}

// FormatFile parses src, a complete Go file named filename, into the
// shared FileSet, sorts its imports and prints it as go/format's Source
// would, byte for byte: same parser mode, same ast.SortImports, same
// printer configuration. It returns the parsed file, whose import specs
// SortImports has reordered and deduplicated in place, and the printed
// text, sized exactly to its length. Passing the file to VerifyFile
// type-checks that text without parsing it again. The file's line table
// lives in the shared FileSet until the caller passes it to Release; on
// error FormatFile releases it itself and returns only the error.
//
// format.Node over the parsed file would print the same bytes, but it
// takes every grouped import block for unsorted and so prints and parses
// the file a second time before it sorts a copy. This file is the
// caller's, so it is sorted in place.
func (c *Checker) FormatFile(filename string, src []byte) (*ast.File, string, error) {
	f, err := parser.ParseFile(c.Fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		c.Release(f)
		return nil, "", fmt.Errorf("srccheck: parse: %w", err)
	}
	ast.SortImports(c.Fset, f)
	buf := printBufs.Get().(*bytes.Buffer)
	defer putPrintBuf(buf)
	if err := gofmtConfig.Fprint(buf, c.Fset, f); err != nil {
		c.Release(f)
		return nil, "", fmt.Errorf("srccheck: print: %w", err)
	}
	return f, buf.String(), nil
}

// gofmtConfig is go/format's printer configuration, which gofmt shares:
// tabs for indentation, spaces for alignment, tab width 8, and go/printer's
// normalizeNumbers mode bit (1<<30), which go/printer reserves for
// go/format and gofmt and which canonicalizes number literal prefixes and
// exponents.
var gofmtConfig = printer.Config{Mode: printer.UseSpaces | printer.TabIndent | 1<<30, Tabwidth: 8}

// printBufs holds FormatFile's output buffers between calls; the text
// leaves in a string of its own, so a buffer returns as soon as FormatFile
// does. A buffer grown past 64 KiB is left to the garbage collector, so a
// rare large file does not keep its buffer pooled.
var printBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putPrintBuf(buf *bytes.Buffer) {
	if buf.Cap() > 64<<10 {
		return
	}
	buf.Reset()
	printBufs.Put(buf)
}

// VerifyFile is VerifySource for a file already parsed into the shared
// FileSet, such as one FormatFile returned: it type-checks f as a package
// of its own without recording type info. The file stays the caller's to
// Release. Error positions are those of the text f was parsed from.
func (c *Checker) VerifyFile(f *ast.File) error {
	_, err := c.check(f.Name.Name, []*ast.File{f}, nil)
	return err
}

// checkSource parses and checks one in-memory file, recording into info
// when it is non-nil. On error the file is already released.
func (c *Checker) checkSource(filename, src string, info *types.Info) (*ast.File, *types.Package, error) {
	f, err := parser.ParseFile(c.Fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		c.Release(f)
		return nil, nil, fmt.Errorf("srccheck: parse: %w", err)
	}
	pkg, err := c.check(f.Name.Name, []*ast.File{f}, info)
	if err != nil {
		c.Release(f)
		return nil, nil, err
	}
	return f, pkg, nil
}

// Release removes each file's line table from the shared FileSet. Call it
// once nothing resolves the file's positions any more: afterwards they
// print as "-". Checks render their error messages before returning, so
// an error outlives the release of the file it names. Releasing nil or an
// already released file is a no-op; universe files are never passed here.
func (c *Checker) Release(files ...*ast.File) {
	for _, f := range files {
		if f == nil {
			continue
		}
		if tf := c.Fset.File(f.FileStart); tf != nil {
			c.Fset.RemoveFile(tf)
		}
	}
}

// infoPool holds emptied types.Info values between checks. clear keeps a
// map's buckets, so a check that draws a recycled Info records into maps
// already sized for an earlier file instead of regrowing four maps from
// empty. A pool rather than an Info per Checker or worker: the garbage
// collector empties it, so an idle process keeps no Info sized for the
// largest file it ever checked.
var infoPool = sync.Pool{New: func() any { return newInfo() }}

// Recycle empties the maps of an Info that CheckSource or CheckDir
// returned and hands it to a later check. Call it exactly once, after
// nothing reads the Info any more: a second call would give one Info to
// two checks. The types objects the Info referred to are not recycled
// and stay valid. Recycling nil is a no-op.
func (c *Checker) Recycle(info *types.Info) {
	if info == nil {
		return
	}
	clear(info.Types)
	clear(info.Defs)
	clear(info.Uses)
	clear(info.Selections)
	infoPool.Put(info)
}

// check type-checks files as package name against the universe, joining
// every type error into one. The returned error's message is rendered
// here, while the files' positions still resolve.
func (c *Checker) check(name string, files []*ast.File, info *types.Info) (*types.Package, error) {
	var errs []error
	conf := types.Config{
		Importer: c.importer(),
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, err := conf.Check(name, c.Fset, files, info)
	if len(errs) == 0 && err != nil {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("srccheck: type errors: %w", errors.Join(errs...))
	}
	return pkg, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}
