package srccheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cognicryptgen/templates"
)

func TestModuleRootFromSubdir(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(wd, root) {
		t.Errorf("root %q not a prefix of wd %q", root, wd)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("no go.mod at reported root: %v", err)
	}
}

func TestModuleRootNotFound(t *testing.T) {
	if _, err := ModuleRoot(t.TempDir()); err == nil {
		t.Fatal("expected failure outside the module")
	}
}

func TestImportModulePackage(t *testing.T) {
	c, err := NewChecker("")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := c.ImportPackage(ModulePath + "/gca")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Name() != "gca" {
		t.Errorf("package name %q", pkg.Name())
	}
	if pkg.Scope().Lookup("Cipher") == nil {
		t.Error("Cipher not exported")
	}
	// Cached: second import returns the same object.
	pkg2, err := c.ImportPackage(ModulePath + "/gca")
	if err != nil || pkg2 != pkg {
		t.Error("import not cached")
	}
}

func TestImportStdlib(t *testing.T) {
	c, err := NewChecker("")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := c.ImportPackage("crypto/sha256")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Scope().Lookup("New") == nil {
		t.Error("sha256.New missing")
	}
}

func TestCheckSourceAcceptsValid(t *testing.T) {
	c, _ := NewChecker("")
	_, pkg, info, err := c.CheckSource("ok.go", `package x

import "cognicryptgen/gca"

func f() error {
	r, err := gca.NewSecureRandom()
	if err != nil {
		return err
	}
	return r.NextBytes(make([]byte, 8))
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if pkg == nil || info == nil {
		t.Fatal("missing results")
	}
}

func TestCheckSourceRejectsTypeErrors(t *testing.T) {
	c, _ := NewChecker("")
	_, _, _, err := c.CheckSource("bad.go", `package x

func f() int { return "not an int" }
`)
	if err == nil || !strings.Contains(err.Error(), "type errors") {
		t.Fatalf("got %v", err)
	}
}

func TestCheckSourceRejectsSyntaxErrors(t *testing.T) {
	c, _ := NewChecker("")
	_, _, _, err := c.CheckSource("bad.go", "package x\nfunc {")
	if err == nil || !strings.Contains(err.Error(), "parse") {
		t.Fatalf("got %v", err)
	}
}

func TestImportUnknownModulePackage(t *testing.T) {
	c, _ := NewChecker("")
	if _, err := c.ImportPackage(ModulePath + "/doesnotexist"); err == nil {
		t.Fatal("unknown module package imported")
	}
}

// TestChecksReleaseFiles: each Check method and FormatFile leave nothing
// in the shared FileSet when they fail, CheckPackageWith and VerifySource
// release every file they parsed even when they succeed, and Release drops
// what CheckSource, CheckDir and FormatFile return, whether VerifyFile then
// passes it or not. A released file's error message still names its line.
func TestChecksReleaseFiles(t *testing.T) {
	c, err := NewChecker("")
	if err != nil {
		t.Fatal(err)
	}
	const ok = "package p\n\nimport \"cognicryptgen/gca\"\n\nvar _ = gca.NewSecureRandom\n"
	if _, _, _, err := c.CheckSource("warm.go", ok); err != nil {
		t.Fatal(err)
	}
	base := countFiles(c)

	good := t.TempDir()
	if err := os.WriteFile(filepath.Join(good, "a.go"), []byte(ok), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "a.go"), []byte("package p\n\nvar x int = \"s\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	unparsable := t.TempDir()
	for name, src := range map[string]string{"a.go": ok, "b.go": "package p\nfunc {"} {
		if err := os.WriteFile(filepath.Join(unparsable, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		name    string
		wantErr bool
		check   func() error
	}{
		{"source syntax error", true, func() error { _, _, _, err := c.CheckSource("s.go", "package p\nfunc {"); return err }},
		{"source type error", true, func() error {
			_, _, _, err := c.CheckSource("t.go", "package p\n\nvar x int = \"s\"\n")
			if err != nil && !strings.Contains(err.Error(), "t.go:3:13") {
				t.Errorf("type error %q does not name t.go:3:13", err)
			}
			return err
		}},
		{"verify syntax error", true, func() error {
			err := c.VerifySource("generated_s.go", "package p\nfunc {")
			if err != nil && !strings.Contains(err.Error(), "parse") {
				t.Errorf("syntax error %q is not reported as a parse error", err)
			}
			return err
		}},
		{"verify type error", true, func() error {
			err := c.VerifySource("generated_x.go", "package p\n\nvar x int = \"s\"\n")
			if err != nil && !strings.Contains(err.Error(), "generated_x.go:3:13") {
				t.Errorf("type error %q does not name generated_x.go:3:13", err)
			}
			return err
		}},
		{"verify ok", false, func() error { return c.VerifySource("generated_o.go", ok) }},
		{"dir type error", true, func() error { _, _, _, err := c.CheckDir(bad); return err }},
		{"dir syntax error", true, func() error { _, _, _, err := c.CheckDir(unparsable); return err }},
		{"package-with conflict", true, func() error { return c.CheckPackageWith(good, "n.go", "package q\n") }},
		{"package-with type error", true, func() error { return c.CheckPackageWith(good, "n.go", "package p\n\nvar y int = \"s\"\n") }},
		{"package-with syntax error", true, func() error { return c.CheckPackageWith(good, "n.go", "package p\nfunc {") }},
		{"package-with ok", false, func() error { return c.CheckPackageWith(good, "n.go", "package p\n\nvar y = 1\n") }},
		{"source ok, released", false, func() error {
			f, _, _, err := c.CheckSource("o.go", ok)
			c.Release(f)
			c.Release(f) // releasing twice is a no-op
			return err
		}},
		{"dir ok, released", false, func() error {
			files, _, _, err := c.CheckDir(good)
			c.Release(files...)
			return err
		}},
		{"format syntax error", true, func() error {
			_, _, err := c.FormatFile("generated_s.go", []byte("package p\nfunc {"))
			if err != nil && !strings.Contains(err.Error(), "parse") {
				t.Errorf("syntax error %q is not reported as a parse error", err)
			}
			return err
		}},
		{"format ok, type error, released", true, func() error {
			f, _, err := c.FormatFile("generated_t.go", []byte("package p\n\nvar x int = \"s\"\n"))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Release(f)
			err = c.VerifyFile(f)
			if err != nil && !strings.Contains(err.Error(), "generated_t.go:3:13") {
				t.Errorf("type error %q does not name generated_t.go:3:13", err)
			}
			return err
		}},
		{"format ok, verified, released", false, func() error {
			f, _, err := c.FormatFile("generated_o.go", []byte(ok))
			if err != nil {
				return err
			}
			defer c.Release(f)
			return c.VerifyFile(f)
		}},
	} {
		if err := tc.check(); (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
		if got := countFiles(c); got != base {
			t.Errorf("%s: FileSet holds %d files, %d before", tc.name, got, base)
			base = got
		}
	}
}

func countFiles(c *Checker) int {
	n := 0
	c.Fset.Iterate(func(*token.File) bool { n++; return true })
	return n
}

// TestCheckerBuildConstraints: CheckDir, CheckPackageWith and
// PackageNameOf see the files go build would compile, like the universe
// does for imported packages. A //go:build ignore generator (package main,
// sorting first) and a file for another GOOS each redeclare the package's
// symbol, so checking them along with the rest fails.
func TestCheckerBuildConstraints(t *testing.T) {
	c, err := NewChecker("")
	if err != nil {
		t.Fatal(err)
	}
	otherOS := "windows"
	if runtime.GOOS == otherOS {
		otherOS = "linux"
	}
	dir := t.TempDir()
	for name, src := range map[string]string{
		"gen.go":                    "//go:build ignore\n\npackage main\n\nconst Name = \"ignored\"\n",
		"tagged.go":                 "package tagged\n\nconst Name = \"tagged\"\n",
		"tagged_" + otherOS + ".go": "package tagged\n\nconst Name = \"" + otherOS + "\"\n",
		"tagged_test.go":            "package tagged\n\nconst Name = \"test\"\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files, pkg, _, err := c.CheckDir(dir)
	if err != nil {
		t.Fatalf("CheckDir: %v", err)
	}
	defer c.Release(files...)
	if len(files) != 1 {
		t.Errorf("CheckDir checked %d files, want tagged.go alone", len(files))
	}
	if got := pkg.Scope().Lookup("Name").(*types.Const).Val().String(); got != `"tagged"` {
		t.Errorf("Name = %s, want \"tagged\"", got)
	}
	if err := c.CheckPackageWith(dir, "b.go", "package tagged\n\nvar B = Name\n"); err != nil {
		t.Errorf("CheckPackageWith: %v", err)
	}
	if got := PackageNameOf(dir); got != "tagged" {
		t.Errorf("PackageNameOf = %q, want tagged", got)
	}
}

// infoCounts is the number of entries in each map of info, in the order
// Types, Defs, Uses, Selections.
func infoCounts(info *types.Info) [4]int {
	return [4]int{len(info.Types), len(info.Defs), len(info.Uses), len(info.Selections)}
}

// freshCounts type-checks src into an Info of its own, never pooled, and
// returns its entry counts.
func freshCounts(t *testing.T, c *Checker, name, src string) [4]int {
	t.Helper()
	info := newInfo()
	f, _, err := c.checkSource(name, src, info)
	if err != nil {
		t.Fatal(err)
	}
	c.Release(f)
	return infoCounts(info)
}

// TestRecycledInfoIsCleared: Recycle empties every map of the Info it
// takes back, and a check that follows records exactly what a check into
// a new Info records, with no key left from the recycled file.
func TestRecycledInfoIsCleared(t *testing.T) {
	c, err := NewChecker("")
	if err != nil {
		t.Fatal(err)
	}
	const srcA = `package a

import "cognicryptgen/gca"

func f() ([]byte, error) {
	r, err := gca.NewSecureRandom()
	if err != nil {
		return nil, err
	}
	b := make([]byte, 16)
	return b, r.NextBytes(b)
}
`
	const srcB = "package b\n\nimport \"strings\"\n\nvar s = strings.ToUpper(\"x\")\n"
	want := freshCounts(t, c, "b.go", srcB)

	fileA, _, infoA, err := c.CheckSource("a.go", srcA)
	if err != nil {
		t.Fatal(err)
	}
	nodesA := map[ast.Node]bool{}
	ast.Inspect(fileA, func(n ast.Node) bool {
		if n != nil {
			nodesA[n] = true
		}
		return true
	})
	c.Release(fileA)
	if got := infoCounts(infoA); got[0] == 0 || got[1] == 0 || got[2] == 0 || got[3] == 0 {
		t.Fatalf("file A recorded %v entries, want some in every map", got)
	}
	c.Recycle(infoA)
	if got := infoCounts(infoA); got != [4]int{} {
		t.Fatalf("recycled Info holds %v entries, want none", got)
	}

	fileB, _, infoB, err := c.CheckSource("b.go", srcB)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(fileB)
	defer c.Recycle(infoB)
	if infoB == infoA {
		t.Log("file B's check drew file A's recycled Info")
	}
	if got := infoCounts(infoB); got != want {
		t.Errorf("file B recorded %v entries (Types, Defs, Uses, Selections), a new Info records %v", got, want)
	}
	for k := range infoB.Types {
		if nodesA[k] {
			t.Errorf("Types keeps %T of file A", k)
		}
	}
	for k := range infoB.Defs {
		if nodesA[k] {
			t.Errorf("Defs keeps %s of file A", k.Name)
		}
	}
	for k := range infoB.Uses {
		if nodesA[k] {
			t.Errorf("Uses keeps %s of file A", k.Name)
		}
	}
	for k := range infoB.Selections {
		if nodesA[k] {
			t.Errorf("Selections keeps %s of file A", k.Sel.Name)
		}
	}
}

// TestRecycleConcurrent: eight goroutines check and recycle the 13
// templates at once, so pooled Infos pass between goroutines; each check
// records exactly what a check into a new Info records. Run under -race
// (scripts/verify.sh does).
func TestRecycleConcurrent(t *testing.T) {
	c, err := NewChecker("")
	if err != nil {
		t.Fatal(err)
	}
	srcs, err := templates.Sources()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][4]int{}
	for name, src := range srcs {
		want[name] = freshCounts(t, c, name, src)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				for name, src := range srcs {
					f, _, info, err := c.CheckSource(name, src)
					if err != nil {
						t.Error(err)
						return
					}
					if got := infoCounts(info); got != want[name] {
						t.Errorf("%s: recorded %v entries, a new Info records %v", name, got, want[name])
					}
					c.Release(f)
					c.Recycle(info)
				}
			}
		}()
	}
	wg.Wait()
}
