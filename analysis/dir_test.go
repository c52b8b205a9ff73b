package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// TestAnalyzeDir checks multi-file package analysis: a misuse in one file,
// clean code in another, types resolving across files. The package's files
// leave the shared FileSet once the analysis is done.
func TestAnalyzeDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("weak.go", `package app

import "cognicryptgen/gca"

func weakDigest(data []byte) ([]byte, error) {
	md, err := gca.NewMessageDigest("MD5")
	if err != nil {
		return nil, err
	}
	if err := md.Update(data); err != nil {
		return nil, err
	}
	return md.Digest()
}
`)
	write("clean.go", `package app

import "cognicryptgen/gca"

func cleanDigest(data []byte) ([]byte, error) {
	md, err := gca.NewMessageDigest(preferredAlgorithm)
	if err != nil {
		return nil, err
	}
	if err := md.Update(data); err != nil {
		return nil, err
	}
	return md.Digest()
}
`)
	write("config.go", `package app

const preferredAlgorithm = "SHA-256"
`)
	write("ignored_test.go", `package app

import "testing"

func TestNothing(t *testing.T) {}
`)

	an := sharedAnalyzer(t)
	before := countFiles(an.checker.Fset)
	rep, err := an.AnalyzeDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if after := countFiles(an.checker.Fset); after != before {
		t.Errorf("FileSet holds %d files after AnalyzeDir, %d before", after, before)
	}
	if n := len(rep.Findings); n != 1 {
		t.Fatalf("want exactly the MD5 finding, got %d: %v", n, rep.Findings)
	}
	f := rep.Findings[0]
	if f.Kind != ConstraintError || f.Function != "weakDigest" {
		t.Errorf("finding: %v", f)
	}
	if filepath.Base(f.Pos.Filename) != "weak.go" {
		t.Errorf("finding position: %v", f.Pos)
	}
}

func TestAnalyzeDirRejectsBrokenPackage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte("package app\nfunc x() int { return \"no\" }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sharedAnalyzer(t).AnalyzeDir(dir); err == nil {
		t.Fatal("broken package accepted")
	}
}

func TestAnalyzeDirEmpty(t *testing.T) {
	if _, err := sharedAnalyzer(t).AnalyzeDir(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func countFiles(fset *token.FileSet) int {
	n := 0
	fset.Iterate(func(*token.File) bool { n++; return true })
	return n
}
