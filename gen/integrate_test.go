package gen

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cognicryptgen/templates"
)

func TestGenerateIntoExistingPackage(t *testing.T) {
	g := sharedGenerator(t)
	dir := t.TempDir()
	existing := `package myapp

// AppVersion is pre-existing project code the generated file must coexist
// with.
const AppVersion = "1.0"
`
	if err := os.WriteFile(filepath.Join(dir, "app.go"), []byte(existing), 0o644); err != nil {
		t.Fatal(err)
	}
	uc, _ := templates.ByID(11)
	src, _ := templates.Source(uc)
	path, res, err := g.GenerateInto(dir, uc.File, src)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "hashing_cryptgen.go" {
		t.Errorf("output path: %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "package myapp") {
		t.Errorf("generated file must adopt the target package:\n%s", data)
	}
	if res.Report == nil {
		t.Error("report missing")
	}
}

func TestGenerateIntoEmptyDirectory(t *testing.T) {
	g := sharedGenerator(t)
	dir := filepath.Join(t.TempDir(), "crypto-utils")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	uc, _ := templates.ByID(11)
	src, _ := templates.Source(uc)
	path, _, err := g.GenerateInto(dir, uc.File, src)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if !strings.Contains(string(data), "package cryptoutils") {
		t.Errorf("package name not derived from directory:\n%s", data)
	}
}

func TestGenerateIntoDetectsConflicts(t *testing.T) {
	g := sharedGenerator(t)
	dir := t.TempDir()
	// The template declares StringHasher; a pre-existing conflicting
	// declaration must be caught by joint verification, not at build time.
	conflicting := `package myapp

type StringHasher struct{ Field int }
`
	if err := os.WriteFile(filepath.Join(dir, "conflict.go"), []byte(conflicting), 0o644); err != nil {
		t.Fatal(err)
	}
	uc, _ := templates.ByID(11)
	src, _ := templates.Source(uc)
	if _, _, err := g.GenerateInto(dir, uc.File, src); err == nil {
		t.Fatal("conflicting declaration not detected")
	} else if !strings.Contains(err.Error(), "conflicts with package") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Nothing may have been written.
	if _, err := os.Stat(filepath.Join(dir, "hashing_cryptgen.go")); !os.IsNotExist(err) {
		t.Error("output written despite conflict")
	}
}

func TestGenerateIntoMissingDirectory(t *testing.T) {
	g := sharedGenerator(t)
	uc, _ := templates.ByID(11)
	src, _ := templates.Source(uc)
	if _, _, err := g.GenerateInto(filepath.Join(t.TempDir(), "nope"), uc.File, src); err == nil {
		t.Fatal("missing directory accepted")
	}
}

func TestSanitizePackageName(t *testing.T) {
	cases := map[string]string{
		"crypto-utils": "cryptoutils",
		"My.App":       "myapp",
		"123abc":       "abc",
		"---":          "generated",
	}
	for in, want := range cases {
		if got := sanitizePackageName(in); got != want {
			t.Errorf("sanitizePackageName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestGenerateIntoConcurrentWithGenerateFile: GenerateInto derives a
// Generator for its target package rather than overriding the receiver's
// options, so generations running meanwhile on the same Generator keep
// its package and verification. Each GenerateFile output must hash to
// TestPipelineGolden's bytes, and each GenerateInto output must carry its
// own directory's package. Run under -race by scripts/verify.sh.
func TestGenerateIntoConcurrentWithGenerateFile(t *testing.T) {
	g := sharedGenerator(t) // Verify: true
	uc, err := templates.ByID(11)
	if err != nil {
		t.Fatal(err)
	}
	src, err := templates.Source(uc)
	if err != nil {
		t.Fatal(err)
	}
	want := pipelineGolden(t)[uc.File+"|pkg=|verify=true|as-is"]
	if want == "" {
		t.Fatal("no golden hash for the template")
	}

	const rounds = 4
	errs := make(chan error, 2*rounds)
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("target%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			path, _, err := g.GenerateInto(dir, uc.File, src)
			if err != nil {
				errs <- err
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				errs <- err
				return
			}
			if pkg := "package " + filepath.Base(dir); !strings.Contains(string(data), pkg) {
				errs <- fmt.Errorf("%s: output lacks %q", path, pkg)
			}
		}()
		go func() {
			defer wg.Done()
			res, err := g.GenerateFile(uc.File, src)
			if err != nil {
				errs <- err
				return
			}
			if outputHash(res.Output) != want {
				errs <- fmt.Errorf("GenerateFile output beside GenerateInto differs from the golden hash:\n%s", res.Output)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
