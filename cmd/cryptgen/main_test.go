package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping subprocess CLI test in -short mode")
	}
	cmd := exec.Command("go", append([]string{"run", "."}, args...)...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestList(t *testing.T) {
	out, err := runCLI(t, "-list")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	// The list is the served catalogue: Table 1's eleven use cases and
	// the two extensions, one row each.
	if rows := strings.Split(strings.TrimSpace(out), "\n"); len(rows) != 13 {
		t.Errorf("list has %d rows, want 13:\n%s", len(rows), out)
	}
	for _, want := range []string{"PBE on Files", "Hashing of Strings", "Message Authentication (HMAC)", "Password-Sealed Key Storage"} {
		if !strings.Contains(out, want) {
			t.Errorf("list misses %q:\n%s", want, out)
		}
	}
}

func TestGenerateUseCaseToFile(t *testing.T) {
	outFile := filepath.Join(t.TempDir(), "gen.go")
	out, err := runCLI(t, "-usecase", "11", "-o", outFile)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `gca.NewMessageDigest("SHA-256")`) {
		t.Errorf("generated file content:\n%s", data)
	}
}

func TestGenerateWithReport(t *testing.T) {
	out, err := runCLI(t, "-usecase", "10", "-report")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "path=[p2]") || !strings.Contains(out, "path=[p1]") {
		t.Errorf("report missing path decisions:\n%s", out)
	}
}

func TestMissingArgumentsFail(t *testing.T) {
	out, err := runCLI(t)
	if err == nil {
		t.Fatalf("no-arg invocation should fail:\n%s", out)
	}
}
