package main

import (
	"os/exec"
	"strings"
	"testing"
)

func TestTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping subprocess CLI test in -short mode")
	}
	cmd := exec.Command("go", "run", ".", "-table", "all", "-runs", "1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{
		"Table 1:",
		"Table 2:",
		"result: all 11 use cases implemented",
		"RQ5 proxy:",
		"SUS: GEN 76.3",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("missing %q in benchtables output", want)
		}
	}
}
