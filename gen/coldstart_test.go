package gen

import (
	"os"
	"os/exec"
	"runtime"
	"testing"
	"time"

	"cognicryptgen/rules"
)

// coldStartChildEnv marks the re-executed test binary that takes the
// cold-start measurement.
const coldStartChildEnv = "GEN_COLD_START_CHILD"

// TestSecondGeneratorReusesUniverse is the cold-start gate. The first New
// in a process type-checks gca and its standard-library API into
// srccheck's shared universe; every later New over the same module must
// only look those packages up. The gate fails if the mean of three later
// constructions costs 10% or more of the first, and, deterministically,
// if a later Generator does not hold the first one's FileSet and gca
// package.
//
// Other tests in this binary warm the universe, so the measurement runs
// in a child process that executes only this test: its first New is the
// process's first.
func TestSecondGeneratorReusesUniverse(t *testing.T) {
	if os.Getenv(coldStartChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSecondGeneratorReusesUniverse$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), coldStartChildEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("cold-start child: %v\n%s", err, out)
		}
		t.Logf("cold-start child:\n%s", out)
		return
	}

	rs := rules.MustLoad()
	start := time.Now()
	first, err := New(rs, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	firstDur := time.Since(start)

	// The first construction leaves a large heap behind; collect it now
	// so a GC cycle does not land inside the timed constructions below.
	runtime.GC()
	const later = 3
	start = time.Now()
	gens := make([]*Generator, later)
	for i := range gens {
		if gens[i], err = New(rs, "", Options{}); err != nil {
			t.Fatal(err)
		}
	}
	laterMean := time.Since(start) / later

	for i, g := range gens {
		if g.checker.Fset != first.checker.Fset {
			t.Errorf("Generator %d has its own FileSet: the type-check universe is not shared", i+2)
		}
		if g.api.pkg != first.api.pkg {
			t.Errorf("Generator %d type-checked its own gca package: the type-check universe is not shared", i+2)
		}
	}
	ratio := float64(laterMean) / float64(firstDur)
	t.Logf("first New %v, mean of %d later %v, ratio %.4f", firstDur, later, laterMean, ratio)
	if ratio >= 0.10 {
		t.Errorf("later Generator construction %v is >= 10%% of the first %v: the shared type-check universe is not being reused", laterMean, firstDur)
	}
}
