package gen

import (
	"fmt"
	"go/token"
	"sync"
	"testing"

	"cognicryptgen/analysis"
	"cognicryptgen/rules"
	"cognicryptgen/templates"
)

// TestFileSetReturnsToBaseline: every file a generation, a verification or
// an analysis parses leaves the shared FileSet once its check is done, on
// the error paths too, so a long-running daemon's FileSet (and with it its
// resident heap) stays the size of the type-check universe however many
// requests it serves. Four goroutines share the FileSet; run under -race
// (scripts/verify.sh does).
func TestFileSetReturnsToBaseline(t *testing.T) {
	rs := rules.MustLoad()
	paths := NewPathCache()
	cases := templates.All()
	srcs := make([]string, len(cases))
	outs := make([]string, len(cases))

	// Warm-up: one verified generation and one analysis per template
	// builds every universe package these calls import, so the files
	// counted below are per-call files only.
	warm, err := New(rs, "", Options{Verify: true, Paths: paths})
	if err != nil {
		t.Fatal(err)
	}
	an, err := analysis.New(rs, "", analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, uc := range cases {
		if srcs[i], err = templates.Source(uc); err != nil {
			t.Fatal(err)
		}
		res, err := warm.GenerateFile(uc.File, srcs[i])
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = res.Output
		if _, err := an.AnalyzeSource(uc.File, outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	fset := warm.checker.Fset
	base := countFiles(fset)

	// Goroutine w makes every goroutines-th call of each kind:
	// never-seen-body generations alternating verify on and off, analyses
	// of generated code, and templates that fail to parse or to type-check.
	const goroutines, generations, analyses, broken = 4, 200, 50, 50
	churn := func(w int) error {
		verified, err := New(rs, "", Options{Verify: true, Paths: paths})
		if err != nil {
			return err
		}
		plain, err := New(rs, "", Options{Paths: paths})
		if err != nil {
			return err
		}
		an, err := analysis.New(rs, "", analysis.Options{})
		if err != nil {
			return err
		}
		for i := w; i < generations; i += goroutines {
			g := plain
			if i%2 == 0 {
				g = verified
			}
			k := i % len(cases)
			if _, err := g.GenerateFile(cases[k].File, fmt.Sprintf("%s\n// body %d\n", srcs[k], i)); err != nil {
				return err
			}
		}
		for i := w; i < analyses; i += goroutines {
			k := i % len(cases)
			if _, err := an.AnalyzeSource(cases[k].File, outs[k]); err != nil {
				return err
			}
		}
		for i := w; i < broken; i += goroutines {
			src := fmt.Sprintf("package broken\n\nfunc Broken%d() {", i) // syntax error
			if i%2 == 0 {
				src = fmt.Sprintf("package broken\n\nfunc Broken%d() { undefinedSymbol() }\n", i) // type error
			}
			if _, err := plain.GenerateFile("broken.go", src); err == nil {
				return fmt.Errorf("broken template %d generated", i)
			}
		}
		return nil
	}
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = churn(w)
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", w, err)
		}
	}
	if got := countFiles(fset); got != base {
		t.Fatalf("FileSet holds %d files after the calls, %d before: per-call files were not released", got, base)
	}
}

func countFiles(fset *token.FileSet) int {
	n := 0
	fset.Iterate(func(*token.File) bool { n++; return true })
	return n
}
