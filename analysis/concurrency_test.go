package analysis

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"cognicryptgen/gen"
	"cognicryptgen/rules"
	"cognicryptgen/templates"
)

// TestConcurrentAnalysis is the analyzer's concurrency contract, enforced
// under the race detector: one Analyzer serves any number of goroutines,
// as a daemon's rule-set snapshot shares its one Analyzer across requests.
// Eight goroutines analyse the 13 generated use cases and the Figure 1
// misuse, each starting at a different file, and every report must equal
// the serial run's.
func TestConcurrentAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("generates all 13 templates; skipped in -short")
	}
	a := sharedAnalyzer(t)
	g, err := gen.New(rules.MustLoad(), "", gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	type file struct{ name, src string }
	files := []file{{"figure1.go", figure1}}
	for _, uc := range templates.All() {
		src, err := templates.Source(uc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.GenerateFile(uc.File, src)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, file{uc.File, res.Output})
	}

	render := func(f file) (string, error) {
		rep, err := a.AnalyzeSource(f.name, f.src)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		for _, fd := range rep.Findings {
			fmt.Fprintln(&sb, fd)
		}
		for _, as := range rep.Assumptions {
			fmt.Fprintln(&sb, "assume:", as)
		}
		return sb.String(), nil
	}
	serial := make([]string, len(files))
	for i, f := range files {
		if serial[i], err = render(f); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(serial[0], "RequiredPredicateError") {
		t.Fatalf("serial Figure 1 analysis missed the unrandomized salt:\n%s", serial[0])
	}

	const goroutines = 8
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := range files {
				k := (i + j) % len(files)
				got, err := render(files[k])
				if err != nil {
					errs[i] = err
					return
				}
				if got != serial[k] {
					errs[i] = fmt.Errorf("%s: concurrent report differs from the serial one:\n%s\nwant:\n%s", files[k].name, got, serial[k])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
	}
}
