package gen

import (
	"fmt"
	"sync"
	"testing"

	"cognicryptgen/rules"
	"cognicryptgen/templates"
)

// TestConcurrentGeneration is the concurrency contract of the package,
// enforced under the race detector: one Generator and its WithOptions
// derivative are safe for any number of concurrent callers. It fans 16
// goroutines over all 13 templates (the 11 Table 1 use cases plus the two
// §7 extensions), every goroutine generating through the same Generator
// with verification off and through the same verifying derivative, while
// the pooled splice and print buffers and type infos pass between them.
// Every output must hash to the bytes TestPipelineGolden pins for its
// template and verify setting.
func TestConcurrentGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent full-corpus generation is expensive; skipped in -short")
	}
	rs := rules.MustLoad()
	cache := NewPathCache()
	golden := pipelineGolden(t)

	cases := templates.All()
	srcs := make(map[string]string, len(cases))
	for _, uc := range cases {
		src, err := templates.Source(uc)
		if err != nil {
			t.Fatal(err)
		}
		srcs[uc.File] = src
	}

	plain, err := New(rs, "", Options{Paths: cache})
	if err != nil {
		t.Fatal(err)
	}
	verified := plain.WithOptions(Options{Verify: true, Paths: cache})

	const goroutines = 16
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half the goroutines generate each template verified first.
			order := []bool{false, true}
			if i%2 == 1 {
				order = []bool{true, false}
			}
			for _, uc := range cases {
				for _, verify := range order {
					g := plain
					if verify {
						g = verified
					}
					res, err := g.GenerateFile(uc.File, srcs[uc.File])
					if err != nil {
						errs[i] = err
						return
					}
					key := fmt.Sprintf("%s|pkg=|verify=%t|as-is", uc.File, verify)
					if outputHash(res.Output) != golden[key] {
						errs[i] = fmt.Errorf("%s: output differs from the golden hash", key)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	if cache.Len() == 0 {
		t.Fatal("shared path cache was never populated")
	}
}

// TestPathCacheMatchesDirectEnumeration pins the memoized enumeration to
// the direct DFA enumeration for every rule in the embedded set.
func TestPathCacheMatchesDirectEnumeration(t *testing.T) {
	rs := rules.MustLoad()
	cache := NewPathCache()
	for _, r := range rs.Rules() {
		direct := r.DFA.AcceptingPaths(512)
		cached := cache.Paths(r, 512)
		again := cache.Paths(r, 512)
		if len(cached) != len(direct) {
			t.Fatalf("%s: cache returned %d paths, direct enumeration %d", r.SpecType(), len(cached), len(direct))
		}
		for i := range direct {
			if len(direct[i]) != len(cached[i]) {
				t.Fatalf("%s: path %d differs", r.SpecType(), i)
			}
			for j := range direct[i] {
				if direct[i][j] != cached[i][j] {
					t.Fatalf("%s: path %d label %d differs", r.SpecType(), i, j)
				}
			}
		}
		if len(again) != len(cached) {
			t.Fatalf("%s: second lookup changed the enumeration", r.SpecType())
		}
	}
	// Entries are keyed by rule pointer: one per rule.
	if cache.Len() != rs.Len() {
		t.Fatalf("cache has %d entries, want one per rule (%d)", cache.Len(), rs.Len())
	}
}
