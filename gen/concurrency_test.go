package gen

import (
	"sync"
	"testing"

	"cognicryptgen/rules"
	"cognicryptgen/templates"
)

// TestConcurrentGeneration is the concurrency contract of the package,
// enforced under the race detector: a compiled rule set and a PathCache are
// safe for any number of concurrent readers, provided each goroutine owns
// its Generator. It fans 16 goroutines over all 13 templates (the 11 Table
// 1 use cases plus the two §7 extensions), every goroutine generating from
// the same shared *crysl.RuleSet and shared *PathCache, and checks that
// every goroutine produces byte-identical output per template.
func TestConcurrentGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent full-corpus generation is expensive; skipped in -short")
	}
	rs := rules.MustLoad()
	cache := NewPathCache()

	cases := templates.All()
	srcs := make(map[string]string, len(cases))
	for _, uc := range cases {
		src, err := templates.Source(uc)
		if err != nil {
			t.Fatal(err)
		}
		srcs[uc.File] = src
	}

	const goroutines = 16
	outputs := make([]map[string]string, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// One Generator per goroutine (the documented contract);
			// rule set and path cache are shared across all of them.
			g, err := New(rs, "", Options{Paths: cache})
			if err != nil {
				errs[i] = err
				return
			}
			out := make(map[string]string, len(cases))
			for _, uc := range cases {
				res, err := g.GenerateFile(uc.File, srcs[uc.File])
				if err != nil {
					errs[i] = err
					return
				}
				out[uc.File] = res.Output
			}
			outputs[i] = out
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i := 1; i < goroutines; i++ {
		for _, uc := range cases {
			if outputs[i][uc.File] != outputs[0][uc.File] {
				t.Errorf("goroutine %d produced different output for %s", i, uc.File)
			}
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
