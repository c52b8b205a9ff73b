package gen

import (
	"sync"

	"cognicryptgen/crysl"
)

// PathCache memoizes per-rule DFA accepting-path enumeration.
//
// Path enumeration (workflow step ③) is a pure function of a rule's
// compiled ORDER automaton and the MaxPaths bound, yet a one-shot Generator
// recomputes it for every invocation of every chain. A long-lived process
// serving many generations over one immutable rule set can share a single
// PathCache across any number of Generators: it is safe for concurrent use,
// and the path slices it returns are shared and must be treated as
// read-only (the generator itself never mutates them — it copies before
// filtering and sorting candidates).
//
// A PathCache belongs to one compiled rule set and is freed with it: the
// service registry builds a fresh cache for every rule set it loads, so an
// entry never outlives the rule it was enumerated from.
//
// The zero value is not usable; call NewPathCache.
type PathCache struct {
	mu sync.RWMutex
	m  map[pathKey][][]string
}

// pathKey identifies one memoized enumeration. Entries are keyed by rule
// pointer, not SPEC name: two same-named rules whose ORDER automata differ
// (rule variants in tests, edited sources compiled side by side) must never
// share paths — a spec-name key would silently serve one variant's
// accepting paths for the other.
type pathKey struct {
	rule     *crysl.Rule
	maxPaths int
}

// NewPathCache returns an empty, concurrency-safe path cache.
func NewPathCache() *PathCache {
	return &PathCache{m: map[pathKey][][]string{}}
}

// Paths returns the accepting paths of the rule's DFA under the maxPaths
// bound, computing and memoizing them on first use. Callers must not
// modify the returned slices.
func (c *PathCache) Paths(rule *crysl.Rule, maxPaths int) [][]string {
	key := pathKey{rule, maxPaths}
	c.mu.RLock()
	paths, ok := c.m[key]
	c.mu.RUnlock()
	if ok {
		return paths
	}
	paths = rule.DFA.AcceptingPaths(maxPaths)
	c.mu.Lock()
	// A concurrent caller may have stored the same enumeration already;
	// last write wins, both values are equivalent.
	c.m[key] = paths
	c.mu.Unlock()
	return paths
}

// Len returns the number of memoized (rule, bound) entries.
func (c *PathCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// acceptingPaths is the generator's single entry point to path
// enumeration: through the shared cache when Options.Paths is set, directly
// off the DFA otherwise. Callers treat the result as read-only.
func (g *Generator) acceptingPaths(rule *crysl.Rule) [][]string {
	if g.opts.Paths != nil {
		return g.opts.Paths.Paths(rule, g.opts.MaxPaths)
	}
	return rule.DFA.AcceptingPaths(g.opts.MaxPaths)
}
