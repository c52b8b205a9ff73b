package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cognicryptgen/analysis"
	"cognicryptgen/crysl"
	"cognicryptgen/gen"
	"cognicryptgen/internal/faultinject"
	"cognicryptgen/rules"
)

// Snapshot is one immutable compiled-rule-set generation. All requests
// running against the same Snapshot share its rule set, its path cache,
// its one gen.Generator and its one analysis.Analyzer; Reload produces a
// new Snapshot without disturbing in-flight requests, and a superseded
// Snapshot — caches, Generator and Analyzer included — is freed once the
// last request holding it finishes.
type Snapshot struct {
	// Rules is the compiled rule set. Immutable; safe for any number of
	// concurrent readers.
	Rules *crysl.RuleSet
	// Fingerprint is Rules.Fingerprint(), computed once at load.
	Fingerprint string
	// Paths memoizes per-rule accepting-path enumeration, shared by every
	// Generator built over this snapshot. Reload warms a fresh cache for
	// each rule set it loads, so the cache lives exactly as long as the
	// rules it was enumerated from.
	Paths *gen.PathCache
	// Plans memoizes whole generations as compiled byte-splice plans. It
	// is one registry-owned cache shared across reloads and keyed by
	// rule-set fingerprint, so a reload of unchanged rules keeps every
	// plan.
	Plans *gen.PlanCache
	// Version increments on every (re)load; /v1/rules and /v1/reload
	// report it.
	Version uint64

	// generator and analyzer build the snapshot's Generator and Analyzer
	// once, on first use. Both are safe for concurrent use, so every
	// request over the snapshot shares them.
	generator func() (*gen.Generator, error)
	analyzer  func() (*analysis.Analyzer, error)
}

// Generator returns the snapshot's Generator running under opts, with the
// snapshot's path and plan caches wired in. The first call builds the
// Generator (gen.New); later calls derive from it in O(1).
func (s *Snapshot) Generator(opts gen.Options) (*gen.Generator, error) {
	base, err := s.generator()
	if err != nil {
		return nil, err
	}
	opts.Paths, opts.Plans = s.Paths, s.Plans
	return base.WithOptions(opts), nil
}

// Analyzer returns the snapshot's misuse analyzer, built on first use.
func (s *Snapshot) Analyzer() (*analysis.Analyzer, error) { return s.analyzer() }

// RegistryHealth describes the registry's degradation state for /readyz.
type RegistryHealth struct {
	// Degraded is true while the most recent Reload failed: the daemon
	// keeps serving from the last good snapshot, but the operator's new
	// rules are not live.
	Degraded bool
	// LastError is the failed reload's error text.
	LastError string
	// FailedFingerprint identifies the candidate rule set that failed to
	// swap in ("" when the failure happened before a fingerprint existed,
	// e.g. a compile error).
	FailedFingerprint string
	// FailedAt is when the failed reload was attempted.
	FailedAt time.Time
}

// Registry owns the current rule-set snapshot. Load cost (lex, parse,
// semantic checks, NFA construction, determinization, minimization — for
// all fourteen rules) is paid once per process instead of once per
// request, and again only on explicit Reload.
//
// Cache ownership: each Snapshot owns its path cache, so superseded rule
// sets and their paths are freed with the snapshot. The plan cache is
// registry-owned and shared across snapshots; fingerprint keying makes
// stale plans harmless (a reloaded rule set simply stops matching them)
// but not free, so after every successful Reload the registry drops each
// plan whose fingerprint is not the live snapshot's.
type Registry struct {
	loader func() (*crysl.RuleSet, error)
	dir    string // module location for the snapshots' type checks

	plans *gen.PlanCache

	mu       sync.RWMutex
	snap     *Snapshot
	degraded RegistryHealth
}

// NewRegistry compiles the initial snapshot using loader (nil = the
// embedded gca rule set via rules.LoadFresh); plans becomes the registry's
// plan cache (nil = gen.NewPlanCache(0)). The snapshots' Generators and
// Analyzers type-check against the module of the working directory. A
// loader that fails at boot fails NewRegistry: there is no last-good rule
// set to serve yet.
func NewRegistry(loader func() (*crysl.RuleSet, error), plans *gen.PlanCache) (*Registry, error) {
	return newRegistry(loader, plans, "")
}

// newRegistry is NewRegistry over the module located from dir.
func newRegistry(loader func() (*crysl.RuleSet, error), plans *gen.PlanCache, dir string) (*Registry, error) {
	if loader == nil {
		loader = rules.LoadFresh
	}
	if plans == nil {
		plans = gen.NewPlanCache(0)
	}
	r := &Registry{
		loader: loader,
		dir:    dir,
		plans:  plans,
	}
	if _, err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// Snapshot returns the current snapshot. The result must be treated as
// read-only (its fields already are).
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.snap
}

// Plans returns the registry-owned plan cache (for metrics and warming).
func (r *Registry) Plans() *gen.PlanCache { return r.plans }

// Health reports the registry's degradation state.
func (r *Registry) Health() RegistryHealth {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.degraded
}

// Reload is transactional: the candidate rule set is compiled, finger-
// printed, and its path cache fully warmed BEFORE anything is swapped, and
// the swap itself is a single pointer assignment under the lock. Any
// failure along the way — loader error, a panic in a custom loader, a
// warm-up failure, an injected chaos fault — leaves the current snapshot
// untouched: in-flight and future requests keep being served from the last
// good rule set, and the failure is recorded for /readyz (Health) with the
// failed candidate's fingerprint. The registry is never left empty or
// partially swapped. A subsequent successful Reload clears the degraded
// state.
//
// Both halves of the rebuild scale with the hardware: rule compilation
// fans per-file lexing/parsing/automaton construction across GOMAXPROCS
// goroutines inside crysl.LoadFS, and path warm-up enumerates every rule's
// accepting paths concurrently (PathCache is concurrency-safe), so
// /v1/reload latency tracks the slowest single rule rather than the sum.
//
// A successful Reload ends by dropping the plans of every rule set other
// than the live one (see Registry). A failed Reload has nothing shared to
// evict: its candidate's path cache is simply garbage.
func (r *Registry) Reload() (*Snapshot, error) {
	set, paths, fp, err := r.buildCandidate()
	if err != nil {
		r.mu.Lock()
		r.degraded = RegistryHealth{
			Degraded:          true,
			LastError:         err.Error(),
			FailedFingerprint: fp,
			FailedAt:          time.Now(),
		}
		r.mu.Unlock()
		return nil, err
	}
	r.mu.Lock()
	var version uint64 = 1
	if r.snap != nil {
		version = r.snap.Version + 1
	}
	r.snap = &Snapshot{
		Rules:       set,
		Fingerprint: fp,
		Paths:       paths,
		Plans:       r.plans,
		Version:     version,
		generator: sync.OnceValues(func() (*gen.Generator, error) {
			return gen.New(set, r.dir, gen.Options{})
		}),
		analyzer: sync.OnceValues(func() (*analysis.Analyzer, error) {
			return analysis.New(set, r.dir, analysis.Options{})
		}),
	}
	r.degraded = RegistryHealth{}
	snap := r.snap
	r.mu.Unlock()
	// Keep the live fingerprint, read now rather than taken from this
	// candidate: concurrent reloads can swap out of order.
	r.plans.Retain(map[string]bool{r.Snapshot().Fingerprint: true})
	return snap, nil
}

// buildCandidate compiles a candidate rule set and fully warms a fresh path
// cache for it without touching the registry's snapshot. fp is returned
// even on failure when the candidate got far enough to have one, so the
// degraded state can name the rule set that failed.
func (r *Registry) buildCandidate() (set *crysl.RuleSet, paths *gen.PathCache, fp string, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			set, paths = nil, nil
			err = fmt.Errorf("service: panic rebuilding rule set: %v", rec)
		}
	}()
	set, err = r.loader()
	if err != nil {
		return nil, nil, "", fmt.Errorf("service: compiling rule set: %w", err)
	}
	fp = set.Fingerprint()
	paths = gen.NewPathCache()
	// Warm with gen's own default bound: a generator running with default
	// options looks paths up under exactly this key, so the warmed entries
	// cannot silently stop matching if the default ever changes.
	warmErrs := make([]error, len(set.Rules()))
	var wg sync.WaitGroup
	for i, rule := range set.Rules() {
		wg.Add(1)
		go func(i int, rule *crysl.Rule) {
			defer wg.Done()
			// A panic during enumeration must fail the reload, not kill the
			// process: it is recovered here into this rule's warm error.
			defer func() {
				if rec := recover(); rec != nil {
					warmErrs[i] = fmt.Errorf("panic warming %s: %v", rule.SpecType(), rec)
				}
			}()
			if ferr := faultinject.Fire(faultinject.PointPathEnum); ferr != nil {
				warmErrs[i] = fmt.Errorf("warming %s: %w", rule.SpecType(), ferr)
				return
			}
			paths.Paths(rule, gen.DefaultMaxPaths)
		}(i, rule)
	}
	wg.Wait()
	if werr := errors.Join(warmErrs...); werr != nil {
		return nil, nil, fp, fmt.Errorf("service: warming candidate rule set %s: %w", fp, werr)
	}
	if ferr := faultinject.Fire(faultinject.PointReloadSwap); ferr != nil {
		return nil, nil, fp, fmt.Errorf("service: swapping in rule set %s: %w", fp, ferr)
	}
	return set, paths, fp, nil
}
