package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cognicryptgen/crysl"
	"cognicryptgen/gen"
	"cognicryptgen/internal/faultinject"
	"cognicryptgen/rules"
)

// Snapshot is one immutable compiled-rule-set generation. All requests
// running against the same Snapshot share its rule set and path cache;
// Reload produces a new Snapshot without disturbing in-flight requests.
type Snapshot struct {
	// Rules is the compiled rule set. Immutable; safe for any number of
	// concurrent readers.
	Rules *crysl.RuleSet
	// Fingerprint is Rules.Fingerprint(), computed once at load.
	Fingerprint string
	// Paths memoizes per-rule accepting-path enumeration, shared by every
	// Generator built over this snapshot. The registry keeps ONE cache
	// across reloads (DFA-fingerprint keying keeps it correct — see the
	// eviction contract on Registry), so unchanged rules keep their warmed
	// paths across /v1/reload.
	Paths *gen.PathCache
	// Plans memoizes whole generations as compiled byte-splice plans,
	// likewise one registry-owned cache shared across reloads and keyed by
	// rule-set fingerprint.
	Plans *gen.PlanCache
	// Version increments on every (re)load, letting workers detect that
	// their cached Generator was built over a stale snapshot.
	Version uint64
}

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
// Eviction contract: the path and plan caches are registry-owned and
// shared across every snapshot the registry ever produces. Fingerprint
// keying makes stale entries harmless (a reloaded rule simply stops
// matching them) but not free — without eviction a reload storm grows
// both caches without bound. After every Reload (successful or not) the
// registry drops each entry whose fingerprint belongs to neither the
// current snapshot nor a candidate that is still mid-build, so the
// resident set is always bounded by the live rule sets.
type Registry struct {
	loader func() (*crysl.RuleSet, error)

	paths *gen.PathCache
	plans *gen.PlanCache

	mu       sync.RWMutex
	snap     *Snapshot
	degraded RegistryHealth

	// buildMu guards building: candidate rule sets that are compiled but
	// not yet swapped in (or abandoned). Their cache entries must survive
	// a concurrent reload's eviction pass.
	buildMu  sync.Mutex
	building map[*crysl.RuleSet]bool
}

// NewRegistry compiles the initial snapshot using loader (nil = the
// embedded gca rule set via rules.LoadFresh), with a default-sized plan
// cache.
func NewRegistry(loader func() (*crysl.RuleSet, error)) (*Registry, error) {
	return NewRegistryWithFallback(loader, nil, 0)
}

// NewRegistryWithFallback is NewRegistry with a boot-only escape hatch:
// when the operator's loader fails at startup and fallback is non-nil, the
// registry boots from the fallback rule set (the last-good rules recovered
// from a warm-restart snapshot) instead of refusing to start. The
// operator's loader stays wired for /v1/reload — a later successful reload
// swaps the real rules in and clears the degraded state — and the boot
// failure is recorded as degraded so /readyz tells the operator their
// configured rules are not the ones serving. maxPlans bounds the plan
// cache (<= 0 = gen.DefaultMaxPlans).
func NewRegistryWithFallback(loader, fallback func() (*crysl.RuleSet, error), maxPlans int) (*Registry, error) {
	if loader == nil {
		loader = rules.LoadFresh
	}
	r := &Registry{
		loader:   loader,
		paths:    gen.NewPathCache(),
		plans:    gen.NewPlanCache(maxPlans),
		building: map[*crysl.RuleSet]bool{},
	}
	if _, err := r.Reload(); err != nil {
		if fallback == nil {
			return nil, err
		}
		r.loader = fallback
		_, ferr := r.Reload()
		r.loader = loader
		if ferr != nil {
			// The fallback could not serve either; the original failure is
			// the actionable one.
			return nil, err
		}
		r.mu.Lock()
		r.degraded = RegistryHealth{
			Degraded:  true,
			LastError: "boot loader failed, serving rule set restored from snapshot: " + err.Error(),
			FailedAt:  time.Now(),
		}
		r.mu.Unlock()
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

// Paths returns the registry-owned path cache.
func (r *Registry) Paths() *gen.PathCache { return r.paths }

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
// Reload ends with the generation-scoped eviction pass described on
// Registry, so rule sets that are no longer loaded stop occupying the
// shared path and plan caches.
func (r *Registry) Reload() (*Snapshot, error) {
	set, fp, err := r.buildCandidate()
	if err != nil {
		r.mu.Lock()
		r.degraded = RegistryHealth{
			Degraded:          true,
			LastError:         err.Error(),
			FailedFingerprint: fp,
			FailedAt:          time.Now(),
		}
		r.mu.Unlock()
		// Drop whatever the failed candidate warmed into the shared caches.
		r.evictStale()
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
		Paths:       r.paths,
		Plans:       r.plans,
		Version:     version,
	}
	r.degraded = RegistryHealth{}
	snap := r.snap
	r.mu.Unlock()
	r.finishBuild(set)
	r.evictStale()
	return snap, nil
}

// buildCandidate compiles and fully warms a candidate rule set against the
// shared caches without touching the registry's snapshot. fp is returned
// even on failure when the candidate got far enough to have one, so the
// degraded state can name the rule set that failed. On success the set is
// left registered as mid-build; the caller must finishBuild it after the
// swap (or after abandoning it).
func (r *Registry) buildCandidate() (set *crysl.RuleSet, fp string, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if set != nil {
				r.finishBuild(set)
			}
			set = nil
			err = fmt.Errorf("service: panic rebuilding rule set: %v", rec)
		}
	}()
	set, err = r.loader()
	if err != nil {
		return nil, "", fmt.Errorf("service: compiling rule set: %w", err)
	}
	// Register before warming: a concurrent reload's eviction pass must
	// not drop this candidate's freshly warmed entries.
	r.buildMu.Lock()
	r.building[set] = true
	r.buildMu.Unlock()
	fp = r.plans.FingerprintFor(set)
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
			r.paths.Paths(rule, gen.DefaultMaxPaths)
		}(i, rule)
	}
	wg.Wait()
	if werr := errors.Join(warmErrs...); werr != nil {
		r.finishBuild(set)
		return nil, fp, fmt.Errorf("service: warming candidate rule set %s: %w", fp, werr)
	}
	if ferr := faultinject.Fire(faultinject.PointReloadSwap); ferr != nil {
		r.finishBuild(set)
		return nil, fp, fmt.Errorf("service: swapping in rule set %s: %w", fp, ferr)
	}
	return set, fp, nil
}

// finishBuild deregisters a candidate once it has been swapped in or
// abandoned.
func (r *Registry) finishBuild(set *crysl.RuleSet) {
	r.buildMu.Lock()
	delete(r.building, set)
	r.buildMu.Unlock()
}

// evictStale drops shared-cache entries whose fingerprint is neither the
// current snapshot's nor a mid-build candidate's.
func (r *Registry) evictStale() {
	r.buildMu.Lock()
	sets := make([]*crysl.RuleSet, 0, len(r.building)+1)
	for s := range r.building {
		sets = append(sets, s)
	}
	r.buildMu.Unlock()
	r.mu.RLock()
	if r.snap != nil {
		sets = append(sets, r.snap.Rules)
	}
	r.mu.RUnlock()
	keepFP := make(map[string]bool, len(sets))
	for _, s := range sets {
		keepFP[r.plans.FingerprintFor(s)] = true
	}
	r.paths.Retain(sets...)
	r.plans.Retain(keepFP)
}
