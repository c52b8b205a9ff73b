package gen

import (
	"container/list"
	"sync"
	"sync/atomic"

	"cognicryptgen/crysl"
)

// DefaultMaxPlans bounds a PlanCache's resident plan count when the
// constructor is given no explicit capacity. It is also cryptgend's default
// cache size: the plan cache is the daemon's only generation cache.
const DefaultMaxPlans = 256

// PlanCache memoizes compiled Plans across Generators, keyed by (template
// source hash, rule-set fingerprint, verify). Only generations with the
// default algorithm options use it (no ablation switch, the default path
// bound); any other Generator neither reads nor fills it. It is internally
// synchronized and intended to be shared: the service registry keeps one
// per process so that a template body is compiled to a plan once and then
// served by byte splicing from every worker, and so that a reload of
// unchanged rules (same fingerprint) keeps every plan.
//
// Capacity is a plain LRU bound. Fingerprint keying makes invalidation
// automatic — a reloaded rule set simply stops matching the old entries —
// but entries for unloaded fingerprints do not expire on their own; the
// registry calls Retain with the live fingerprint after each reload to
// drop them. The cache holds fingerprints only, never a rule set.
type PlanCache struct {
	hits   atomic.Int64
	misses atomic.Int64

	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	index map[planKey]*list.Element
	bytes int64
}

type planEntry struct {
	key  planKey
	plan *Plan
}

// NewPlanCache creates a cache bounded to max resident plans (<=0 uses
// DefaultMaxPlans).
func NewPlanCache(max int) *PlanCache {
	if max <= 0 {
		max = DefaultMaxPlans
	}
	return &PlanCache{
		max:   max,
		ll:    list.New(),
		index: make(map[planKey]*list.Element),
	}
}

// FingerprintFor returns set.Fingerprint(), the rule-set half of the plan
// key that Execute takes.
func (c *PlanCache) FingerprintFor(set *crysl.RuleSet) string {
	return set.Fingerprint()
}

// Execute serves one request straight from the cache: on a plan hit it
// splices name and opts.PackageName into the resident skeleton and
// returns the result. ok=false means the request is not plan-executable,
// opts is not the default algorithm, or no plan is resident; the caller
// must run the pipeline (whose Generator, when wired with this cache,
// will count the miss and compile the plan). Only hits are counted
// here so a miss that falls through to GenerateFileCtx is not counted
// twice.
func (c *PlanCache) Execute(rulesFP, name, src string, opts Options) (*Result, bool) {
	p, ok := c.hit(rulesFP, name, src, opts)
	if !ok {
		return nil, false
	}
	return p.Execute(name, opts.PackageName), true
}

// Parts is Execute without the join: on a plan hit it returns the output
// as the plan's five pieces (Plan.Parts), counted as a hit like Execute.
func (c *PlanCache) Parts(rulesFP, name, src string, opts Options) ([5]string, bool) {
	p, ok := c.hit(rulesFP, name, src, opts)
	if !ok {
		return [5]string{}, false
	}
	return p.Parts(name, opts.PackageName), true
}

// hit returns the resident plan that can serve the request and counts the
// hit, or reports that the request must run the pipeline.
func (c *PlanCache) hit(rulesFP, name, src string, opts Options) (*Plan, bool) {
	if c == nil || !planDefault(opts) || !planExecutable(name, opts.PackageName) {
		return nil, false
	}
	p, ok := c.peek(newPlanKey(rulesFP, src, opts.Verify))
	if ok {
		c.hits.Add(1)
	}
	return p, ok
}

// lookup is the Generator-side fast path: it counts both hits and misses,
// making it the authoritative source of the plan_hits / plan_misses
// metrics for generations that went through GenerateFileCtx.
func (c *PlanCache) lookup(key planKey) (*Plan, bool) {
	p, ok := c.peek(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return p, ok
}

// peek returns the resident plan and refreshes its recency, without
// touching the hit/miss counters.
func (c *PlanCache) peek(key planKey) (*Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*planEntry).plan, true
}

// put inserts (or replaces) the plan for key, evicting least-recently-used
// entries beyond the capacity bound.
func (c *PlanCache) put(key planKey, p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		old := el.Value.(*planEntry)
		c.bytes += p.size() - old.plan.size()
		old.plan = p
		c.ll.MoveToFront(el)
		return
	}
	c.index[key] = c.ll.PushFront(&planEntry{key: key, plan: p})
	c.bytes += p.size()
	for c.ll.Len() > c.max {
		c.removeLocked(c.ll.Back())
	}
}

func (c *PlanCache) removeLocked(el *list.Element) {
	e := el.Value.(*planEntry)
	c.ll.Remove(el)
	delete(c.index, e.key)
	c.bytes -= e.plan.size()
}

// Retain drops every plan whose rule-set fingerprint is not in keep. The
// registry calls this after each successful reload with the live
// fingerprint, bounding the cache across reload storms. It returns the
// number of plans dropped.
func (c *PlanCache) Retain(keep map[string]bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if !keep[el.Value.(*planEntry).plan.rulesFP] {
			c.removeLocked(el)
			dropped++
		}
		el = next
	}
	return dropped
}

// Len returns the resident plan count.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the approximate resident byte total of all plans.
func (c *PlanCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Hits returns the cumulative plan-hit count.
func (c *PlanCache) Hits() int64 { return c.hits.Load() }

// Misses returns the cumulative plan-miss count (plan-eligible
// generations that had to run the pipeline).
func (c *PlanCache) Misses() int64 { return c.misses.Load() }
