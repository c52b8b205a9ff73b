package wire

// Metrics is the body of GET /metrics: the daemon's counters as one typed
// snapshot, shared by the daemon (which fills it), the SDK (which decodes
// it), and the load generator (which diffs before/after snapshots into
// per-node benchmark rows).
//
// The cache counters describe the plan cache, the node's only generation
// cache: CacheHits counts requests spliced from a resident plan on the
// request path, before any forward or pool work; CacheMisses
// counts local pipeline runs (a forwarded request is its owner's miss, so
// the cluster-wide sum is the number of pipeline runs); CacheEntries is
// the resident compiled-plan count.
//
// Coalesced is always 0: the daemon no longer coalesces concurrent misses
// over one body (each makes its own attempt). The key stays because the
// bench/ harness still reads it into service.coalesced.
type Metrics struct {
	Requests         int64   `json:"requests"`
	GenerateRequests int64   `json:"generate_requests"`
	BatchRequests    int64   `json:"batch_requests"`
	AnalyzeRequests  int64   `json:"analyze_requests"`
	Errors           int64   `json:"errors"`
	Timeouts         int64   `json:"timeouts"`
	CacheHits        int64   `json:"cache_hits"`
	CacheMisses      int64   `json:"cache_misses"`
	CacheHitRate     float64 `json:"cache_hit_rate"`
	CacheEntries     int     `json:"cache_entries"`
	Coalesced        int64   `json:"coalesced"`
	Reloads          int64   `json:"reloads"`
	PanicsRecovered  int64   `json:"panics_recovered"`
	ShedTotal        int64   `json:"shed_total"`
	QueueDepth       int     `json:"queue_depth"`
	LatencyP50MS     float64 `json:"latency_p50_ms"`
	LatencyP99MS     float64 `json:"latency_p99_ms"`

	// Plan-cache counters (see gen.PlanCache).

	// PlanHits counts generations served by splicing a compiled plan: the
	// request-path splices counted in CacheHits and pipeline submissions
	// that found their plan compiled meanwhile.
	PlanHits int64 `json:"plan_hits"`
	// PlanMisses counts plan-eligible generations that ran the pipeline
	// (and compiled a plan for next time).
	PlanMisses int64 `json:"plan_misses"`
	// PlanEntries is the resident compiled-plan count.
	PlanEntries int `json:"plan_entries"`
	// PlanBytes approximates the resident bytes of all compiled plans.
	PlanBytes int64 `json:"plan_bytes"`

	// Cluster counters (zero when the node runs without peers).

	// ForwardedTotal counts requests this node forwarded to the peer
	// owning their cache key.
	ForwardedTotal int64 `json:"forwarded_total"`
	// ForwardHits counts forwarded requests the owner answered from its
	// cache — the shared-cache payoff.
	ForwardHits int64 `json:"forward_hits"`
	// ForwardFallbacks counts forwards that failed (peer down, draining,
	// overloaded) and were generated locally instead.
	ForwardFallbacks int64 `json:"forward_fallbacks"`
	// ForwardHitRate is ForwardHits / ForwardedTotal.
	ForwardHitRate float64 `json:"forward_hit_rate"`
	// BreakerRejects sums, over all peers, the forward attempts this node's
	// per-peer circuit breakers rejected without trying (peer open).
	BreakerRejects int64 `json:"breaker_rejects"`
	// Self is this node's advertised base URL in cluster mode.
	Self string `json:"self,omitempty"`
	// Peers maps each peer base URL to its health as seen by this node.
	Peers map[string]PeerStatus `json:"peers,omitempty"`
}

// PeerStatus is one peer's health as tracked by a node's forwarder.
type PeerStatus struct {
	Healthy bool `json:"healthy"`
	// BreakerState is the peer's circuit-breaker state as seen by this
	// node: "closed" (forwarding), "open" (cooling off after a failure
	// streak), or "half-open" (one trial in flight).
	BreakerState string `json:"breaker_state,omitempty"`
	// Failures counts consecutive probe/forward failures since the peer
	// was last seen healthy.
	Failures int64 `json:"failures"`
	// Forwarded counts requests this node forwarded to the peer.
	Forwarded int64 `json:"forwarded"`
	// BreakerRejects counts forward attempts rejected by this peer's open
	// breaker (each one generated locally instead).
	BreakerRejects int64 `json:"breaker_rejects,omitempty"`
	// LastError is the most recent failure, empty while healthy.
	LastError string `json:"last_error,omitempty"`
}

// ClientStats is the client SDK's local view of its own resilience
// machinery — retries spent, breaker rejections, retry-budget refusals —
// exposed via Client.Stats for operators and the chaos suite. It is not a
// daemon endpoint; the daemon-side equivalents live in Metrics.
type ClientStats struct {
	// Retries counts retry attempts actually sent (first attempts are not
	// retries).
	Retries int64 `json:"retries"`
	// BreakerRejects counts node-selection rejections by per-node open
	// breakers (the request moved on to another node).
	BreakerRejects int64 `json:"breaker_rejects"`
	// RetryBudgetExhausted counts retries refused by the global retry
	// budget; each refusal surfaced the last error to the caller.
	RetryBudgetExhausted int64 `json:"retry_budget_exhausted"`
	// RetryBudgetTokens is the current token balance.
	RetryBudgetTokens float64 `json:"retry_budget_tokens"`
	// BreakerStates maps each configured node to its breaker state.
	BreakerStates map[string]string `json:"breaker_states,omitempty"`
}
