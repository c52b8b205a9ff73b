package service

import (
	"expvar"
	"math"
	"sort"
	"sync"
	"time"

	"cognicryptgen/wire"
)

// latencyWindow bounds the sliding window over which latency quantiles are
// computed.
const latencyWindow = 1024

// metrics aggregates the daemon's counters. The counters are expvar.Int
// values (lock-free atomics) but are deliberately NOT published to the
// global expvar registry — expvar.Publish panics on duplicate names, which
// would forbid running several Servers in one process (tests, embedding).
// GET /metrics serves a JSON snapshot instead.
type metrics struct {
	requests    expvar.Int // all HTTP requests
	generates   expvar.Int // POST /v1/generate
	batches     expvar.Int // POST /v1/generate/batch
	analyzes    expvar.Int // POST /v1/analyze
	errors      expvar.Int // responses with status >= 400
	timeouts    expvar.Int // 503s from context expiry
	cacheHits   expvar.Int
	cacheMisses expvar.Int
	reloads     expvar.Int
	panics      expvar.Int // panics recovered (worker, handler, batch, attempt)
	shed        expvar.Int // submissions rejected by admission control (429)

	forwarded        expvar.Int // requests forwarded to the peer owning their key
	forwardHits      expvar.Int // forwards answered from the owner's cache
	forwardFallbacks expvar.Int // forwards that failed and ran locally instead

	mu        sync.Mutex
	latencies []time.Duration // ring buffer, most recent latencyWindow
	next      int
	filled    bool
}

func newMetrics() *metrics {
	return &metrics{latencies: make([]time.Duration, latencyWindow)}
}

// observe records one request latency into the sliding window.
func (m *metrics) observe(d time.Duration) {
	m.mu.Lock()
	m.latencies[m.next] = d
	m.next++
	if m.next == len(m.latencies) {
		m.next = 0
		m.filled = true
	}
	m.mu.Unlock()
}

// quantiles returns the p50 and p99 of the current latency window (zeros
// when nothing was observed yet).
func (m *metrics) quantiles() (p50, p99 time.Duration) {
	m.mu.Lock()
	n := m.next
	if m.filled {
		n = len(m.latencies)
	}
	window := append([]time.Duration(nil), m.latencies[:n]...)
	m.mu.Unlock()
	if len(window) == 0 {
		return 0, 0
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	// Nearest-rank (ceil) quantiles: the q-quantile is the smallest sample
	// with at least a q fraction of the window at or below it. The old
	// floor-based index truncated toward the small samples — on a 2-sample
	// window int(0.99*1) = 0 reported the *smaller* sample as the p99.
	idx := func(q float64) int {
		i := int(math.Ceil(q*float64(len(window)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(window) {
			i = len(window) - 1
		}
		return i
	}
	return window[idx(0.50)], window[idx(0.99)]
}

// snapshot renders all counters for GET /metrics as the typed wire shape.
func (m *metrics) snapshot(queueDepth, cacheEntries int) wire.Metrics {
	p50, p99 := m.quantiles()
	hits, misses := m.cacheHits.Value(), m.cacheMisses.Value()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	fwd, fwdHits := m.forwarded.Value(), m.forwardHits.Value()
	fwdRate := 0.0
	if fwd > 0 {
		fwdRate = float64(fwdHits) / float64(fwd)
	}
	return wire.Metrics{
		Requests:         m.requests.Value(),
		GenerateRequests: m.generates.Value(),
		BatchRequests:    m.batches.Value(),
		AnalyzeRequests:  m.analyzes.Value(),
		Errors:           m.errors.Value(),
		Timeouts:         m.timeouts.Value(),
		CacheHits:        hits,
		CacheMisses:      misses,
		CacheHitRate:     hitRate,
		CacheEntries:     cacheEntries,
		Reloads:          m.reloads.Value(),
		PanicsRecovered:  m.panics.Value(),
		ShedTotal:        m.shed.Value(),
		QueueDepth:       queueDepth,
		LatencyP50MS:     float64(p50) / float64(time.Millisecond),
		LatencyP99MS:     float64(p99) / float64(time.Millisecond),
		ForwardedTotal:   fwd,
		ForwardHits:      fwdHits,
		ForwardFallbacks: m.forwardFallbacks.Value(),
		ForwardHitRate:   fwdRate,
	}
}
