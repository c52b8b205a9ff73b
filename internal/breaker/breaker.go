// Package breaker implements the two client-side overload primitives the
// cluster's failure handling is built on: a circuit breaker that turns a
// failure streak into a cooling-off period instead of an endless stream
// of doomed attempts, and a retry budget that bounds how much retry
// traffic a client may add on top of its first attempts.
//
// Both exist for the same reason, seen from opposite sides. The breaker
// protects the *caller* from a dead or flapping peer: after
// failureThreshold consecutive failures it opens, rejecting attempts
// outright (no connect timeout paid, no worker burned) until OpenTimeout
// elapses, at which point exactly one trial request is let through
// (half-open); its outcome decides between re-admission and another
// cooling-off round. The budget protects the *callee* from its callers:
// when N clients all retry a recovering node at once, their combined
// retry traffic can exceed the original load that overloaded it. A token
// bucket refilled by successes caps the retry rate at a fraction of the
// success rate, so retries can never become the majority of offered load.
//
// Neither primitive decides what a "failure" is — callers feed outcomes
// in via Success and Failure (a failed forward or request, a refused
// connection, a failed /readyz probe) and consult Allow / Withdraw before
// spending work.
package breaker

import (
	"sync"
	"sync/atomic"
	"time"
)

// State is a breaker's position in the closed → open → half-open cycle.
type State int32

// Breaker states.
const (
	// Closed is the healthy state: every attempt is allowed.
	Closed State = iota
	// Open is the cooling-off state entered after a failure streak:
	// attempts are rejected without being tried until OpenTimeout passes.
	Open
	// HalfOpen follows an elapsed OpenTimeout: one trial attempt is
	// allowed through; success closes the breaker, failure re-opens it.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// failureThreshold is the consecutive-failure streak that opens a
// breaker. A single blip — one lost packet, one scheduler stall — must not
// eject a peer; a streak is evidence.
const failureThreshold = 3

// Config tunes a Breaker. The zero value is usable.
type Config struct {
	// OpenTimeout is how long the breaker stays open before allowing the
	// half-open trial (0 = 1s).
	OpenTimeout time.Duration
	// Clock overrides the time source (nil = time.Now; tests).
	Clock func() time.Time
}

// Breaker is a circuit breaker. Safe for concurrent use.
type Breaker struct {
	cfg     Config
	rejects atomic.Int64

	mu       sync.Mutex
	state    State
	failures int
	openedAt time.Time
	probing  bool // a half-open trial is in flight
}

// New builds a Breaker, applying Config defaults. It starts Closed.
func New(cfg Config) *Breaker {
	if cfg.OpenTimeout <= 0 {
		cfg.OpenTimeout = time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Breaker{cfg: cfg}
}

// Allow reports whether an attempt may proceed now. Closed always admits.
// Open admits nothing until OpenTimeout has elapsed, then transitions to
// HalfOpen and admits exactly one trial; further attempts are rejected
// until that trial's outcome arrives via Success or Failure. Every
// rejection is counted (Rejects).
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.transition() {
	case Closed:
		return true
	case HalfOpen:
		if !b.probing {
			b.probing = true
			return true
		}
	}
	b.rejects.Add(1)
	return false
}

// transition applies the time-based Open → HalfOpen move. Callers hold mu.
func (b *Breaker) transition() State {
	if b.state == Open && b.cfg.Clock().Sub(b.openedAt) >= b.cfg.OpenTimeout {
		b.state = HalfOpen
		b.probing = false
	}
	return b.state
}

// Success records a successful attempt: whatever the state, the breaker
// closes and the failure streak clears. (A success while Open can happen
// legitimately — an attempt admitted before the streak completed may
// finish after the breaker opened — and it is exactly as good news as a
// half-open trial succeeding.)
func (b *Breaker) Success() {
	b.mu.Lock()
	b.state = Closed
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
}

// Failure records a failed attempt. Closed: the streak grows, opening the
// breaker at failureThreshold. HalfOpen: the trial failed; back to Open
// with a fresh timeout. Open: recorded in the streak but the open window
// is NOT extended — stragglers from attempts admitted before the breaker
// opened must not be able to push recovery out indefinitely.
func (b *Breaker) Failure() {
	b.mu.Lock()
	b.failures++
	switch b.state {
	case Closed:
		if b.failures >= failureThreshold {
			b.state = Open
			b.openedAt = b.cfg.Clock()
		}
	case HalfOpen:
		b.state = Open
		b.openedAt = b.cfg.Clock()
		b.probing = false
	}
	b.mu.Unlock()
}

// State returns the current state, applying the time-based Open →
// HalfOpen transition first, so an expired open window reads as HalfOpen
// (ready for a trial) rather than Open.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.transition()
}

// Failures returns the current consecutive-failure streak.
func (b *Breaker) Failures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failures
}

// Rejects returns how many attempts Allow has rejected since creation.
func (b *Breaker) Rejects() int64 { return b.rejects.Load() }

// Budget is a retry budget: a token bucket that successes refill and
// retries drain. It is shared across all of a client's requests — the
// point is a *global* cap on retry amplification, not a per-request one.
// Safe for concurrent use.
type Budget struct {
	mu        sync.Mutex
	tokens    float64
	capacity  float64
	exhausted atomic.Int64
}

// budgetRefill is the tokens one recorded success deposits: at steady
// state retries may add at most ~20% on top of successful traffic.
const budgetRefill = 0.2

// NewBudget builds a Budget holding capacity tokens (it starts full, so
// cold-start retries work), refilled by budgetRefill tokens per recorded
// success. capacity <= 0 defaults to 10, a burst allowance of 10 retries.
func NewBudget(capacity float64) *Budget {
	if capacity <= 0 {
		capacity = 10
	}
	return &Budget{tokens: capacity, capacity: capacity}
}

// Withdraw takes one token for a retry, reporting whether one was
// available. A false return means the retry must not be sent — the
// caller should surface its last error instead; every such refusal is
// counted (Exhausted).
func (b *Budget) Withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		b.exhausted.Add(1)
		return false
	}
	b.tokens--
	return true
}

// Deposit records a success, refilling budgetRefill tokens up to capacity.
func (b *Budget) Deposit() {
	b.mu.Lock()
	if b.tokens += budgetRefill; b.tokens > b.capacity {
		b.tokens = b.capacity
	}
	b.mu.Unlock()
}

// Tokens returns the current token balance.
func (b *Budget) Tokens() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// Exhausted returns how many retries Withdraw has refused.
func (b *Budget) Exhausted() int64 { return b.exhausted.Load() }
