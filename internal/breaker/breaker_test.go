package breaker

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(timeout time.Duration) (*Breaker, *fakeClock) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	return New(Config{OpenTimeout: timeout, Clock: clk.Now}), clk
}

// openBreaker records a full failure streak.
func openBreaker(b *Breaker) {
	for i := 0; i < failureThreshold; i++ {
		b.Failure()
	}
}

// TestBreakerCycle drives the whole closed → open → half-open → closed
// cycle, including the half-open trial failing once before recovery.
func TestBreakerCycle(t *testing.T) {
	b, clk := newTestBreaker(time.Second)

	// Closed: admits, and a streak below threshold stays closed.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected attempt %d", i)
		}
		b.Failure()
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state after 2 of 3 failures = %v, want closed", got)
	}

	// Third consecutive failure opens it.
	b.Failure()
	if got := b.State(); got != Open {
		t.Fatalf("state after threshold failures = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted an attempt before OpenTimeout")
	}
	if b.Rejects() != 1 {
		t.Fatalf("rejects = %d, want 1", b.Rejects())
	}

	// OpenTimeout elapses: exactly one half-open trial is admitted.
	clk.Advance(time.Second)
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state after OpenTimeout = %v, want half-open", got)
	}
	if !b.Allow() {
		t.Fatal("half-open breaker rejected the trial")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent trial")
	}

	// The trial fails: back to open, for a fresh timeout.
	b.Failure()
	if got := b.State(); got != Open {
		t.Fatalf("state after failed trial = %v, want open", got)
	}
	clk.Advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("re-opened breaker admitted before its fresh timeout elapsed")
	}
	clk.Advance(time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker rejected the second trial after its fresh timeout")
	}

	// The second trial succeeds: closed, streak cleared, admitting freely.
	b.Success()
	if got := b.State(); got != Closed {
		t.Fatalf("state after successful trial = %v, want closed", got)
	}
	if b.Failures() != 0 {
		t.Fatalf("failures after success = %d, want 0", b.Failures())
	}
	if !b.Allow() || !b.Allow() {
		t.Fatal("closed breaker rejected attempts after recovery")
	}
}

// TestBreakerSuccessResetsStreak: interleaved successes keep a flapping-
// but-mostly-alive peer admitted — only a *consecutive* streak opens.
func TestBreakerSuccessResetsStreak(t *testing.T) {
	b, _ := newTestBreaker(time.Second)
	for i := 0; i < 10; i++ {
		b.Failure()
		b.Failure()
		b.Success()
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state after 20 non-consecutive failures = %v, want closed", got)
	}
}

// TestBreakerStragglerFailureDoesNotExtendOpen: failures recorded while
// already open (in-flight attempts admitted before the streak completed)
// must not push the half-open trial further out.
func TestBreakerStragglerFailureDoesNotExtendOpen(t *testing.T) {
	b, clk := newTestBreaker(time.Second)
	openBreaker(b)
	clk.Advance(900 * time.Millisecond)
	b.Failure() // straggler while open
	clk.Advance(100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("straggler failure extended the open window")
	}
}

// TestBreakerConcurrentHalfOpenSingleTrial: under concurrent Allow calls
// in half-open, exactly one wins the trial slot.
func TestBreakerConcurrentHalfOpenSingleTrial(t *testing.T) {
	b, clk := newTestBreaker(time.Millisecond)
	openBreaker(b)
	clk.Advance(time.Millisecond)
	const goroutines = 16
	var admitted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Allow() {
				mu.Lock()
				admitted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if admitted != 1 {
		t.Fatalf("%d of %d concurrent half-open attempts admitted, want exactly 1", admitted, goroutines)
	}
}

// TestBudgetWithdrawDeposit: the budget starts full, drains by retries,
// refuses when empty, and refills 0.2 tokens per success.
func TestBudgetWithdrawDeposit(t *testing.T) {
	b := NewBudget(2)
	if !b.Withdraw() || !b.Withdraw() {
		t.Fatal("fresh budget refused a withdrawal within capacity")
	}
	if b.Withdraw() {
		t.Fatal("empty budget granted a retry")
	}
	if b.Exhausted() != 1 {
		t.Fatalf("exhausted = %d, want 1", b.Exhausted())
	}
	// Five successes refill one token.
	for i := 0; i < 4; i++ {
		b.Deposit()
	}
	if b.Withdraw() {
		t.Fatal("four fifths of a token granted a retry")
	}
	b.Deposit()
	if !b.Withdraw() {
		t.Fatal("a full refilled token was refused")
	}
	// Refill never exceeds capacity.
	for i := 0; i < 100; i++ {
		b.Deposit()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("tokens after overfill = %v, want capped at capacity 2", got)
	}
}
