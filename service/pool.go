package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"cognicryptgen/internal/faultinject"
)

// ErrClosed is returned by Submit after the pool began shutting down.
var ErrClosed = errors.New("service: pool is shut down")

// Pool is admission control over the caller's goroutine: at most Workers
// calls run at a time, at most QueueSize more wait for a slot, and the
// rest are shed. The generation and analysis state every call shares
// lives in the registry snapshot (its Generator and Analyzer are safe for
// concurrent use), so the pool holds no per-worker state and runs no
// goroutines of its own.
type Pool struct {
	slots    chan struct{} // one token per running call
	maxWait  int64
	waiting  atomic.Int64
	inflight sync.WaitGroup

	// mu fences submissions against shutdown: Submit joins inflight under
	// the read side after checking closed; Close flips closed under the
	// write side before waiting on inflight. Every call that passed the
	// check is therefore waited for, and every later one fails with
	// ErrClosed.
	mu     sync.RWMutex
	closed bool
}

// NewPool returns a pool running at most workers calls at a time (min 1)
// with at most queueSize more waiting (0 = 12×workers).
func NewPool(workers, queueSize int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueSize == 0 {
		queueSize = 12 * workers
	}
	return &Pool{slots: make(chan struct{}, workers), maxWait: int64(queueSize)}
}

// QueueDepth reports the number of submissions waiting for a slot.
func (p *Pool) QueueDepth() int { return int(p.waiting.Load()) }

// Submit runs fn on the calling goroutine once a slot is free. It fails
// with ErrOverloaded when QueueSize submissions are already waiting, with
// ctx.Err() when the context ends before fn starts (fn then never runs),
// and with ErrClosed once the pool is shutting down. A panic in fn, or
// one injected at the worker-exec fault point, becomes an *InternalError
// with the stack of the panic.
func (p *Pool) Submit(ctx context.Context, fn func() error) error {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrClosed
	}
	p.inflight.Add(1)
	p.mu.RUnlock()
	defer p.inflight.Done()

	if err := p.acquire(ctx); err != nil {
		return err
	}
	defer func() { <-p.slots }()
	if err := ctx.Err(); err != nil {
		return err
	}
	return exec(fn)
}

// acquire takes a slot, waiting for one only while fewer than QueueSize
// other submissions wait. Shedding at the door bounds the goroutines
// parked on a saturated pool and keeps the daemon responsive under
// overload rather than letting latency grow without limit.
func (p *Pool) acquire(ctx context.Context) error {
	select {
	case p.slots <- struct{}{}:
		return nil
	default:
	}
	if p.waiting.Add(1) > p.maxWait {
		p.waiting.Add(-1)
		return fmt.Errorf("service: %d submissions already waiting for a slot: %w", p.maxWait, ErrOverloaded)
	}
	defer p.waiting.Add(-1)
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// exec runs fn under the pool's panic guard.
func exec(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &InternalError{Op: "worker-exec", Value: r, Stack: debug.Stack()}
		}
	}()
	if ferr := faultinject.Fire(faultinject.PointWorkerExec); ferr != nil {
		return &InternalError{Op: "worker-exec", Value: ferr}
	}
	return fn()
}

// Close begins graceful drain: later submissions fail with ErrClosed,
// while every call already submitted (running or waiting for a slot)
// finishes. Close blocks until they have and is safe to call more than
// once.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.inflight.Wait()
}
