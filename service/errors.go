package service

import (
	"errors"
	"fmt"
)

// ErrOverloaded is returned by Pool.Submit when admission control rejects
// a job instead of queueing it: the queue is saturated and MaxWaiters
// submissions are already blocked behind it. The API maps it to 429 with a
// Retry-After hint; it is deliberately distinct from ErrClosed (503), which
// means the daemon is going away rather than momentarily busy.
var ErrOverloaded = errors.New("service: overloaded")

// InternalError reports a panic recovered inside the daemon — in a pool
// worker, a batch fan-out goroutine, a generation attempt, or an HTTP
// handler. The request that hit it gets a 500; the worker, the pool, and
// the process all survive. Op names the recovery site, Value is the
// recovered panic value, Stack the stack captured where the panic was
// caught.
type InternalError struct {
	Op    string
	Value any
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("service: internal error in %s: %v", e.Op, e.Value)
}
