package service

import (
	"errors"
	"fmt"
)

// ErrOverloaded is returned by Pool.Submit when admission control rejects
// a call instead of queueing it: every slot is busy and QueueSize
// submissions are already waiting for one. The API maps it to 429 with a
// Retry-After hint; it is deliberately distinct from ErrClosed (503), which
// means the daemon is going away rather than momentarily busy.
var ErrOverloaded = errors.New("service: overloaded")

// InternalError reports a panic recovered inside the daemon — in a pool
// call, a batch fan-out goroutine, a generation attempt, or an HTTP
// handler — or an error injected at the worker-exec fault point. The
// request that hit it gets a 500; the pool and the process survive. Op
// names the recovery site, Value is the recovered panic value, Stack the
// stack captured where the panic was caught (nil for an injected error).
type InternalError struct {
	Op    string
	Value any
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("service: internal error in %s: %v", e.Op, e.Value)
}
