// Package faultinject provides named fault points for chaos testing the
// generation pipeline and the cryptgend daemon.
//
// A fault point is a call to Fire with a well-known name at a site whose
// failure behaviour the chaos suite wants to drive: rule compilation, path
// enumeration, worker execution, the reload snapshot swap. When the point
// is disarmed — the production state — Fire is a single atomic load
// returning nil, so instrumented hot paths pay no measurable cost. When a
// test arms a point with Arm, Fire injects one of three failure modes:
//
//	error    return a typed *Error that callers propagate like any other
//	panic    panic with a *Error value, exercising recovery guards
//	latency  sleep for the configured duration, then return nil
//
// A fault may be limited to N firings (Times: 1 fires once, then the
// point disarms itself), which lets tests assert "one request fails, the
// next succeeds" without racing the disarm.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Well-known fault points. The package accepts arbitrary names, but these
// are the sites instrumented across crysl, gen, and service; the chaos
// suite and the README document them.
const (
	// PointRuleCompile fires once per rule file inside crysl.LoadFS, so an
	// injected error surfaces through the loader's errors.Join aggregation
	// exactly like a malformed rule would.
	PointRuleCompile = "rule-compile"
	// PointPathEnum fires per rule during the registry's candidate-snapshot
	// path warm-up (service.Registry.Reload).
	PointPathEnum = "path-enum"
	// PointWorkerExec fires immediately before an admitted pool call runs
	// (service.Pool).
	PointWorkerExec = "worker-exec"
	// PointReloadSwap fires after a candidate snapshot compiled and warmed,
	// immediately before it would be swapped in (service.Registry.Reload).
	PointReloadSwap = "reload-swap"
	// PointGenerate fires at the head of gen.GenerateFileCtx, inside the
	// library's own panic guard.
	PointGenerate = "generate"
	// PointPeerTransport fires on every request the daemon's peer channel
	// sends (forwards and /readyz probes) through the fault Transport.
	PointPeerTransport = "peer-transport"
	// PointClientTransport fires on every request the client SDK's default
	// HTTP client sends through the fault Transport.
	PointClientTransport = "client-transport"
)

// Mode selects what an armed fault point does when fired.
type Mode int

// Fault modes. The first three apply to in-process fault points (Fire);
// the transport modes apply to HTTP fault points served by Transport —
// Fire treats any transport mode as ModeError, so arming one at an
// in-process point degrades to an injected error instead of being
// silently ignored.
const (
	ModeError Mode = iota
	ModePanic
	ModeLatency
	// ModeRefuse fails the round trip outright without dialing — the
	// observable shape of a connection refused.
	ModeRefuse
	// ModeCutBody performs the round trip but severs the response body
	// partway through, so readers see a mid-body unexpected EOF.
	ModeCutBody
	// ModeCorrupt performs the round trip but mangles the response body's
	// first byte, so JSON decoding fails on an intact-looking response.
	ModeCorrupt
	// Mode5xx answers with a synthesized 5xx (Fault.Status, default 500)
	// and a non-envelope body, without performing the round trip — the
	// shape of a broken proxy or a crashed handler in the way.
	Mode5xx
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeLatency:
		return "latency"
	case ModeRefuse:
		return "refuse"
	case ModeCutBody:
		return "cut"
	case ModeCorrupt:
		return "corrupt"
	case Mode5xx:
		return "5xx"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Fault describes an armed failure.
type Fault struct {
	Mode Mode
	// Latency is the injected delay for ModeLatency.
	Latency time.Duration
	// Times bounds how often the fault fires before the point disarms
	// itself; 0 means unlimited.
	Times int64
	// Status is the synthesized response status for Mode5xx (0 = 500).
	Status int
}

// Error is the typed error an armed point injects (and the panic value in
// ModePanic), so tests and callers can tell injected faults from organic
// failures with errors.As.
type Error struct {
	Point string
	Mode  Mode
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected %s at %s", e.Mode, e.Point)
}

type state struct {
	fault     Fault
	remaining atomic.Int64 // only meaningful when fault.Times > 0
}

var (
	// armed counts armed points; Fire's fast path is a single load of it.
	armed  atomic.Int32
	mu     sync.Mutex
	points = map[string]*state{}
)

// Enabled reports whether any fault point is armed.
func Enabled() bool { return armed.Load() > 0 }

// Fire triggers the named point. Disarmed (the default) it returns nil
// after one atomic load. Armed, it injects the configured fault: ModeError
// returns a *Error, ModePanic panics with a *Error, ModeLatency sleeps and
// returns nil.
func Fire(point string) error {
	if armed.Load() == 0 {
		return nil
	}
	f, ok := consume(point)
	if !ok {
		return nil
	}
	switch f.Mode {
	case ModePanic:
		panic(&Error{Point: point, Mode: ModePanic})
	case ModeLatency:
		time.Sleep(f.Latency)
		return nil
	default:
		// Transport modes armed at an in-process point degrade to errors.
		return &Error{Point: point, Mode: ModeError}
	}
}

// consume looks the point up and, when armed, takes one firing from its
// bounded count (self-disarming on exhaustion). It returns the fault to
// inject and whether this call should inject at all.
func consume(point string) (Fault, bool) {
	mu.Lock()
	st, ok := points[point]
	mu.Unlock()
	if !ok {
		return Fault{}, false
	}
	if st.fault.Times > 0 {
		if st.remaining.Add(-1) < 0 {
			// Exhausted; self-disarm (idempotent under concurrent firings).
			Disarm(point)
			return Fault{}, false
		}
		if st.remaining.Load() == 0 {
			defer Disarm(point)
		}
	}
	return st.fault, true
}

// Arm installs (or replaces) the fault for a point.
func Arm(point string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	st := &state{fault: f}
	st.remaining.Store(f.Times)
	if _, existed := points[point]; !existed {
		armed.Add(1)
	}
	points[point] = st
}

// Disarm removes the fault for a point; a no-op when it is not armed.
func Disarm(point string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[point]; ok {
		delete(points, point)
		armed.Add(-1)
	}
}

// Reset disarms every point (tests defer this).
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for p := range points {
		delete(points, p)
		armed.Add(-1)
	}
}
