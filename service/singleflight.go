package service

import "sync"

// flightGroup coalesces in-flight generations over one body key
// (singleflight): the first goroutine to join a key becomes the leader and
// runs the generation; goroutines joining the same key while the leader is
// running wait for it instead of submitting the same pipeline run again.
// N concurrent misses over one body therefore cost exactly one pipeline run.
//
// A flight is only its done channel. It carries no result, because a
// follower's name and package may differ from the leader's: the follower
// splices its own response from the plan the leader's run left behind.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]chan struct{}
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: map[string]chan struct{}{}}
}

// join returns the flight for key, creating it when absent. leader reports
// whether the caller created the flight and therefore must call finish.
func (g *flightGroup) join(key string) (done chan struct{}, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if done, ok := g.m[key]; ok {
		return done, false
	}
	done = make(chan struct{})
	g.m[key] = done
	return done, true
}

// finish wakes every waiter. The flight is removed from the group before
// done closes, so a request arriving later starts fresh — and, after a
// successful pipeline run, finds the plan the leader compiled.
func (g *flightGroup) finish(key string, done chan struct{}) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(done)
}
