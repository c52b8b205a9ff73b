package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cognicryptgen/internal/breaker"
	"cognicryptgen/internal/faultinject"
	"cognicryptgen/wire"
)

// cluster is a node's view of its peers: the rendezvous member list, a
// per-peer circuit breaker fed by forward outcomes and a background
// /readyz probe, and the HTTP client used for the peer channel.
//
// There is no membership protocol — the member list is static
// configuration (Self + Peers), identical on every node, and rendezvous
// hashing over it needs no coordination. Health is purely local and
// breaker-shaped: a peer stays in the forwarding set until a *streak* of
// three failures opens its breaker — one lost packet is not evidence —
// after which forwards to it are rejected without being tried (generating
// locally instead, at the cost of a duplicate cache entry) until the open
// timeout elapses and a half-open trial (a forward or a probe) succeeds. Two nodes may briefly disagree
// about a third's health; the one-hop guard bounds the damage to a single
// extra forward.
type cluster struct {
	self string
	// peers excludes self and is in the state map's random iteration
	// order; neither ownership (wire.RendezvousOwner) nor probeRound
	// depends on that order.
	peers      []string
	httpc      *http.Client
	probeEvery time.Duration

	mu    sync.Mutex
	state map[string]*peerState

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

type peerState struct {
	br        *breaker.Breaker
	forwarded int64
	lastErr   string
}

func newCluster(self string, peers []string, probeEvery time.Duration) *cluster {
	if probeEvery <= 0 {
		probeEvery = 2 * time.Second
	}
	// The open window is tied to the probe cadence: the background probe is
	// what re-admits a recovered peer, so cooling off much longer than a
	// probe tick only delays recovery, and shorter than 1s turns the
	// breaker into the one-strike eject it replaced.
	openTimeout := probeEvery
	if openTimeout < time.Second {
		openTimeout = time.Second
	}
	c := &cluster{
		self:       self,
		probeEvery: probeEvery,
		state:      make(map[string]*peerState, len(peers)),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		httpc: &http.Client{
			// Forwards ride the receiving request's context for cancellation;
			// this timeout is the backstop for probe requests and leaked
			// connections. The fault transport makes peer-channel network
			// failure injectable for the chaos suite; disarmed it is one
			// atomic load per request.
			Timeout:   30 * time.Second,
			Transport: faultinject.Transport(faultinject.PointPeerTransport, nil),
		},
	}
	for _, p := range peers {
		if p == self || p == "" {
			continue
		}
		// Peers start closed (healthy): ejection is evidence-driven (a
		// failure streak), so a cluster booting in any order does not refuse
		// to forward before the first probe tick.
		c.state[p] = &peerState{br: breaker.New(breaker.Config{OpenTimeout: openTimeout})}
	}
	c.peers = make([]string, 0, len(c.state))
	for p := range c.state {
		c.peers = append(c.peers, p)
	}
	go c.probeLoop()
	return c
}

func (c *cluster) close() {
	c.stopOnce.Do(func() {
		close(c.stop)
		<-c.done
	})
}

// ownerPeer returns the peer owning key when its breaker admits a forward
// now, or "" when this node should generate locally (it owns the key, or
// the owner's breaker rejected the attempt — open, or a half-open trial
// already in flight).
//
// Ownership hashes over the full static member list, not the healthy
// subset: re-hashing on every health flap would migrate keys between
// survivors (cold caches twice per outage — once ejecting, once
// re-admitting), whereas stable ownership means a recovered peer's cache
// is exactly as warm as it was. While the owner is open its keys are
// generated locally (duplicate cache entries on the nodes that receive
// them — bounded, and they expire with LRU), and each rejected forward is
// counted by the breaker.
func (c *cluster) ownerPeer(key string) string {
	all := make([]string, 0, len(c.peers)+1)
	all = append(all, c.self)
	all = append(all, c.peers...)
	owner := wire.RendezvousOwner(key, all)
	if owner == c.self {
		return ""
	}
	c.mu.Lock()
	st, ok := c.state[owner]
	c.mu.Unlock()
	if !ok || !st.br.Allow() {
		return ""
	}
	return owner
}

// markForward records a forward attempt's outcome for the peer's breaker:
// failures grow the streak toward open, success closes it outright.
func (c *cluster) markForward(peer string, err error) {
	c.mu.Lock()
	st, ok := c.state[peer]
	if !ok {
		c.mu.Unlock()
		return
	}
	st.forwarded++
	if err != nil {
		st.lastErr = err.Error()
	} else {
		st.lastErr = ""
	}
	c.mu.Unlock()
	if err != nil {
		st.br.Failure()
	} else {
		st.br.Success()
	}
}

// breakerRejects sums forward attempts rejected by open peer breakers.
func (c *cluster) breakerRejects() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, st := range c.state {
		n += st.br.Rejects()
	}
	return n
}

func (c *cluster) peerStatuses() map[string]wire.PeerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]wire.PeerStatus, len(c.state))
	for p, st := range c.state {
		state := st.br.State()
		out[p] = wire.PeerStatus{
			Healthy:        state == breaker.Closed,
			BreakerState:   state.String(),
			Failures:       int64(st.br.Failures()),
			Forwarded:      st.forwarded,
			BreakerRejects: st.br.Rejects(),
			LastError:      st.lastErr,
		}
	}
	return out
}

// probeLoop runs one probeRound per tick until close.
func (c *cluster) probeLoop() {
	defer close(c.done)
	t := time.NewTicker(c.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		c.probeRound()
	}
}

// probeRound polls every peer's /readyz once, all peers concurrently —
// sequential probing would let one hung peer delay every other peer's
// health verdict by its full timeout. Ok or degraded (HTTP 200) feeds the
// breaker a success (closing it, re-admitting the peer); draining (503)
// or an unreachable listener feeds it a failure. It returns once every
// probe has, so probe goroutines never pile up behind a slow peer or
// outlive close().
func (c *cluster) probeRound() {
	var wg sync.WaitGroup
	for _, p := range c.peers {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			healthy, errMsg := c.probe(p)
			c.mu.Lock()
			st := c.state[p]
			if healthy {
				st.lastErr = ""
			} else {
				st.lastErr = errMsg
			}
			c.mu.Unlock()
			if healthy {
				st.br.Success()
			} else {
				st.br.Failure()
			}
		}(p)
	}
	wg.Wait()
}

// maxProbeBody caps the /readyz body a probe drains: a readiness answer is
// a few hundred bytes.
const maxProbeBody = 64 << 10

func (c *cluster) probe(peer string) (healthy bool, errMsg string) {
	// The probe interval paces how often peers are asked, not how long a
	// peer may take to answer — a sub-second interval (tests run at 50ms)
	// must not turn scheduler jitter on a loaded box into an ejection.
	// Ejecting a slow-but-alive peer silently trades its shared cache
	// entries for duplicate local generations, so the health verdict gets
	// its own floor.
	to := c.probeEvery
	if to < time.Second {
		to = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), to)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/readyz", nil)
	if err != nil {
		return false, err.Error()
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return false, err.Error()
	}
	defer resp.Body.Close()
	// Drain the body, capped, so the connection is reused; the verdict is
	// the status alone.
	if _, release, err := wire.ReadBody(resp.Body, resp.ContentLength, maxProbeBody); err == nil {
		release()
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("readyz status %d", resp.StatusCode)
	}
	return true, ""
}

// forward sends req to the peer owning its body key over the peer channel
// (an ordinary POST /v1/generate carrying the wire.HeaderForwarded hop
// guard) and interprets the outcome for Server.attempt:
//
//   - handled=true, err=nil: the peer answered; resp carries its output
//     with Forwarded set. Counted as a forward hit when the owner served it
//     from a resident plan without a fresh pipeline run — the shared-cache
//     payoff the forward exists for.
//   - handled=true, err=*wire.Error: the peer rejected the request
//     terminally (e.g. 400 malformed template). The verdict is as valid
//     here as there; re-running the same template locally would burn a
//     worker to reproduce it. The envelope propagates to the client intact.
//   - handled=false: transport failure or a retryable peer state (429
//     overloaded, 503 draining). The caller generates locally
//     (forward_fallbacks) and the peer's breaker decides whether it stays
//     in the member list.
func (s *Server) forward(ctx context.Context, peer, name, src string, req wire.GenerateRequest) (resp wire.GenerateResponse, err error, handled bool) {
	s.metrics.forwarded.Add(1)
	// Forward the resolved template, not the UseCase reference: the peer
	// must generate byte-identically to what this node would have produced,
	// independent of any template-table drift.
	body, merr := json.Marshal(wire.GenerateRequest{
		Name:    name,
		Source:  src,
		Package: req.Package,
		Verify:  req.Verify,
	})
	if merr != nil {
		s.metrics.forwardFallbacks.Add(1)
		return wire.GenerateResponse{}, nil, false
	}
	hreq, herr := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/generate", bytes.NewReader(body))
	if herr != nil {
		s.metrics.forwardFallbacks.Add(1)
		return wire.GenerateResponse{}, nil, false
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(wire.HeaderForwarded, s.cluster.self)
	hresp, derr := s.cluster.httpc.Do(hreq)
	if derr != nil {
		s.cluster.markForward(peer, derr)
		s.metrics.forwardFallbacks.Add(1)
		return wire.GenerateResponse{}, nil, false
	}
	defer hresp.Body.Close()
	data, release, rerr := wire.ReadBody(hresp.Body, hresp.ContentLength, s.cfg.MaxBodyBytes+DefaultMaxBodyBytes)
	if rerr != nil {
		s.cluster.markForward(peer, rerr)
		s.metrics.forwardFallbacks.Add(1)
		return wire.GenerateResponse{}, nil, false
	}
	defer release()
	if hresp.StatusCode == http.StatusOK {
		var out wire.GenerateResponse
		if uerr := wire.Unmarshal(data, &out); uerr != nil {
			s.cluster.markForward(peer, fmt.Errorf("decoding forwarded response: %w", uerr))
			s.metrics.forwardFallbacks.Add(1)
			return wire.GenerateResponse{}, nil, false
		}
		s.cluster.markForward(peer, nil)
		if out.Cached {
			s.metrics.forwardHits.Add(1)
		}
		out.Forwarded = true
		// The owner's serve-path flag is not this node's: the response was
		// not served from *this* node's cache.
		out.Cached = false
		return out, nil, true
	}
	var we wire.Error
	if uerr := wire.Unmarshal(data, &we); uerr != nil || we.Status == 0 {
		we = *wire.NewError(hresp.StatusCode, "peer %s: status %d", peer, hresp.StatusCode)
	}
	if we.Retryable {
		// 429/503: the peer is alive but cannot take the work now. Generate
		// locally; only a draining peer (503) counts against the breaker,
		// and the probe loop re-admits it when /readyz recovers.
		if we.Status == http.StatusServiceUnavailable {
			s.cluster.markForward(peer, &we)
		} else {
			s.cluster.markForward(peer, nil)
		}
		s.metrics.forwardFallbacks.Add(1)
		return wire.GenerateResponse{}, nil, false
	}
	// Terminal envelope (400 etc.): the peer's verdict stands.
	s.cluster.markForward(peer, nil)
	return wire.GenerateResponse{}, &we, true
}
