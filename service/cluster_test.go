package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cognicryptgen/client"
	"cognicryptgen/gen"
	"cognicryptgen/rules"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// startCluster boots n in-process nodes wired as a cluster, each probing
// its peers every 50 ms.
func startCluster(t *testing.T, n int) ([]*Server, []*httptest.Server, []string) {
	return startClusterProbe(t, n, 50*time.Millisecond)
}

// startClusterProbe boots n in-process nodes wired as a cluster: real
// Servers behind real loopback listeners, each with the others as peers
// and a peer probe every probeEvery. Every node must know all URLs before
// any node is built (Config.Peers is static), but a port is known only
// once its listener exists, so the listeners are bound first and each
// Server is then attached to its own. This is the root module's one
// listener-first boot; restartNode brings a killed node back on it.
func startClusterProbe(t *testing.T, n int, probeEvery time.Duration) ([]*Server, []*httptest.Server, []string) {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	srvs := make([]*Server, n)
	tss := make([]*httptest.Server, n)
	for i := range n {
		cfg := Config{Workers: 2, CacheSize: 64, PeerProbeInterval: probeEvery, Self: urls[i]}
		for j, u := range urls {
			if j != i {
				cfg.Peers = append(cfg.Peers, u)
			}
		}
		srvs[i], tss[i] = bootNode(t, listeners[i], cfg)
	}
	return srvs, tss, urls
}

// bootNode starts a daemon from cfg on l, which it then owns, and
// registers its teardown: the listener first, so peers see connection
// refused rather than hangs, then the daemon.
func bootNode(t *testing.T, l net.Listener, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// restartNode replaces a killed node with a fresh daemon of the same
// configuration on the same address, as a supervisor would: new breakers
// and empty caches that its boot warm refills. The bind can race the dead
// listener's socket, so it retries briefly.
func restartNode(t *testing.T, srv *Server, ts *httptest.Server) (*Server, *httptest.Server) {
	t.Helper()
	addr := ts.Listener.Addr().String()
	var l net.Listener
	var err error
	for range 50 {
		if l, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	return bootNode(t, l, srv.cfg)
}

// TestClusterSharedCacheByteIdentical is the cluster's core guarantee: the
// same 13 templates, sent to every node of a 3-node cluster, come back
// byte-identical to a standalone daemon — and each template body runs the
// pipeline exactly once across the whole cluster, because every body is
// served (via one-hop forwarding) by the node that owns it. The bodies are
// unseen, so no boot warm has compiled them. The verified catalogue is
// unseen too, since the boot warm compiles unverified plans, so it also
// runs once per use case. A last pass by use case pins byte identity for
// the embedded templates' warmed plans.
func TestClusterSharedCacheByteIdentical(t *testing.T) {
	standalone, err := New(Config{Workers: 2, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer standalone.Close()

	srvs, tss, _ := startCluster(t, 3)
	ctx := context.Background()
	cases := templates.All()
	sendAll := func(t *testing.T, req wire.GenerateRequest, what string) {
		t.Helper()
		want, err := standalone.Generate(ctx, req)
		if err != nil {
			t.Fatalf("standalone %s: %v", what, err)
		}
		for i, ts := range tss {
			resp, body := postJSON(t, ts.URL+"/v1/generate", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("node %d %s: status %d: %s", i, what, resp.StatusCode, body)
			}
			var got wire.GenerateResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			if got.Output != want.Output {
				t.Fatalf("node %d %s: output differs from standalone", i, what)
			}
			if got.Fingerprint != want.Fingerprint {
				t.Fatalf("node %d %s: fingerprint %s != standalone %s", i, what, got.Fingerprint, want.Fingerprint)
			}
		}
	}
	passed := t.Run("unseen-bodies", func(t *testing.T) {
		for _, uc := range cases {
			sendAll(t, wire.GenerateRequest{Name: uc.File, Source: unseenBody(t, uc.ID, "shared cache")}, fmt.Sprintf("unseen body %d", uc.ID))
		}
	})
	passed = t.Run("verified-catalogue", func(t *testing.T) {
		for _, uc := range cases {
			sendAll(t, wire.GenerateRequest{UseCase: uc.ID, Verify: true}, fmt.Sprintf("verified use case %d", uc.ID))
		}
	}) && passed
	if !passed {
		t.FailNow()
	}

	var misses, forwarded, forwardHits int64
	for _, s := range srvs {
		m := s.MetricsSnapshot()
		misses += m.CacheMisses
		forwarded += m.ForwardedTotal
		forwardHits += m.ForwardHits
		if m.ForwardFallbacks != 0 {
			t.Errorf("node %s: %d forward fallbacks in a healthy cluster", m.Self, m.ForwardFallbacks)
		}
	}
	// 78 requests (26 bodies × 3 nodes), one pipeline run per body: the
	// cluster's plans shard, they do not duplicate.
	if bodies := int64(2 * len(cases)); misses != bodies {
		t.Errorf("cluster ran the pipeline %d times for %d distinct bodies, want one run per body", misses, bodies)
	}
	if forwarded == 0 {
		t.Error("no request was forwarded: 3 nodes cannot all own every body")
	}
	if forwardHits == 0 {
		t.Error("no forward was answered from the owner's plan")
	}
	t.Run("catalogue", func(t *testing.T) {
		for _, uc := range cases {
			sendAll(t, wire.GenerateRequest{UseCase: uc.ID}, fmt.Sprintf("use case %d", uc.ID))
		}
	})
}

// TestClusterOneRunPerBody: with the body-level key, distinct names and
// package overrides over one body share its owner and its plan. An
// unrouted SDK spreads K unseen bodies × 3 names × 2 packages over 3
// nodes; the cluster runs the pipeline exactly K times, never falls back,
// and every output is byte-identical to an uncached gen run.
func TestClusterOneRunPerBody(t *testing.T) {
	srvs, _, urls := startCluster(t, 3)
	sdk, err := client.New(client.Config{Nodes: urls, DisableRouting: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sdk.Close()
	base, err := gen.New(rules.MustLoad(), "", gen.Options{})
	if err != nil {
		t.Fatal(err)
	}

	const bodies = 4
	for k := 0; k < bodies; k++ {
		id := []int{1, 4, 9, 11}[k]
		src := unseenBody(t, id, fmt.Sprintf("one run per body %d", k))
		for _, name := range []string{"a.go", "b.go", "c.go"} {
			for _, pkg := range []string{"", "app"} {
				req := wire.GenerateRequest{Name: fmt.Sprintf("k%d_%s", k, name), Source: src, Package: pkg}
				want, err := base.WithOptions(gen.Options{PackageName: pkg}).GenerateFile(req.Name, src)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sdk.Generate(context.Background(), req)
				if err != nil {
					t.Fatalf("body %d %s package %q: %v", k, req.Name, pkg, err)
				}
				if got.Output != want.Output {
					t.Errorf("body %d %s package %q: output differs from an uncached pipeline run", k, req.Name, pkg)
				}
			}
		}
	}
	var misses, fallbacks int64
	for _, s := range srvs {
		m := s.MetricsSnapshot()
		misses += m.CacheMisses
		fallbacks += m.ForwardFallbacks
	}
	if misses != bodies {
		t.Errorf("cluster-wide cache_misses = %d, want %d (one pipeline run per distinct body)", misses, bodies)
	}
	if fallbacks != 0 {
		t.Errorf("forward_fallbacks = %d in a healthy cluster, want 0", fallbacks)
	}
}

// TestClusterHopGuard: a request arriving with the forwarded header must be
// served locally even if the receiving node does not own its key —
// otherwise two nodes with disagreeing member lists could bounce a request
// forever.
func TestClusterHopGuard(t *testing.T) {
	srvs, tss, _ := startCluster(t, 2)
	// Find an unseen body owned by node 1, then send it to node 0 with the
	// hop header already set: node 0 must generate locally, not re-forward.
	fp := srvs[0].Registry().Snapshot().Fingerprint
	var req wire.GenerateRequest
	for _, uc := range templates.All() {
		r := wire.GenerateRequest{Name: uc.File, Source: unseenBody(t, uc.ID, "hop guard")}
		if srvs[0].cluster.ownerPeer(wire.RouteKey(fp, r)) != "" {
			req = r
			break
		}
	}
	if req.Source == "" {
		t.Fatal("no template body hashes to the peer — rendezvous distribution is broken")
	}
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, tss[0].URL+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(wire.HeaderForwarded, "http://test-origin")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got wire.GenerateResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Forwarded {
		t.Error("hop-guarded request was forwarded again")
	}
	m := srvs[0].MetricsSnapshot()
	if m.ForwardedTotal != 0 {
		t.Errorf("node 0 forwarded %d requests; the hop guard must force local serving", m.ForwardedTotal)
	}
	if m.CacheMisses != 1 {
		t.Errorf("node 0 cache_misses = %d, want 1 local generation", m.CacheMisses)
	}
}

// TestClusterPeerDownFallback: when the owner of a key is unreachable, the
// receiving node serves the request locally (forward_fallbacks) instead of
// failing it, and — once the failure streak opens the peer's breaker —
// stops forwarding to it so subsequent keys are owned locally without
// paying a connect timeout each time.
func TestClusterPeerDownFallback(t *testing.T) {
	// A long probe interval keeps the background prober out of the breaker:
	// this test wants the failure streak driven by forward outcomes alone.
	srvs, tss, _ := startClusterProbe(t, 2, 10*time.Minute)
	// Kill node 1's listener; node 0 has no idea yet.
	tss[1].CloseClientConnections()
	tss[1].Close()

	ctx := context.Background()
	snap := srvs[0].Registry().Snapshot()
	cases := templates.All()
	// Peer-owned bodies by construction: vary each template's trailing
	// comment until the dead peer owns the body's key. The bodies are unseen
	// (a warmed plan would splice locally before any forward), and there is
	// one more than the default failure streak of 3, so the last arrives
	// with the breaker already open.
	var peerReqs []wire.GenerateRequest
	var peerKey string
	for i := 0; len(peerReqs) < 4; i++ {
		if i == 1000 {
			t.Fatalf("only %d of 1000 bodies are forwarded to the dead peer (peer state %+v) — rendezvous distribution or the breaker is broken",
				len(peerReqs), srvs[0].MetricsSnapshot().Peers)
		}
		uc := cases[i%len(cases)]
		r := wire.GenerateRequest{Name: uc.File, Source: unseenBody(t, uc.ID, fmt.Sprintf("peer down %d", i))}
		if key := wire.RouteKey(snap.Fingerprint, r); srvs[0].cluster.ownerPeer(key) != "" {
			peerReqs, peerKey = append(peerReqs, r), key
		}
	}
	// A single failed forward must NOT eject (one blip is not evidence),
	// but the accumulated streak across these attempts opens the breaker.
	// Each one is served locally meanwhile.
	for _, r := range peerReqs {
		resp, err := srvs[0].Generate(ctx, r)
		if err != nil {
			t.Fatalf("%s with dead owner: %v", r.Name, err)
		}
		if resp.Forwarded {
			t.Errorf("%s: response claims forwarded with the owner down", r.Name)
		}
	}
	m := srvs[0].MetricsSnapshot()
	if m.ForwardFallbacks < 1 {
		t.Errorf("forward_fallbacks = %d, want >= 1", m.ForwardFallbacks)
	}
	ps := m.Peers[srvs[1].cfg.Self]
	if ps.Healthy {
		t.Error("dead peer still marked healthy after a failure streak")
	}
	if ps.BreakerState != "open" {
		t.Errorf("dead peer breaker_state = %q, want open", ps.BreakerState)
	}
	// With the breaker open no forward attempt reaches the wire (the open
	// window matches the probe interval, far beyond this test): repeating
	// every request is spliced from a local plan or generated locally.
	before := srvs[0].MetricsSnapshot().ForwardedTotal
	for _, r := range peerReqs {
		if _, err := srvs[0].Generate(ctx, r); err != nil {
			t.Fatalf("%s after ejection: %v", r.Name, err)
		}
	}
	if after := srvs[0].MetricsSnapshot().ForwardedTotal; after != before {
		t.Errorf("open-breaker peer still receives forwards (%d -> %d)", before, after)
	}
	// A peer-owned key offered to the forwarder while the breaker is open
	// is rejected (generate locally) and the rejection is counted.
	if owner := srvs[0].cluster.ownerPeer(peerKey); owner != "" {
		t.Errorf("ownerPeer(%q) = %q while the owner's breaker is open, want local", peerKey, owner)
	}
	if got := srvs[0].MetricsSnapshot().BreakerRejects; got < 1 {
		t.Errorf("breaker_rejects = %d, want >= 1 while the peer is open", got)
	}
}

// TestClusterProbeEjectsAndReadmits drives the health prober round by
// round: a peer answering /readyz 503 (draining) stays admitted through two
// failing rounds, three open its breaker, and one healthy round closes it
// again. The cluster's own ticker is an hour long, so only the rounds this
// test calls decide the result.
func TestClusterProbeEjectsAndReadmits(t *testing.T) {
	var draining atomic.Bool
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		if draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer peer.Close()

	c := newCluster("http://self", []string{peer.URL}, time.Hour)
	defer c.close()
	status := func() wire.PeerStatus { return c.peerStatuses()[peer.URL] }

	if st := status(); !st.Healthy || st.BreakerState != "closed" {
		t.Fatalf("fresh peer status = %+v, want closed before any probe", st)
	}
	draining.Store(true)
	for round := 1; round <= 2; round++ {
		c.probeRound()
		if st := status(); !st.Healthy || st.Failures != int64(round) || st.LastError == "" {
			t.Fatalf("after %d failing rounds status = %+v, want still closed with %d failures and an error", round, st, round)
		}
	}
	c.probeRound()
	if st := status(); st.Healthy || st.BreakerState != "open" || st.LastError == "" {
		t.Fatalf("after 3 failing rounds status = %+v, want open with an error", st)
	}
	draining.Store(false)
	c.probeRound()
	if st := status(); !st.Healthy || st.BreakerState != "closed" || st.Failures != 0 || st.LastError != "" {
		t.Fatalf("after a healthy round status = %+v, want closed with cleared failures and error", st)
	}
}

// TestClusterProbeSlowPeerStaysAdmitted: slow is not dead. A peer whose
// /readyz answers in 150 ms, three times the 50 ms probe interval, passes
// three probe rounds with no failure, because a probe's timeout has a 1 s
// floor instead of following the interval. It is kept apart from
// TestClusterProbeEjectsAndReadmits so that test's repetitions do not pay
// these sleeps.
func TestClusterProbeSlowPeerStaysAdmitted(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(150 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	defer peer.Close()

	c := newCluster("http://self", []string{peer.URL}, 50*time.Millisecond)
	defer c.close()
	for round := 1; round <= 3; round++ {
		c.probeRound()
		if st := c.peerStatuses()[peer.URL]; !st.Healthy || st.BreakerState != "closed" || st.Failures != 0 || st.LastError != "" {
			t.Fatalf("after %d slow rounds status = %+v, want closed with no failure", round, st)
		}
	}
}

// TestClusterNodeKill kills one node of three under closed-loop SDK load
// and restarts it on the same address (DESIGN.md E13). The daemons' probe
// ticker is an hour long: the test drives the survivors' probe rounds
// itself, so no timer decides when they eject or re-admit the victim, and
// the load phases advance on completed requests, not wall time. The
// victim is the rendezvous owner of the working set's first key, so it
// owns traffic by construction. No request may be lost, every answer must
// match its key's first answer byte for byte, health must converge on
// every node and in the SDK, the SDK must have spent retries, and no
// goroutine may outlive the teardown. With -v it logs E13's numbers.
func TestClusterNodeKill(t *testing.T) {
	// Registered before the cluster's teardown, so it runs after it.
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			runtime.GC()
			if g := runtime.NumGoroutine(); g <= baseline {
				return
			} else if time.Now().After(deadline) {
				t.Errorf("goroutines leaked: %d after teardown vs %d before the cluster", g, baseline)
				return
			}
		}
	})
	srvs, tss, urls := startClusterProbe(t, 3, time.Hour)
	ctx := context.Background()
	sdk, err := client.New(client.Config{
		Nodes:              urls,
		MaxRetries:         4,
		BackoffBase:        5 * time.Millisecond,
		BackoffMax:         50 * time.Millisecond,
		BreakerOpenTimeout: 250 * time.Millisecond,
		RetryBudget:        100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sdk.Close()

	// Twelve unseen bodies over the paper's running example (PBE on byte
	// arrays), each its own plan and rendezvous key. Each key's first
	// answer comes from the healthy cluster, whose owners compile the
	// working set's plans.
	work := make([]wire.GenerateRequest, 12)
	first := make([]string, len(work))
	var fp string
	for k := range work {
		work[k] = wire.GenerateRequest{Name: fmt.Sprintf("kill%03d.go", k), Source: unseenBody(t, 3, fmt.Sprintf("node kill key %03d", k))}
		resp, err := sdk.Generate(ctx, work[k])
		if err != nil {
			t.Fatalf("priming key %d: %v", k, err)
		}
		first[k], fp = resp.Output, resp.Fingerprint
	}
	owner := func(req wire.GenerateRequest) string { return wire.RendezvousOwner(wire.RouteKey(fp, req), urls) }
	victimURL := owner(work[0])
	victim := slices.Index(urls, victimURL)
	victimKeys := 0
	for _, req := range work {
		if owner(req) == victimURL {
			victimKeys++
		}
	}
	if victimKeys == 0 {
		t.Fatalf("victim %s owns no working-set key", victimURL)
	}

	// call sends key k through the SDK, checks the answer against the
	// key's first one and files its latency under the current phase.
	const (
		steady = iota
		outage
		recovery
	)
	var (
		requests, lost, diverged atomic.Int64
		phase                    atomic.Int32
		latMu                    sync.Mutex
		lats                     [3][]time.Duration
	)
	call := func(k int) {
		ph, t0 := phase.Load(), time.Now()
		resp, err := sdk.Generate(ctx, work[k])
		d := time.Since(t0)
		requests.Add(1)
		switch {
		case err != nil:
			lost.Add(1)
		case resp.Output != first[k] || resp.Fingerprint != fp:
			diverged.Add(1)
		default:
			latMu.Lock()
			lats[ph] = append(lats[ph], d)
			latMu.Unlock()
		}
	}
	// Two closed-loop clients run until stop.
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-done:
					return
				default:
					call(i % len(work))
				}
			}
		}()
	}
	stop := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stop()
	// loadPhase waits until n more requests completed.
	loadPhase := func(n int64, what string) {
		t.Helper()
		target, deadline := requests.Load()+n, time.Now().Add(time.Minute)
		for requests.Load() < target {
			if time.Now().After(deadline) {
				t.Fatalf("load stalled during %s (%d requests)", what, requests.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	// probeSurvivors drives rounds probe rounds on each survivor and
	// returns the survivors' breaker states for the victim.
	probeSurvivors := func(rounds int) []string {
		var states []string
		for i, s := range srvs {
			if i == victim {
				continue
			}
			for range rounds {
				s.cluster.probeRound()
			}
			states = append(states, s.cluster.peerStatuses()[victimURL].BreakerState)
		}
		return states
	}

	const load = 60
	loadPhase(load, "steady state")
	phase.Store(outage)
	tss[victim].CloseClientConnections()
	tss[victim].Close()
	srvs[victim].Close()
	loadPhase(load, "outage")
	if st := probeSurvivors(3); !slices.Equal(st, []string{"open", "open"}) {
		t.Fatalf("after 3 probe rounds the survivors' breakers for the killed node are %v, want open", st)
	}
	phase.Store(recovery)
	srvs[victim], tss[victim] = restartNode(t, srvs[victim], tss[victim])
	restarted := time.Now()
	st := probeSurvivors(1)
	recovered := time.Since(restarted)
	if !slices.Equal(st, []string{"closed", "closed"}) {
		t.Fatalf("after a probe round the survivors' breakers for the restarted node are %v, want closed", st)
	}
	loadPhase(load, "recovery")
	stop()

	var breakerRejects int64
	for _, s := range srvs {
		breakerRejects += s.MetricsSnapshot().BreakerRejects
	}
	retries := sdk.Stats().Retries
	p99MS := func(lats []time.Duration) float64 {
		if len(lats) == 0 {
			return 0
		}
		slices.Sort(lats)
		return float64(lats[(99*len(lats)+99)/100-1]) / float64(time.Millisecond)
	}
	t.Logf("requests %d; victim %s owns %d of %d keys; steady p99 %.1f ms; FailoverP99MS %.1f; RecoveryMS %.1f; BreakerRejects %d; ClientRetries %d",
		requests.Load(), victimURL, victimKeys, len(work), p99MS(lats[steady]), p99MS(lats[outage]),
		float64(recovered)/float64(time.Millisecond), breakerRejects, retries)
	if retries == 0 {
		t.Error("the SDK spent no retries although a node it routes to was killed")
	}

	// Health converges: every node sees every peer healthy, and walking
	// the working set closes the SDK's breakers. The SDK has no probe; its
	// breakers re-admit a node through the half-open trial after
	// BreakerOpenTimeout.
	for i, s := range srvs {
		for peer, ps := range s.MetricsSnapshot().Peers {
			if !ps.Healthy || ps.BreakerState != "closed" {
				t.Errorf("node %d sees peer %s as %+v after recovery", i, peer, ps)
			}
		}
	}
	sdkClosed := func() bool {
		for _, state := range sdk.Stats().BreakerStates {
			if state != "closed" {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(5 * time.Second); !sdkClosed(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the SDK's breakers never closed: %v", sdk.Stats().BreakerStates)
		}
		for k := range work {
			call(k)
		}
	}
	if n := lost.Load(); n != 0 {
		t.Errorf("%d of %d requests lost", n, requests.Load())
	}
	if n := diverged.Load(); n != 0 {
		t.Errorf("%d of %d answers differ from their key's first answer", n, requests.Load())
	}
}

// TestClusterForwardCancelSkipsQueuedJob pins the cancellation path that
// forwarded work relies on instead of a deadline budget of its own: the
// owner's only worker is busy, so a forwarded request waits in its queue;
// when the forwarder's context ends, its http.Transport closes the
// connection, the owner's request context is cancelled, and the waiting
// request leaves the queue at once instead of compiling a plan nobody
// will read. Nothing leaks on either node.
//
// The owner notices the closed connection asynchronously, so the worker
// is released only once the owner's handler has answered the cancelled
// request (its timeouts counter moves).
func TestClusterForwardCancelSkipsQueuedJob(t *testing.T) {
	owner, err := New(Config{Workers: 1, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	ownerTS := httptest.NewServer(owner.Handler())
	t.Cleanup(func() { ownerTS.Close(); owner.Close() })
	// A long probe interval keeps the prober's connections out of the
	// goroutine count; only the forward touches the owner.
	fwd, err := New(Config{Workers: 1, CacheSize: 64, Self: "http://forwarder.test", Peers: []string{ownerTS.URL}, PeerProbeInterval: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fwd.Close)
	waitWarm(t, owner)
	waitWarm(t, fwd)

	fp := fwd.Registry().Snapshot().Fingerprint
	var req wire.GenerateRequest
	for i := 0; req.Source == ""; i++ {
		if i == 1000 {
			t.Fatal("no body of 1000 hashes to the owner — rendezvous distribution is broken")
		}
		uc := templates.All()[i%len(templates.All())]
		r := wire.GenerateRequest{Name: uc.File, Source: unseenBody(t, uc.ID, fmt.Sprintf("forward cancel %d", i))}
		if fwd.cluster.ownerPeer(wire.RouteKey(fp, r)) == ownerTS.URL {
			req = r
		}
	}
	baseline := runtime.NumGoroutine()
	before := owner.MetricsSnapshot()

	// Hold the owner's only worker.
	started, release, held := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		err := owner.pool.Submit(context.Background(), func() error {
			close(started)
			<-release
			return nil
		})
		held <- err
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := fwd.Generate(ctx, req); err == nil {
		t.Fatal("forwarded request succeeded while the owner's only worker was held")
	}
	if n := fwd.MetricsSnapshot().ForwardedTotal; n != 1 {
		t.Fatalf("forwarder made %d forwards, want 1", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for owner.MetricsSnapshot().Timeouts == before.Timeouts {
		if time.Now().After(deadline) {
			t.Fatal("the owner never saw the forwarded request cancelled")
		}
		time.Sleep(time.Millisecond)
	}
	if d := owner.pool.QueueDepth(); d != 0 {
		t.Fatalf("owner queue depth %d, want 0: the cancelled forward still waits for the held worker", d)
	}

	close(release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	// The freed worker serves the next call; the cancelled forward is
	// not among them.
	if err := owner.pool.Submit(context.Background(), func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	after := owner.MetricsSnapshot()
	if after.PlanMisses != before.PlanMisses || after.PlanEntries != before.PlanEntries {
		t.Errorf("owner ran the pipeline for a cancelled forward: plan_misses %d -> %d, plan_entries %d -> %d",
			before.PlanMisses, after.PlanMisses, before.PlanEntries, after.PlanEntries)
	}

	deadline = time.Now().Add(5 * time.Second)
	for g := runtime.NumGoroutine(); g > baseline; g = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before the forward", g, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOlderDaemonReportIgnored: a daemon that predates the report-free
// response still answers with a "report" tree. The SDK and a forwarding
// node both decode that body to the same response as a current daemon's,
// and the forwarder relays no report.
func TestOlderDaemonReportIgnored(t *testing.T) {
	want := wire.GenerateResponse{
		Name:        "hashing.go",
		Output:      "package p\n\nfunc F() string {\n\treturn \"é\\n\"\n}\n",
		Fingerprint: "fp",
		Cached:      true,
		DurationMS:  0.25,
	}
	current, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	const report = `"report":{"template":"hashing.go","methods":[{"name":"Hash","rules":[{"rule":"gca.MessageDigest","path":["c1","u1","d1"],"resolutions":["alg: derived \"SHA-256\""]}]}],"assumptions":["a"],"pushed_up":["p"]},`
	older := strings.Replace(string(current), `"ruleset_fingerprint"`, report+`"ruleset_fingerprint"`, 1)
	if older == string(current) {
		t.Fatal("test body has no ruleset_fingerprint key to insert the report before")
	}
	var answer atomic.Value // string: the body the daemon answers every generate with
	daemon := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/generate" {
			json.NewEncoder(w).Encode(wire.ReadyResponse{Status: wire.ReadyOK})
			return
		}
		io.WriteString(w, answer.Load().(string))
	}))
	t.Cleanup(daemon.Close)
	sdk, err := client.New(client.Config{Nodes: []string{daemon.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sdk.Close)
	fwd, err := New(Config{Workers: 1, CacheSize: 8, Self: "http://forwarder.test", Peers: []string{daemon.URL}, PeerProbeInterval: 10 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fwd.Close)

	// The forwarder relays the answer as its own: marked forwarded, and not
	// served from its cache.
	relayed := want
	relayed.Cached, relayed.Forwarded = false, true
	for _, body := range []string{string(current), older} {
		answer.Store(body)
		got, err := sdk.Generate(context.Background(), wire.GenerateRequest{Name: want.Name, Source: "package p"})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("SDK decoded %+v from %s, want %+v", got, body, want)
		}
		got, err, handled := fwd.forward(context.Background(), daemon.URL, want.Name, "package p", wire.GenerateRequest{})
		if err != nil || !handled {
			t.Fatalf("forward: handled=%t err=%v", handled, err)
		}
		if got != relayed {
			t.Errorf("forwarded %+v from %s, want %+v", got, body, relayed)
		}
	}
}
