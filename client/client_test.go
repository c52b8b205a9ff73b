package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cognicryptgen/internal/faultinject"
	"cognicryptgen/wire"
)

// fakeNode is a scriptable daemon stand-in: it records every generate and
// batch request it receives and answers 200 echoes unless a script
// function overrides the response.
type fakeNode struct {
	ts *httptest.Server

	mu        sync.Mutex
	generates []wire.GenerateRequest
	batches   [][]wire.GenerateRequest

	// script, when set, handles /v1/generate instead of the echo (return
	// true when it wrote the response).
	script func(w http.ResponseWriter, n int, req wire.GenerateRequest) bool
	// batchScript is the same hook for /v1/generate/batch; n counts batch
	// requests seen so far (this one included).
	batchScript func(w http.ResponseWriter, n int, req wire.BatchRequest) bool
}

func newFakeNode(t *testing.T) *fakeNode {
	t.Helper()
	f := &fakeNode{}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/generate", func(w http.ResponseWriter, r *http.Request) {
		var req wire.GenerateRequest
		json.NewDecoder(r.Body).Decode(&req)
		f.mu.Lock()
		f.generates = append(f.generates, req)
		n := len(f.generates)
		script := f.script
		f.mu.Unlock()
		if script != nil && script(w, n, req) {
			return
		}
		json.NewEncoder(w).Encode(wire.GenerateResponse{Name: req.Name, Output: "out:" + f.ts.URL})
	})
	mux.HandleFunc("/v1/generate/batch", func(w http.ResponseWriter, r *http.Request) {
		var req wire.BatchRequest
		json.NewDecoder(r.Body).Decode(&req)
		f.mu.Lock()
		f.batches = append(f.batches, req.Requests)
		n := len(f.batches)
		batchScript := f.batchScript
		f.mu.Unlock()
		if batchScript != nil && batchScript(w, n, req) {
			return
		}
		resp := wire.BatchResponse{}
		for i, item := range req.Requests {
			resp.Results = append(resp.Results, wire.BatchItem{
				Index:    i,
				OK:       true,
				Response: &wire.GenerateResponse{Name: item.Name, Output: "out:" + f.ts.URL},
			})
		}
		resp.Succeeded = len(resp.Results)
		json.NewEncoder(w).Encode(resp)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeNode) generateCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.generates)
}

func writeEnvelope(w http.ResponseWriter, e *wire.Error) {
	if e.Status == http.StatusTooManyRequests && e.RetryAfterMS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((e.RetryAfterMS+999)/1000)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	json.NewEncoder(w).Encode(e)
}

func mustClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestNewStartsNoGoroutine: node health comes from request outcomes alone,
// so a client owns no background goroutine — building sixteen of them
// leaves the process's goroutine count where it was.
func TestNewStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 16; i++ {
		mustClient(t, Config{Nodes: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}})
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines %d -> %d across 16 New calls, want no growth", before, after)
	}
}

// TestRetry429HonorsRetryAfter: a 429 whose envelope carries
// retry_after_ms=80 (header: 1s) is retried on the same node after ~80ms —
// the millisecond hint wins over the coarser header, and the wait really
// happens.
func TestRetry429HonorsRetryAfter(t *testing.T) {
	node := newFakeNode(t)
	node.script = func(w http.ResponseWriter, n int, req wire.GenerateRequest) bool {
		if n == 1 {
			e := wire.NewError(http.StatusTooManyRequests, "queue full")
			e.RetryAfterMS = 80
			writeEnvelope(w, e)
			return true
		}
		return false
	}
	c := mustClient(t, Config{Nodes: []string{node.ts.URL}})
	start := time.Now()
	resp, err := c.Generate(context.Background(), wire.GenerateRequest{Name: "a.go", Source: "package p"})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Name != "a.go" {
		t.Errorf("response name = %q", resp.Name)
	}
	if got := node.generateCount(); got != 2 {
		t.Errorf("server saw %d requests, want 2 (one 429, one retry)", got)
	}
	if elapsed < 80*time.Millisecond {
		t.Errorf("retried after %v, before the 80ms Retry-After hint", elapsed)
	}
	if elapsed > 900*time.Millisecond {
		t.Errorf("retried after %v — the 1s header was used instead of the 80ms envelope hint", elapsed)
	}
}

// TestNonRetryableNeverRetried: a 400 envelope comes back exactly once, as
// a *wire.Error, with no retry traffic.
func TestNonRetryableNeverRetried(t *testing.T) {
	node := newFakeNode(t)
	node.script = func(w http.ResponseWriter, n int, req wire.GenerateRequest) bool {
		writeEnvelope(w, wire.NewError(http.StatusBadRequest, "malformed template"))
		return true
	}
	c := mustClient(t, Config{Nodes: []string{node.ts.URL}, BackoffBase: time.Millisecond})
	_, err := c.Generate(context.Background(), wire.GenerateRequest{Name: "bad.go", Source: "x"})
	var we *wire.Error
	if !errors.As(err, &we) || we.Status != http.StatusBadRequest || we.Code != wire.CodeInvalidRequest {
		t.Fatalf("err = %v, want a 400 invalid_request envelope", err)
	}
	if got := node.generateCount(); got != 1 {
		t.Errorf("server saw %d requests, want exactly 1 (400s are terminal)", got)
	}
}

// TestTransientFailover: requests starting at a connection-refused node
// fail over to the next ranked node (every request succeeds), the failure
// streak opens the dead node's breaker, and from then on no attempt
// touches it at all.
func TestTransientFailover(t *testing.T) {
	// A listener that is closed immediately: its port refuses connections.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + l.Addr().String()
	l.Close()

	live := newFakeNode(t)
	c := mustClient(t, Config{
		Nodes:          []string{deadURL, live.ts.URL},
		DisableRouting: true, // round-robin: half the requests start at the dead node
		BackoffBase:    time.Millisecond,
		BackoffMax:     4 * time.Millisecond,
	})
	// One refused connection must NOT eject the node (a blip is not a
	// streak) — but every request succeeds via failover meanwhile, and
	// round-robin keeps starting at the dead node until its streak of 3
	// opens the breaker.
	resp, err := c.Generate(context.Background(), wire.GenerateRequest{Name: "a.go", Source: "package p"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Output != "out:"+live.ts.URL {
		t.Errorf("served by %q, want the live node", resp.Output)
	}
	if st := c.Stats(); st.BreakerStates[deadURL] != "closed" {
		t.Errorf("dead node breaker state = %q after one refused connection, want closed: a single blip must not eject", st.BreakerStates[deadURL])
	}
	for i := 0; i < 7; i++ {
		if _, err := c.Generate(context.Background(), wire.GenerateRequest{Name: "a.go", Source: "package p"}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.BreakerStates[deadURL] != "open" {
		t.Errorf("dead node breaker state = %q, want open", st.BreakerStates[deadURL])
	}
	// Subsequent requests must not touch the dead node at all: its open
	// breaker takes it out of routing, so there is no first-attempt
	// connect to pay. The live node serves every one directly.
	before := live.generateCount()
	retriesBefore := c.Stats().Retries
	for i := 0; i < 5; i++ {
		if _, err := c.Generate(context.Background(), wire.GenerateRequest{Name: "b.go", Source: "package p"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := live.generateCount() - before; got != 5 {
		t.Errorf("live node saw %d of 5 post-ejection requests", got)
	}
	if got := c.Stats().Retries - retriesBefore; got != 0 {
		t.Errorf("%d retries spent after ejection, want 0 (open breaker = no doomed first attempts)", got)
	}
}

// TestBackoffCappedAndExhausted: a node answering only 503 is retried
// MaxRetries times under capped exponential backoff, then the call fails
// with the last envelope. The elapsed time pins both that backoff happened
// and that it stopped doubling at BackoffMax.
func TestBackoffCappedAndExhausted(t *testing.T) {
	node := newFakeNode(t)
	node.script = func(w http.ResponseWriter, n int, req wire.GenerateRequest) bool {
		writeEnvelope(w, wire.NewError(http.StatusServiceUnavailable, "draining"))
		return true
	}
	c := mustClient(t, Config{
		Nodes:       []string{node.ts.URL},
		MaxRetries:  4,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	})
	start := time.Now()
	_, err := c.Generate(context.Background(), wire.GenerateRequest{Name: "a.go", Source: "package p"})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected failure after exhausting retries")
	}
	var we *wire.Error
	if !errors.As(err, &we) || we.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want it to wrap the 503 envelope", err)
	}
	if got := node.generateCount(); got != 5 {
		t.Errorf("server saw %d requests, want 5 (1 + MaxRetries)", got)
	}
	// Sleeps: 10 + 20 + 20 + 20 + 20 = 90ms capped, equal-jittered to
	// [45ms, 90ms]; uncapped doubling would be 10+20+40+80+160 = 310ms
	// (jitter floor 155ms).
	if elapsed < 40*time.Millisecond {
		t.Errorf("elapsed %v: backoff did not happen", elapsed)
	}
	if elapsed > 250*time.Millisecond {
		t.Errorf("elapsed %v: backoff kept doubling past BackoffMax", elapsed)
	}
}

// TestConsistentRouting: identical requests always land on the same node,
// distinct keys use every node, and losing a node moves only the keys it
// owned (the client-side mirror of wire's rendezvous tests).
func TestConsistentRouting(t *testing.T) {
	nodes := make([]*fakeNode, 4)
	urls := make([]string, 4)
	byURL := map[string]*fakeNode{}
	for i := range nodes {
		nodes[i] = newFakeNode(t)
		urls[i] = nodes[i].ts.URL
		byURL[urls[i]] = nodes[i]
	}
	c := mustClient(t, Config{Nodes: urls, BackoffBase: time.Millisecond})

	const keys = 40
	owner := func(i int) string {
		// Ask each fake which requests it has seen.
		for _, n := range nodes {
			n.mu.Lock()
			for _, r := range n.generates {
				if r.Name == reqName(i) {
					n.mu.Unlock()
					return n.ts.URL
				}
			}
			n.mu.Unlock()
		}
		return ""
	}
	send := func(i int) {
		t.Helper()
		if _, err := c.Generate(context.Background(), wire.GenerateRequest{Name: reqName(i), Source: reqSource(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		send(i)
	}
	first := map[int]string{}
	for i := 0; i < keys; i++ {
		if first[i] = owner(i); first[i] == "" {
			t.Fatalf("request %d reached no node", i)
		}
	}
	used := map[string]bool{}
	for _, u := range first {
		used[u] = true
	}
	if len(used) != len(urls) {
		t.Errorf("%d keys used %d of %d nodes", keys, len(used), len(urls))
	}
	// Second round: every repeat lands where the first did (counts double
	// exactly on the owning node).
	counts := map[string]int{}
	for _, n := range nodes {
		counts[n.ts.URL] = n.generateCount()
	}
	for i := 0; i < keys; i++ {
		send(i)
	}
	for _, n := range nodes {
		if got := n.generateCount(); got != counts[n.ts.URL]*2 {
			t.Errorf("node %s: %d requests after repeat round, want %d", n.ts.URL, got, counts[n.ts.URL]*2)
		}
	}
	// Node loss: close one node that owns at least one key; resend all.
	// Keys owned by survivors must not move.
	lost := first[0]
	byURL[lost].ts.Close()
	for i := 0; i < keys; i++ {
		send(i)
	}
	for i := 0; i < keys; i++ {
		if first[i] == lost {
			continue
		}
		n := byURL[first[i]]
		n.mu.Lock()
		seen := 0
		for _, r := range n.generates {
			if r.Name == reqName(i) {
				seen++
			}
		}
		n.mu.Unlock()
		if seen != 3 {
			t.Errorf("key %d (owner surviving %s) seen %d times, want 3 — it reshuffled after an unrelated node died", i, first[i], seen)
		}
	}
}

func reqName(i int) string { return "t" + strconv.Itoa(i) + ".go" }

// reqSource gives request i its own template body: the routing key is
// body-level, so distinct names over one body would share one owner.
func reqSource(i int) string { return "package p // " + strconv.Itoa(i) }

// TestBatchSplitsAcrossNodes: one batch is split by key owner, sent as
// per-node sub-batches, and reassembled in the caller's order with every
// item accounted for exactly once.
func TestBatchSplitsAcrossNodes(t *testing.T) {
	nodes := make([]*fakeNode, 4)
	urls := make([]string, 4)
	for i := range nodes {
		nodes[i] = newFakeNode(t)
		urls[i] = nodes[i].ts.URL
	}
	c := mustClient(t, Config{Nodes: urls})

	var req wire.BatchRequest
	const items = 40
	for i := 0; i < items; i++ {
		req.Requests = append(req.Requests, wire.GenerateRequest{Name: reqName(i), Source: reqSource(i)})
	}
	resp, err := c.GenerateBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Succeeded != items || resp.Failed != 0 {
		t.Fatalf("succeeded/failed = %d/%d, want %d/0", resp.Succeeded, resp.Failed, items)
	}
	for i, item := range resp.Results {
		if item.Index != i {
			t.Fatalf("result %d has index %d: order was not restored after splitting", i, item.Index)
		}
		if item.Response == nil || item.Response.Name != reqName(i) {
			t.Fatalf("result %d does not correspond to request %d", i, i)
		}
	}
	splitAcross := 0
	total := 0
	for _, n := range nodes {
		n.mu.Lock()
		if len(n.batches) > 0 {
			splitAcross++
		}
		for _, b := range n.batches {
			total += len(b)
		}
		n.mu.Unlock()
	}
	if splitAcross < 2 {
		t.Errorf("batch hit %d nodes, want it split across several", splitAcross)
	}
	if total != items {
		t.Errorf("nodes received %d items in sub-batches, want exactly %d (no duplicates, no drops)", total, items)
	}
}

// TestBatchFailoverFollowsRank: when a sub-batch's owner refuses it, the
// sub-batch fails over to the runner-up of the first item's rendezvous
// rank — the node Generate would fail over to for the same key — not to
// the next node in configuration order.
func TestBatchFailoverFollowsRank(t *testing.T) {
	nodes := make(map[string]*fakeNode, 4)
	var urls []string
	for i := 0; i < 4; i++ {
		n := newFakeNode(t)
		nodes[n.ts.URL] = n
		urls = append(urls, n.ts.URL)
	}
	// A body whose runner-up is not the first non-owner in configuration
	// order, so rank order and configuration order disagree.
	var req wire.GenerateRequest
	var rank []string
	for i := 0; req.Source == ""; i++ {
		r := wire.GenerateRequest{Name: reqName(i), Source: reqSource(i)}
		rank = wire.RendezvousRank(wire.RouteKey("", r), urls)
		for _, u := range urls {
			if u != rank[0] {
				if u != rank[1] {
					req = r
				}
				break
			}
		}
	}
	nodes[rank[0]].batchScript = func(w http.ResponseWriter, n int, req wire.BatchRequest) bool {
		writeEnvelope(w, wire.NewError(http.StatusServiceUnavailable, "draining"))
		return true
	}
	c := mustClient(t, Config{Nodes: urls, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond})
	resp, err := c.GenerateBatch(context.Background(), wire.BatchRequest{Requests: []wire.GenerateRequest{req}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Succeeded != 1 {
		t.Fatalf("succeeded = %d, want 1: %+v", resp.Succeeded, resp.Results)
	}
	if got, want := resp.Results[0].Response.Output, "out:"+rank[1]; got != want {
		t.Errorf("sub-batch failed over to %q, want the rank runner-up %q", got, want)
	}
	owner := nodes[rank[0]]
	owner.mu.Lock()
	defer owner.mu.Unlock()
	if len(owner.batches) != 1 {
		t.Errorf("owner saw %d sub-batches, want the first attempt", len(owner.batches))
	}
}

// TestOpenNodeReadmittedByTrial: with no prober, a node's way back into
// routing is the half-open trial. Three failed attempts open the owner's
// breaker, after which its key is served by the runner-up without touching
// it. Once BreakerOpenTimeout has passed, exactly one trial reaches the
// node — calls made while the trial is in flight go to the runner-up — and
// the trial's success closes the breaker and teaches the client the
// fingerprint its response carries.
func TestOpenNodeReadmittedByTrial(t *testing.T) {
	a, b := newFakeNode(t), newFakeNode(t)
	byURL := map[string]*fakeNode{a.ts.URL: a, b.ts.URL: b}
	req := wire.GenerateRequest{Name: "a.go", Source: "package p"}
	// No response carries a fingerprint before the trial's, so the client
	// ranks by "" until then.
	rank := wire.RendezvousRank(wire.RouteKey("", req), []string{a.ts.URL, b.ts.URL})
	owner, runnerUp := byURL[rank[0]], byURL[rank[1]]
	trialArrived, release := make(chan struct{}), make(chan struct{})
	// A failed assertion must not leave the trial's handler blocked, or the
	// node's Close would wait on it forever.
	releaseTrial := sync.OnceFunc(func() { close(release) })
	defer releaseTrial()
	owner.script = func(w http.ResponseWriter, n int, req wire.GenerateRequest) bool {
		switch {
		case n <= 3:
			writeEnvelope(w, wire.NewError(http.StatusServiceUnavailable, "draining"))
		case n == 4:
			close(trialArrived)
			<-release
			json.NewEncoder(w).Encode(wire.GenerateResponse{Name: req.Name, Output: "out:" + owner.ts.URL, Fingerprint: "fp-trial"})
		default:
			return false
		}
		return true
	}
	const openTimeout = 100 * time.Millisecond
	c := mustClient(t, Config{
		Nodes:              []string{a.ts.URL, b.ts.URL},
		BackoffBase:        time.Millisecond,
		BackoffMax:         2 * time.Millisecond,
		BreakerOpenTimeout: openTimeout,
	})
	generate := func() string {
		t.Helper()
		resp, err := c.Generate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Output
	}
	state := func() string { return c.Stats().BreakerStates[owner.ts.URL] }

	for i := 0; i < 3; i++ {
		if got := generate(); got != "out:"+runnerUp.ts.URL {
			t.Fatalf("call %d served by %q, want the runner-up after the owner's 503", i, got)
		}
	}
	if got := state(); got != "open" {
		t.Fatalf("owner breaker = %q after 3 failed attempts, want open", got)
	}
	retries := c.Stats().Retries
	generate()
	if got := owner.generateCount(); got != 3 {
		t.Errorf("owner saw %d requests while open, want 3: an open node is not routed", got)
	}
	if got := c.Stats().Retries; got != retries {
		t.Errorf("retries %d -> %d while the owner was open, want none", retries, got)
	}

	time.Sleep(openTimeout)
	if got := state(); got != "half-open" {
		t.Fatalf("owner breaker = %q after BreakerOpenTimeout, want half-open", got)
	}
	trial := make(chan string, 1)
	go func() {
		resp, err := c.Generate(context.Background(), req)
		if err != nil {
			t.Error(err)
		}
		trial <- resp.Output
	}()
	select {
	case <-trialArrived:
	case <-time.After(5 * time.Second):
		t.Fatal("no trial reached the half-open owner")
	}
	for i := 0; i < 3; i++ {
		if got := generate(); got != "out:"+runnerUp.ts.URL {
			t.Errorf("call during the trial served by %q, want the runner-up", got)
		}
	}
	if got := owner.generateCount(); got != 4 {
		t.Errorf("owner saw %d requests, want 4: exactly one trial while half-open", got)
	}
	releaseTrial()
	if got := <-trial; got != "out:"+owner.ts.URL {
		t.Errorf("trial served by %q, want the owner", got)
	}
	if got := state(); got != "closed" {
		t.Errorf("owner breaker = %q after a successful trial, want closed", got)
	}
	if got := c.Fingerprint(); got != "fp-trial" {
		t.Errorf("fingerprint = %q, want the trial response's %q", got, "fp-trial")
	}
}

// TestBatchRetryReassembly: GenerateBatch shards a batch into per-owner
// sub-batches that run concurrently; when one owner sheds its sub-batch
// with 429 and the retry succeeds, every result must still land at its
// original request index — in order, none duplicated, none lost. Run
// under -race (scripts/verify.sh does), this also exercises the
// concurrent writes into the shared results slice.
func TestBatchRetryReassembly(t *testing.T) {
	stable := newFakeNode(t)
	flaky := newFakeNode(t)
	var flakyBatches atomic.Int64
	flaky.batchScript = func(w http.ResponseWriter, n int, req wire.BatchRequest) bool {
		if flakyBatches.Add(1) == 1 {
			e := wire.NewError(http.StatusTooManyRequests, "queue full")
			e.RetryAfterMS = 20
			writeEnvelope(w, e)
			return true
		}
		return false
	}
	// Round-robin routing interleaves the two owners: even indices go to
	// stable, odd to flaky, so the retried sub-batch's results must be
	// stitched back between the other owner's.
	c := mustClient(t, Config{
		Nodes:          []string{stable.ts.URL, flaky.ts.URL},
		DisableRouting: true,
		BackoffBase:    time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
	})
	var reqs []wire.GenerateRequest
	for i := 0; i < 9; i++ {
		reqs = append(reqs, wire.GenerateRequest{Name: fmt.Sprintf("b%02d.go", i), Source: "package p"})
	}
	resp, err := c.GenerateBatch(context.Background(), wire.BatchRequest{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(reqs) {
		t.Fatalf("results = %d, want %d", len(resp.Results), len(reqs))
	}
	if resp.Succeeded != len(reqs) {
		t.Fatalf("succeeded = %d, want %d (no item may be lost to the retried sub-batch)", resp.Succeeded, len(reqs))
	}
	seen := map[string]int{}
	for i, item := range resp.Results {
		if !item.OK || item.Response == nil {
			t.Fatalf("result %d not OK: %+v", i, item)
		}
		if item.Index != i {
			t.Errorf("result %d carries index %d", i, item.Index)
		}
		if item.Response.Name != reqs[i].Name {
			t.Errorf("result %d reassembled out of order: got %q, want %q", i, item.Response.Name, reqs[i].Name)
		}
		seen[item.Response.Name]++
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("result %q appears %d times, want exactly once", name, n)
		}
	}
	if n := flakyBatches.Load(); n < 2 {
		t.Errorf("flaky node saw %d batch requests, want >= 2 (the shed sub-batch must be retried)", n)
	}
}

// TestResponseBodyCapped: a 200 whose body exceeds the client's read cap
// is treated as a transport failure instead of being buffered whole — a
// misbehaving proxy must not balloon client memory.
func TestResponseBodyCapped(t *testing.T) {
	node := newFakeNode(t)
	node.script = func(w http.ResponseWriter, n int, req wire.GenerateRequest) bool {
		w.Write(make([]byte, maxRespBytes+1024))
		return true
	}
	c := mustClient(t, Config{Nodes: []string{node.ts.URL}, MaxRetries: -1})
	_, err := c.Generate(context.Background(), wire.GenerateRequest{Name: "a.go", Source: "package p"})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v, want the body-cap transport failure", err)
	}
}

// TestTruncatedBodyFailsOver: a 200 whose body ends short of its
// Content-Length (the connection dropped mid-body) is a transport failure,
// never a half-decoded response: the call fails over to the next ranked
// node, which serves it.
func TestTruncatedBodyFailsOver(t *testing.T) {
	a, b := newFakeNode(t), newFakeNode(t)
	byURL := map[string]*fakeNode{a.ts.URL: a, b.ts.URL: b}
	req := wire.GenerateRequest{Name: "a.go", Source: "package p"}
	// No response has carried a fingerprint yet, so the client ranks by "".
	rank := wire.RendezvousRank(wire.RouteKey("", req), []string{a.ts.URL, b.ts.URL})
	owner, runnerUp := byURL[rank[0]], byURL[rank[1]]
	owner.script = func(w http.ResponseWriter, n int, req wire.GenerateRequest) bool {
		full, _ := json.Marshal(wire.GenerateResponse{Name: req.Name, Output: "out:" + owner.ts.URL})
		w.Header().Set("Content-Length", strconv.Itoa(len(full)))
		w.Write(full[:len(full)/2])
		return true
	}
	c := mustClient(t, Config{Nodes: []string{a.ts.URL, b.ts.URL}, BackoffBase: time.Millisecond})
	resp, err := c.Generate(context.Background(), req)
	if err != nil {
		t.Fatalf("truncated body did not fail over: %v", err)
	}
	if resp.Output != "out:"+runnerUp.ts.URL {
		t.Errorf("served %q, want the runner-up %s", resp.Output, runnerUp.ts.URL)
	}
	if got := owner.generateCount(); got != 1 {
		t.Errorf("owner saw %d requests, want 1", got)
	}
	if got := c.Stats().Retries; got != 1 {
		t.Errorf("retries = %d, want exactly 1 (the failover)", got)
	}
}

// TestRetryHintPrecedence exercises post's Retry-After resolution
// directly: the envelope's millisecond hint wins over the coarser header,
// the header is the fallback when the envelope carries no hint, and a
// non-envelope 429 (a proxy in the way) still honors the header.
func TestRetryHintPrecedence(t *testing.T) {
	var mode atomic.Int64 // 0 = both, 1 = header only, 2 = non-envelope body
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		switch mode.Load() {
		case 0:
			e := wire.NewError(http.StatusTooManyRequests, "queue full")
			e.RetryAfterMS = 80
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(e.Status)
			json.NewEncoder(w).Encode(e)
		case 1:
			e := wire.NewError(http.StatusTooManyRequests, "queue full")
			e.RetryAfterMS = 0
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(e.Status)
			json.NewEncoder(w).Encode(e)
		default:
			w.Header().Set("Content-Type", "text/plain")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, "too many requests")
		}
	}))
	defer node.Close()
	c := mustClient(t, Config{Nodes: []string{node.URL}})

	check := func(m int64, want time.Duration, wantCode string, what string) {
		t.Helper()
		mode.Store(m)
		var out wire.GenerateResponse
		wireErr, retryAfter, err := c.post(context.Background(), node.URL, "/v1/generate", []byte("{}"), &out)
		if err != nil || wireErr == nil {
			t.Fatalf("%s: post err=%v wireErr=%v, want a 429 envelope", what, err, wireErr)
		}
		if wireErr.Code != wantCode {
			t.Errorf("%s: code = %q, want %q", what, wireErr.Code, wantCode)
		}
		if retryAfter != want {
			t.Errorf("%s: retryAfter = %v, want %v", what, retryAfter, want)
		}
	}
	check(0, 80*time.Millisecond, wire.CodeOverloaded, "envelope hint beats header")
	check(1, 2*time.Second, wire.CodeOverloaded, "header-only fallback")
	check(2, 2*time.Second, wire.CodeOverloaded, "non-envelope body, header honored")
}

// TestRetryBudgetExhaustion: a client-wide budget of 2 allows exactly two
// retries; the third would-be retry fails fast with the last error, and
// the refusal is counted in Stats.
func TestRetryBudgetExhaustion(t *testing.T) {
	node := newFakeNode(t)
	node.script = func(w http.ResponseWriter, n int, req wire.GenerateRequest) bool {
		writeEnvelope(w, wire.NewError(http.StatusServiceUnavailable, "draining"))
		return true
	}
	c := mustClient(t, Config{
		Nodes:       []string{node.ts.URL},
		MaxRetries:  10,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		RetryBudget: 2,
	})
	_, err := c.Generate(context.Background(), wire.GenerateRequest{Name: "a.go", Source: "package p"})
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("err = %v, want a retry-budget exhaustion", err)
	}
	var we *wire.Error
	if !errors.As(err, &we) || we.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want it to wrap the last 503 envelope", err)
	}
	if got := node.generateCount(); got != 3 {
		t.Errorf("server saw %d requests, want 3 (first attempt + 2 budgeted retries)", got)
	}
	st := c.Stats()
	if st.RetryBudgetExhausted != 1 {
		t.Errorf("retry_budget_exhausted = %d, want 1", st.RetryBudgetExhausted)
	}
	if st.Retries != 2 {
		t.Errorf("retries = %d, want 2", st.Retries)
	}
}

// TestClientTransportFaultRetry: network faults injected at the SDK's
// transport point — corrupt JSON, a mid-body cut, a refused connection —
// are retried like any organic transport failure, and the request
// succeeds once the fault's firing count is spent. Faults are
// process-global, so this test must not run in parallel.
func TestClientTransportFaultRetry(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode faultinject.Mode
		// reached counts how many requests actually hit the node: refuse
		// never dials, while cut/corrupt perform the round trip.
		reached int
	}{
		{"client-transport=corrupt:1", faultinject.ModeCorrupt, 2},
		{"client-transport=cut:1", faultinject.ModeCutBody, 2},
		{"client-transport=refuse:1", faultinject.ModeRefuse, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Reset()
			node := newFakeNode(t)
			c := mustClient(t, Config{
				Nodes:       []string{node.ts.URL},
				BackoffBase: time.Millisecond,
				BackoffMax:  2 * time.Millisecond,
			})
			faultinject.Arm(faultinject.PointClientTransport, faultinject.Fault{Mode: tc.mode, Times: 1})
			resp, err := c.Generate(context.Background(), wire.GenerateRequest{Name: "a.go", Source: "package p"})
			if err != nil {
				t.Fatalf("request did not survive the injected fault: %v", err)
			}
			if resp.Output != "out:"+node.ts.URL {
				t.Errorf("output = %q", resp.Output)
			}
			if got := node.generateCount(); got != tc.reached {
				t.Errorf("node saw %d requests, want %d", got, tc.reached)
			}
			if got := c.Stats().Retries; got != 1 {
				t.Errorf("retries = %d, want exactly 1", got)
			}
		})
	}
}

// TestClientTransportFault5xx: an injected non-envelope 500 is terminal
// under the retry policy (only 429/503 retry) and never reaches the node.
func TestClientTransportFault5xx(t *testing.T) {
	defer faultinject.Reset()
	node := newFakeNode(t)
	c := mustClient(t, Config{Nodes: []string{node.ts.URL}, BackoffBase: time.Millisecond})
	faultinject.Arm(faultinject.PointClientTransport, faultinject.Fault{Mode: faultinject.Mode5xx, Times: 1})
	_, err := c.Generate(context.Background(), wire.GenerateRequest{Name: "a.go", Source: "package p"})
	var we *wire.Error
	if !errors.As(err, &we) || we.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want a synthesized 500 envelope", err)
	}
	if got := node.generateCount(); got != 0 {
		t.Errorf("node saw %d requests, want 0 (the 5xx was synthesized at the transport)", got)
	}
}

// TestDecodedOutputsOutliveBuffers: every response body is read into a
// pooled buffer that is reused as soon as the call has decoded it, so no
// decoded string may alias that buffer. Eight goroutines call through one
// client while the node encodes into the same pool; once every buffer has
// been reused many times over, each kept Output must still equal the
// output its request was answered with. Run under -race.
func TestDecodedOutputsOutliveBuffers(t *testing.T) {
	// Outputs with and without escapes: a decoder shortcut for either kind
	// must copy too.
	output := func(name string) string {
		if len(name)%2 == 0 {
			return strings.Repeat("plain "+name+" ", 40)
		}
		return strings.Repeat("func "+name+"() {\n\treturn \"é\"\n}\n", 40)
	}
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req wire.GenerateRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		body, release, err := wire.Encode(wire.GenerateResponse{Name: req.Name, Output: output(req.Name)})
		if err != nil {
			t.Error(err)
			return
		}
		defer release()
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	}))
	defer node.Close()
	c := mustClient(t, Config{Nodes: []string{node.URL}})

	const workers, calls = 8, 50
	kept := make([][]wire.GenerateResponse, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				resp, err := c.Generate(context.Background(), wire.GenerateRequest{Name: fmt.Sprintf("w%d_%d", g, i), Source: "package p"})
				if err != nil {
					t.Error(err)
					return
				}
				kept[g] = append(kept[g], resp)
			}
		}(g)
	}
	wg.Wait()
	for _, resps := range kept {
		for _, resp := range resps {
			if want := output(resp.Name); resp.Output != want {
				t.Fatalf("%s: kept output changed after its buffer was reused:\n got %q\nwant %q", resp.Name, resp.Output, want)
			}
		}
	}
}

// TestDefaultTransportClosedByClose: the default transport is the
// Client's own pool, and Close releases every connection it holds.
func TestDefaultTransportClosedByClose(t *testing.T) {
	var (
		mu             sync.Mutex
		opened, closed int
		allClosed      = make(chan struct{}, 1)
	)
	node := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req wire.GenerateRequest
		json.NewDecoder(r.Body).Decode(&req)
		json.NewEncoder(w).Encode(wire.GenerateResponse{Name: req.Name, Output: "out"})
	}))
	node.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch st {
		case http.StateNew:
			opened++
		case http.StateClosed, http.StateHijacked:
			closed++
			if closed == opened {
				select {
				case allClosed <- struct{}{}:
				default:
				}
			}
		}
	}
	node.Start()
	defer node.Close()
	c, err := New(Config{Nodes: []string{node.URL}})
	if err != nil {
		t.Fatal(err)
	}

	const workers, calls = 8, 250
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if _, err := c.Generate(context.Background(), wire.GenerateRequest{Name: fmt.Sprintf("w%d_%d.go", g, i), Source: "package p"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	c.Close()
	select {
	case <-allClosed:
	case <-time.After(5 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("after Close, %d of %d connections are still open", opened-closed, opened)
	}
}

type countingTransport struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.base.RoundTrip(r)
}

// TestReplacedDefaultTransport: a program that swapped http.DefaultTransport
// for a RoundTripper of its own still gets a working client, which sends
// through that RoundTripper.
func TestReplacedDefaultTransport(t *testing.T) {
	orig := http.DefaultTransport
	ct := &countingTransport{base: orig}
	http.DefaultTransport = ct
	t.Cleanup(func() { http.DefaultTransport = orig })

	f := newFakeNode(t)
	c, err := New(Config{Nodes: []string{f.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Generate(context.Background(), wire.GenerateRequest{Name: "a.go", Source: "package p"}); err != nil {
		t.Fatal(err)
	}
	if ct.n.Load() == 0 {
		t.Fatal("the replaced http.DefaultTransport carried no request")
	}
}
