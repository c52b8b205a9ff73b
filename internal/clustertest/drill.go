package clustertest

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cognicryptgen/client"
	"cognicryptgen/service"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// Fault names a drill's fault plan: what the engine does to the cluster
// between priming the working set and requiring it to converge.
type Fault int

const (
	// NoFault answers the working set from a healthy cluster, hash-routed
	// and round-robin, against a standalone node's answers.
	NoFault Fault = iota
	// KillRestart kills the victim under client load, waits until every
	// survivor has noticed, restarts it and times its re-admission.
	KillRestart
)

// Drill is one row of the cluster drill table.
type Drill struct {
	Name  string
	Nodes int
	// Server is every node's configuration. Start sets Self and Peers.
	Server service.Config
	// Client is the SDK configuration; Run fills in Nodes.
	Client client.Config
	// Work is the working set. Its first key picks the victim, so the
	// victim always owns traffic.
	Work []wire.GenerateRequest
	// Load is the request count of each load phase (KillRestart).
	Load  int
	Fault Fault
	// Checks are the row's own assertions, made after the shared ones.
	Checks []Check
}

// Check is one assertion over a drill's Report.
type Check struct {
	What string
	OK   func(Report) bool
}

// Report is what one drill run observed; fields the fault plan does not
// exercise stay zero.
type Report struct {
	// Requests counts the drill's requests, Errors the failed ones, and
	// Divergence the answers whose output or rule-set fingerprint differed
	// from the key's first answer.
	Requests, Errors, Divergence int
	// Converged: after the fault every node sees every peer healthy with a
	// closed breaker, and so does the drill's client. Settled: goroutines
	// returned to the pre-drill baseline after teardown.
	Converged, Settled bool
	// Victim is the faulted node, VictimKeys how many keys it owns.
	Victim     string
	VictimKeys int

	// NoFault: cluster-wide forwards, local fallbacks and pipeline runs.
	Forwarded, Fallbacks, Generations int64

	// KillRestart: the p99 before and during the outage; restart until
	// every survivor re-admitted the victim; server-side breaker
	// rejections; the drill client's retry spend.
	SteadyP99MS, FailoverP99MS          float64
	RecoveryMS                          float64
	BreakerRejects                      int64
	ClientRetries, RetryBudgetExhausted int64
}

// failover is the client of the drills that take a node down under load:
// quick retries and a short breaker open window.
var failover = client.Config{
	MaxRetries:         4,
	BackoffBase:        5 * time.Millisecond,
	BackoffMax:         50 * time.Millisecond,
	BreakerOpenTimeout: 250 * time.Millisecond,
	RetryBudget:        100,
}

// Drills is the cluster drill table. TestDrills runs every row; with -v
// it logs each row's Report, the source of the E13 numbers.
var Drills = []Drill{
	{
		Name:   "smoke",
		Nodes:  3,
		Server: service.Config{Workers: 2, CacheSize: 64, PeerProbeInterval: 100 * time.Millisecond},
		Work:   catalogue(),
		Fault:  NoFault,
		Checks: []Check{
			{"round-robin requests forwarded to owners", func(r Report) bool { return r.Forwarded > 0 }},
			{"no local fallback", func(r Report) bool { return r.Fallbacks == 0 }},
			{"one pipeline run per body", func(r Report) bool { return r.Generations == int64(len(catalogue())) }},
		},
	},
	{
		Name:   "node-kill",
		Nodes:  3,
		Server: service.Config{Workers: 2, CacheSize: 64, PeerProbeInterval: 250 * time.Millisecond},
		Client: failover,
		Work:   bodies("kill", 12),
		Load:   60,
		Fault:  KillRestart,
		Checks: []Check{{"client spent retries", func(r Report) bool { return r.ClientRetries > 0 }}},
	},
}

// shared are the assertions every drill makes.
var shared = []Check{
	{"zero lost requests", func(r Report) bool { return r.Errors == 0 }},
	{"byte-identical to each key's first answer", func(r Report) bool { return r.Divergence == 0 }},
	{"victim owns working-set keys", func(r Report) bool { return r.Victim == "" || r.VictimKeys > 0 }},
	{"health and breakers converged", func(r Report) bool { return r.Converged }},
	{"goroutines back to baseline", func(r Report) bool { return r.Settled }},
}

// catalogue is the 13 embedded templates, verified.
func catalogue() []wire.GenerateRequest {
	var work []wire.GenerateRequest
	for _, uc := range templates.All() {
		work = append(work, wire.GenerateRequest{UseCase: uc.ID, Verify: true})
	}
	return work
}

// bodies is n distinct template bodies over the paper's running example
// (PBE on byte arrays): the per-key comment makes each its own plan and
// rendezvous owner, so a miss costs a full pipeline run.
func bodies(tag string, n int) []wire.GenerateRequest {
	src, err := templates.Source(templates.UseCases[2])
	if err != nil {
		panic(err) // the template table is embedded
	}
	work := make([]wire.GenerateRequest, n)
	for k := range work {
		work[k] = wire.GenerateRequest{
			Name:   fmt.Sprintf("%s%03d.go", tag, k),
			Source: src + fmt.Sprintf("\n// %s working-set key %03d\n", tag, k),
		}
	}
	return work
}

// victimFor returns the index in urls of the rendezvous owner of the
// working set's first key, and how many keys of the set it owns.
func victimFor(fingerprint string, work []wire.GenerateRequest, urls []string) (victim, keys int) {
	owner := func(req wire.GenerateRequest) string {
		return wire.RendezvousOwner(wire.RouteKey(fingerprint, req), urls)
	}
	first := owner(work[0])
	for _, req := range work {
		if owner(req) == first {
			keys++
		}
	}
	return slices.Index(urls, first), keys
}

// Run boots d's cluster, drives its fault plan, tears everything down and
// makes the shared assertions and then d.Checks. The error names every
// failed assertion; the Report is returned either way.
func Run(ctx context.Context, d Drill) (Report, error) {
	baseline := runtime.NumGoroutine()
	x := &drillRun{d: d, ctx: ctx}
	err := x.run()
	x.r.Requests = int(x.requests.Load())
	x.r.Errors = int(x.errors.Load())
	x.r.Divergence = int(x.divergence.Load())
	if err != nil {
		return x.r, fmt.Errorf("drill %s: %w", d.Name, err)
	}
	x.r.Settled = x.waitFor(5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+5
	})
	var failed []string
	for _, c := range append(append([]Check(nil), shared...), d.Checks...) {
		if !c.OK(x.r) {
			failed = append(failed, c.What)
		}
	}
	if failed != nil {
		return x.r, fmt.Errorf("drill %s failed: %s", d.Name, strings.Join(failed, "; "))
	}
	return x.r, nil
}

// drillRun is one execution of a Drill.
type drillRun struct {
	d   Drill
	ctx context.Context
	r   Report

	cl     *Cluster
	sdk    *client.Client
	victim int // index into cl.Nodes

	// first holds each working-set key's first answer, fp the rule-set
	// fingerprint it came with.
	first []string
	fp    string

	requests, errors, divergence atomic.Int64

	// phase files background-load latencies: steady, outage, recovery.
	phase atomic.Int32
	latMu sync.Mutex
	lats  [3][]time.Duration
}

func (x *drillRun) run() error {
	cl, err := Start(x.d.Nodes, x.d.Server)
	if err != nil {
		return err
	}
	defer cl.Close()
	x.cl = cl
	if x.sdk, err = x.client(); err != nil {
		return err
	}
	defer x.sdk.Close()
	// A fault hits a steady-state cluster whose plans its first answers
	// warmed; the smoke drill compares the cluster with a standalone node.
	ref := cl
	if x.d.Fault == NoFault {
		if ref, err = Start(1, x.d.Server); err != nil {
			return err
		}
		defer ref.Close()
	}
	if err := x.prime(ref); err != nil {
		return err
	}
	if x.d.Fault != NoFault {
		x.victim, x.r.VictimKeys = victimFor(x.fp, x.d.Work, cl.URLs())
		x.r.Victim = cl.Nodes[x.victim].URL
	}
	switch x.d.Fault {
	case NoFault:
		err = x.smoke()
	case KillRestart:
		err = x.killRestart()
	default:
		err = fmt.Errorf("unknown fault plan %d", x.d.Fault)
	}
	if err != nil {
		return err
	}
	x.r.Converged = x.converge()
	return nil
}

// client builds an SDK over the cluster from the drill's configuration.
func (x *drillRun) client() (*client.Client, error) {
	cfg := x.d.Client
	cfg.Nodes = x.cl.URLs()
	return client.New(cfg)
}

// prime records every working-set key's first answer from c.
func (x *drillRun) prime(c *Cluster) error {
	sdk, err := client.New(client.Config{Nodes: c.URLs()})
	if err != nil {
		return err
	}
	defer sdk.Close()
	x.first = make([]string, len(x.d.Work))
	for k, req := range x.d.Work {
		resp, err := sdk.Generate(x.ctx, req)
		if err != nil {
			return fmt.Errorf("priming key %d: %w", k, err)
		}
		x.first[k], x.fp = resp.Output, resp.Fingerprint
	}
	return nil
}

// call issues working-set key k through c and checks the answer against
// the key's first one.
func (x *drillRun) call(c *client.Client, k int) (time.Duration, error) {
	t0 := time.Now()
	resp, err := c.Generate(x.ctx, x.d.Work[k])
	d := time.Since(t0)
	x.requests.Add(1)
	if err != nil {
		x.errors.Add(1)
		return d, err
	}
	if resp.Output != x.first[k] || resp.Fingerprint != x.fp {
		x.divergence.Add(1)
	}
	return d, nil
}

// walk calls every working-set key once through c.
func (x *drillRun) walk(c *client.Client) error {
	for k := range x.d.Work {
		if _, err := x.call(c, k); err != nil {
			return fmt.Errorf("key %d: %w", k, err)
		}
	}
	return nil
}

// waitFor polls cond until it holds or d passes.
func (x *drillRun) waitFor(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) || x.ctx.Err() != nil {
			return false
		}
	}
	return true
}

// peersHealthy reports whether every live node sees every peer (or, with
// url set, that one peer) healthy with a closed breaker.
func (x *drillRun) peersHealthy(url string) bool {
	for _, n := range x.cl.Nodes {
		if n.killed || n.URL == url {
			continue
		}
		for peer, ps := range n.Srv.MetricsSnapshot().Peers {
			if (url == "" || peer == url) && (!ps.Healthy || ps.BreakerState != "closed") {
				return false
			}
		}
	}
	return true
}

// converge waits until every node re-admits every peer and walking the
// working set has closed every breaker of the drill's client.
func (x *drillRun) converge() bool {
	return x.waitFor(5*time.Second, func() bool { return x.peersHealthy("") }) &&
		x.waitFor(5*time.Second, func() bool {
			if x.walk(x.sdk) != nil {
				return false
			}
			for _, state := range x.sdk.Stats().BreakerStates {
				if state != "closed" {
					return false
				}
			}
			return true
		})
}

// background runs closed-loop clients over the working set until the
// returned stop is called (once or more), filing each latency under the
// phase its request was sent in.
func (x *drillRun) background(clients int) (stop func()) {
	done := make(chan struct{})
	var (
		wg   sync.WaitGroup
		once sync.Once
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				ph := x.phase.Load()
				if d, err := x.call(x.sdk, i%len(x.d.Work)); err == nil {
					x.latMu.Lock()
					x.lats[ph] = append(x.lats[ph], d)
					x.latMu.Unlock()
				}
			}
		}()
	}
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
}

// loadPhase waits until n more requests completed: phases advance on
// completed work, not wall time, so they mean the same on a slow box.
func (x *drillRun) loadPhase(n int, what string) error {
	target := x.requests.Load() + int64(n)
	if !x.waitFor(60*time.Second, func() bool { return x.requests.Load() >= target }) {
		return fmt.Errorf("load stalled during %s (%d requests)", what, x.requests.Load())
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func p99MS(lats []time.Duration) float64 {
	if len(lats) == 0 {
		return 0
	}
	slices.Sort(lats)
	return ms(lats[(99*len(lats)+99)/100-1])
}

func (x *drillRun) killRestart() error {
	const (
		steady = iota
		outage
		recovery
	)
	stop := x.background(2)
	defer stop()
	if err := x.loadPhase(x.d.Load, "steady state"); err != nil {
		return err
	}
	x.phase.Store(outage)
	x.cl.Kill(x.victim)
	if err := x.loadPhase(x.d.Load, "outage"); err != nil {
		return err
	}
	// Restarting before every survivor's prober noticed the kill would
	// measure a recovery from an outage nobody detected.
	url := x.r.Victim
	noticed := x.waitFor(30*time.Second, func() bool {
		for _, n := range x.cl.Nodes {
			if n.URL != url && n.Srv.MetricsSnapshot().Peers[url].Healthy {
				return false
			}
		}
		return true
	})
	if !noticed {
		return fmt.Errorf("survivors never noticed the killed node")
	}
	x.phase.Store(recovery)
	if err := x.cl.Restart(x.victim); err != nil {
		return err
	}
	restarted := time.Now()
	if !x.waitFor(30*time.Second, func() bool { return x.peersHealthy(url) }) {
		return fmt.Errorf("survivors never re-admitted the restarted node")
	}
	x.r.RecoveryMS = ms(time.Since(restarted))
	if err := x.loadPhase(x.d.Load, "recovery"); err != nil {
		return err
	}
	stop()

	for _, n := range x.cl.Nodes {
		x.r.BreakerRejects += n.Srv.MetricsSnapshot().BreakerRejects
	}
	st := x.sdk.Stats()
	x.r.ClientRetries, x.r.RetryBudgetExhausted = st.Retries, st.RetryBudgetExhausted
	x.r.SteadyP99MS, x.r.FailoverP99MS = p99MS(x.lats[steady]), p99MS(x.lats[outage])
	return nil
}

// smoke walks the working set through the hash-routed client, then three
// times through a round-robin one, whose requests reach their owners only
// by the daemons' own forwarding.
func (x *drillRun) smoke() error {
	if err := x.walk(x.sdk); err != nil {
		return fmt.Errorf("routed: %w", err)
	}
	cfg := x.d.Client
	cfg.Nodes, cfg.DisableRouting = x.cl.URLs(), true
	rr, err := client.New(cfg)
	if err != nil {
		return err
	}
	defer rr.Close()
	for round := 0; round < 3; round++ {
		if err := x.walk(rr); err != nil {
			return fmt.Errorf("round-robin: %w", err)
		}
	}
	for _, n := range x.cl.Nodes {
		m := n.Srv.MetricsSnapshot()
		x.r.Forwarded += m.ForwardedTotal
		x.r.Fallbacks += m.ForwardFallbacks
		x.r.Generations += m.CacheMisses
	}
	return nil
}
