package loadgen

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cognicryptgen/client"
	"cognicryptgen/internal/clustertest"
	"cognicryptgen/service"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// ChaosOptions configures one node-kill failover drill. Zero values get
// drill defaults.
type ChaosOptions struct {
	// Nodes is the cluster size (needs >= 2 so a kill leaves survivors).
	Nodes int
	// Clients is the closed-loop concurrency during the drill.
	Clients int
	// WorkingSet is the number of distinct template keys under load.
	WorkingSet int
	// CacheSize is each node's plan-cache capacity.
	CacheSize int
	// Workers is each node's worker-pool size.
	Workers int
	// ProbeInterval is the peer health-probe period; recovery time is
	// gated against 2x this value by cmd/benchtables.
	ProbeInterval time.Duration
	// Victim is the index of the node to kill (default 1).
	Victim int
	// PhaseRequests is how many completed requests each phase (steady,
	// outage, recovery) must observe before the drill moves on. Counting
	// requests instead of sleeping keeps the drill meaningful on slow or
	// contended machines.
	PhaseRequests int
}

// ChaosResult is one drill's measurement — the E13 rows.
type ChaosResult struct {
	Nodes           int     `json:"nodes"`
	WorkingSet      int     `json:"working_set"`
	ProbeIntervalMS float64 `json:"probe_interval_ms"`
	// Requests/Errors cover the whole drill; the kill contract is
	// Errors == 0 (failover absorbs the outage, no accepted request lost).
	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	// Divergence counts responses that differed from the first answer for
	// their key; the contract is 0 (byte-identical output through failover).
	Divergence int `json:"divergence"`
	// SteadyP99MS is the warm-cache p99 before the kill; FailoverP99MS the
	// p99 of requests issued while the victim was down (retries, backoff,
	// and breaker routing included).
	SteadyP99MS   float64 `json:"steady_p99_ms"`
	FailoverP99MS float64 `json:"failover_p99_ms"`
	// NodeKillRecoveryMS is the time from the victim's restart until every
	// survivor's health prober re-admitted it (breaker closed again).
	NodeKillRecoveryMS float64 `json:"node_kill_recovery_ms"`
	// BreakerRejects sums the survivors' server-side breaker rejections
	// (forwards to the dead owner refused at the breaker, served locally).
	BreakerRejects int64 `json:"breaker_rejects"`
	// ClientRetries and RetryBudgetExhausted are the SDK's spend absorbing
	// the outage.
	ClientRetries        int64 `json:"client_retries"`
	RetryBudgetExhausted int64 `json:"retry_budget_exhausted"`
}

// RunChaos boots a cluster, drives closed-loop load through the SDK, kills
// one node mid-run, restarts it, and measures what the outage cost: the
// failover latency tail, the recovery time back to all-healthy, and the
// breaker/retry counters that absorbed it. Phases advance on completed
// request counts, not wall time, so the drill exercises real load on any
// machine.
func RunChaos(ctx context.Context, opts ChaosOptions) (ChaosResult, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 3
	}
	if opts.Nodes < 2 {
		return ChaosResult{}, fmt.Errorf("loadgen: chaos drill needs >= 2 nodes, got %d", opts.Nodes)
	}
	if opts.Clients <= 0 {
		opts.Clients = 2
	}
	if opts.WorkingSet <= 0 {
		opts.WorkingSet = 12
	}
	if opts.CacheSize <= 0 {
		opts.CacheSize = 64
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 250 * time.Millisecond
	}
	if opts.Victim <= 0 || opts.Victim >= opts.Nodes {
		opts.Victim = 1
	}
	if opts.PhaseRequests <= 0 {
		opts.PhaseRequests = 60
	}

	cl, err := clustertest.Start(opts.Nodes, service.Config{
		Workers:           opts.Workers,
		CacheSize:         opts.CacheSize,
		PeerProbeInterval: opts.ProbeInterval,
	})
	if err != nil {
		return ChaosResult{}, err
	}
	defer cl.Close()

	sdk, err := client.New(client.Config{
		Nodes:              cl.URLs(),
		MaxRetries:         4,
		BackoffBase:        5 * time.Millisecond,
		BackoffMax:         50 * time.Millisecond,
		BreakerOpenTimeout: opts.ProbeInterval,
		RetryBudget:        100,
		ProbeInterval:      -1, // health from request outcomes alone
	})
	if err != nil {
		return ChaosResult{}, err
	}
	defer sdk.Close()

	uc := templates.UseCases[2]
	src, err := templates.Source(uc)
	if err != nil {
		return ChaosResult{}, err
	}
	reqFor := func(k int) wire.GenerateRequest {
		return wire.GenerateRequest{
			Name:   fmt.Sprintf("chaos%03d.go", k),
			Source: src + fmt.Sprintf("\n// chaos working-set key %03d\n", k),
		}
	}

	// Prime every key once: the drill measures failover of a steady-state
	// cluster (warm caches), not cold-start cost.
	firstOut := make([]string, opts.WorkingSet)
	for k := 0; k < opts.WorkingSet; k++ {
		resp, err := sdk.Generate(ctx, reqFor(k))
		if err != nil {
			return ChaosResult{}, fmt.Errorf("loadgen: priming key %d: %w", k, err)
		}
		firstOut[k] = resp.Output
	}

	const (
		phaseSteady = iota
		phaseOutage
		phaseRecovery
	)
	var (
		phase      atomic.Int32
		requests   atomic.Int64
		errCount   atomic.Int64
		divergence atomic.Int64
		latMu      sync.Mutex
		phaseLats  [3][]time.Duration
		stop       = make(chan struct{})
		wg         sync.WaitGroup
	)
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % opts.WorkingSet
				ph := phase.Load()
				t0 := time.Now()
				resp, err := sdk.Generate(ctx, reqFor(k))
				d := time.Since(t0)
				requests.Add(1)
				if err != nil {
					errCount.Add(1)
					continue
				}
				if resp.Output != firstOut[k] {
					divergence.Add(1)
				}
				latMu.Lock()
				phaseLats[ph] = append(phaseLats[ph], d)
				latMu.Unlock()
			}
		}(c)
	}

	// Each phase ends once PhaseRequests completions demonstrably ran
	// through it.
	waitPhase := func(what string) error {
		target := requests.Load() + int64(opts.PhaseRequests)
		deadline := time.Now().Add(60 * time.Second)
		for requests.Load() < target {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("loadgen: load stalled during %s (%d requests)", what, requests.Load())
			}
			time.Sleep(5 * time.Millisecond)
		}
		return nil
	}

	var res ChaosResult
	fail := func(err error) (ChaosResult, error) {
		close(stop)
		wg.Wait()
		return res, err
	}
	if err := waitPhase("steady state"); err != nil {
		return fail(err)
	}
	phase.Store(phaseOutage)
	cl.Kill(opts.Victim)
	if err := waitPhase("outage"); err != nil {
		return fail(err)
	}
	// The outage must also last long enough for every survivor's prober to
	// notice the kill (failure streak -> breaker open). Restarting before
	// that would measure a "recovery" from an outage nobody detected.
	victimURL := cl.Nodes[opts.Victim].URL
	noticed := func() bool {
		for i, n := range cl.Nodes {
			if i == opts.Victim {
				continue
			}
			if n.Srv.MetricsSnapshot().Peers[victimURL].Healthy {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(30 * time.Second); !noticed(); {
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("loadgen: survivors never noticed the killed node"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	phase.Store(phaseRecovery)
	if err := cl.Restart(opts.Victim); err != nil {
		return fail(err)
	}
	// Recovery: the survivors' probers must re-admit the restarted node.
	restartDone := time.Now()
	for {
		allHealthy := true
		for i, n := range cl.Nodes {
			if i == opts.Victim {
				continue
			}
			if !n.Srv.MetricsSnapshot().Peers[victimURL].Healthy {
				allHealthy = false
				break
			}
		}
		if allHealthy {
			break
		}
		if time.Since(restartDone) > 30*time.Second {
			return fail(fmt.Errorf("loadgen: survivors never re-admitted the restarted node"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	recovery := time.Since(restartDone)
	if err := waitPhase("recovery"); err != nil {
		return fail(err)
	}
	close(stop)
	wg.Wait()

	var rejects int64
	for _, n := range cl.Nodes {
		rejects += n.Srv.MetricsSnapshot().BreakerRejects
	}
	st := sdk.Stats()
	res = ChaosResult{
		Nodes:                opts.Nodes,
		WorkingSet:           opts.WorkingSet,
		ProbeIntervalMS:      float64(opts.ProbeInterval) / float64(time.Millisecond),
		Requests:             int(requests.Load()),
		Errors:               int(errCount.Load()),
		Divergence:           int(divergence.Load()),
		NodeKillRecoveryMS:   float64(recovery) / float64(time.Millisecond),
		BreakerRejects:       rejects,
		ClientRetries:        st.Retries,
		RetryBudgetExhausted: st.RetryBudgetExhausted,
	}
	_, res.SteadyP99MS = quantilesMS(phaseLats[phaseSteady])
	_, res.FailoverP99MS = quantilesMS(phaseLats[phaseOutage])
	return res, ctx.Err()
}
