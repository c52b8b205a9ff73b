package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cognicryptgen/client"
	"cognicryptgen/internal/clustertest"
	"cognicryptgen/internal/persist"
	"cognicryptgen/service"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// WarmRestartOptions configures one crash/warm-restart durability drill.
// Zero values get drill defaults.
type WarmRestartOptions struct {
	// Nodes is the cluster size (>= 2 so the cluster survives the kill).
	Nodes int
	// Clients is the closed-loop concurrency kept running across the kill.
	Clients int
	// WorkingSet is the number of distinct template keys under load. Keep
	// it a healthy multiple of Nodes so the victim owns a fair share.
	WorkingSet int
	// CacheSize is each node's plan-cache capacity.
	CacheSize int
	// Workers is each node's worker-pool size.
	Workers int
	// ProbeInterval is the peer health-probe period.
	ProbeInterval time.Duration
	// SnapshotInterval is each node's periodic snapshot cadence; the drill
	// kills crash-shaped, so only periodically-persisted state survives.
	SnapshotInterval time.Duration
	// Victim is the index of the node to crash (default 1).
	Victim int
	// Dir is where the per-node snapshot directories live ("" = a fresh
	// temp directory, removed when the drill ends).
	Dir string
}

// WarmRestartResult is one durability drill's measurement.
type WarmRestartResult struct {
	Nodes      int `json:"nodes"`
	WorkingSet int `json:"working_set"`
	// PlainRestartMS is the baseline: how long a snapshot-less node takes
	// to come back. WarmRestartMS is the same restart with a snapshot to
	// restore; the smoke gate bounds warm/plain so durability can never
	// quietly turn boot into the new outage.
	PlainRestartMS float64 `json:"plain_restart_ms"`
	WarmRestartMS  float64 `json:"warm_restart_ms"`
	// RestoreEntries is what the restarted victim reported restoring;
	// SnapshotBytes the durable file size it had written before the crash.
	RestoreEntries int64 `json:"restore_entries"`
	SnapshotBytes  int64 `json:"snapshot_bytes"`
	// RestoreHitRate is the victim's cache hit rate over the first
	// measurement window after the warm restart's boot warm — the
	// durability payoff. A cold restart scores 0 here.
	RestoreHitRate float64 `json:"restore_hit_rate"`
	// Requests/Errors cover the background load across the crash;
	// Divergence counts any response that differed from the primed answer
	// for its key (contract: 0, byte-identical output through the crash).
	Requests   int `json:"requests"`
	Errors     int `json:"errors"`
	Divergence int `json:"divergence"`
	// CorruptColdStart reports the second leg: the victim's snapshot was
	// deliberately corrupted and the node still booted clean (zero
	// restored entries) and answered byte-identically.
	CorruptColdStart bool `json:"corrupt_cold_start"`
}

// RunWarmRestart proves warm-restart durability end-to-end: a cluster
// under load has one node crash (no drain, no parting snapshot), the node
// restarts, and the drill measures what the periodic snapshot bought —
// restored entries, first-window hit rate, restart cost vs a plain
// snapshot-less restart — then corrupts the snapshot and proves the same
// crash degrades to a clean cold start instead of a crash loop.
func RunWarmRestart(ctx context.Context, opts WarmRestartOptions) (WarmRestartResult, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 3
	}
	if opts.Nodes < 2 {
		return WarmRestartResult{}, fmt.Errorf("loadgen: warm-restart drill needs >= 2 nodes, got %d", opts.Nodes)
	}
	if opts.Clients <= 0 {
		opts.Clients = 2
	}
	if opts.WorkingSet <= 0 {
		opts.WorkingSet = 24
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
	if opts.SnapshotInterval <= 0 {
		opts.SnapshotInterval = 50 * time.Millisecond
	}
	if opts.Victim <= 0 || opts.Victim >= opts.Nodes {
		opts.Victim = 1
	}
	if opts.Dir == "" {
		dir, err := os.MkdirTemp("", "ccg-warmrestart-")
		if err != nil {
			return WarmRestartResult{}, err
		}
		defer os.RemoveAll(dir)
		opts.Dir = dir
	}

	res := WarmRestartResult{Nodes: opts.Nodes, WorkingSet: opts.WorkingSet}

	// Baseline: a snapshot-less single node's kill-to-serving time. The
	// warm restart below is gated against a multiple of this, so "restore
	// the cache at boot" can never quietly become the dominant boot cost.
	plain, err := clustertest.Start(1, service.Config{Workers: opts.Workers, CacheSize: opts.CacheSize})
	if err != nil {
		return res, err
	}
	plain.Kill(0)
	t0 := time.Now()
	if err := plain.Restart(0); err != nil {
		plain.Close()
		return res, err
	}
	res.PlainRestartMS = float64(time.Since(t0)) / float64(time.Millisecond)
	plain.Close()

	cl, err := clustertest.Start(opts.Nodes, service.Config{
		Workers:           opts.Workers,
		CacheSize:         opts.CacheSize,
		PeerProbeInterval: opts.ProbeInterval,
		SnapshotDir:       opts.Dir,
		SnapshotInterval:  opts.SnapshotInterval,
	})
	if err != nil {
		return res, err
	}
	defer cl.Close()

	sdk, err := client.New(client.Config{
		Nodes:              cl.URLs(),
		MaxRetries:         4,
		BackoffBase:        5 * time.Millisecond,
		BackoffMax:         50 * time.Millisecond,
		BreakerOpenTimeout: opts.ProbeInterval,
		RetryBudget:        100,
		ProbeInterval:      -1,
	})
	if err != nil {
		return res, err
	}
	defer sdk.Close()

	uc := templates.UseCases[2]
	src, err := templates.Source(uc)
	if err != nil {
		return res, err
	}
	reqFor := func(k int) wire.GenerateRequest {
		return wire.GenerateRequest{
			Name:   fmt.Sprintf("warm%03d.go", k),
			Source: src + fmt.Sprintf("\n// warm-restart working-set key %03d\n", k),
		}
	}

	firstOut := make([]string, opts.WorkingSet)
	for k := 0; k < opts.WorkingSet; k++ {
		resp, err := sdk.Generate(ctx, reqFor(k))
		if err != nil {
			return res, fmt.Errorf("loadgen: priming key %d: %w", k, err)
		}
		firstOut[k] = resp.Output
	}

	// Make the primed state durable at a deterministic point; past here the
	// drill does not depend on the periodic writer's timing.
	victim := cl.Nodes[opts.Victim]
	if err := victim.Srv.SnapshotNow(); err != nil {
		return res, fmt.Errorf("loadgen: victim snapshot: %w", err)
	}
	res.SnapshotBytes = victim.Srv.MetricsSnapshot().SnapshotBytes
	if res.SnapshotBytes <= 0 {
		return res, fmt.Errorf("loadgen: victim reports no durable snapshot bytes")
	}

	// Background load keeps running across the crash, exactly like the
	// chaos drill: the SDK's failover must absorb the outage.
	var (
		requests   atomic.Int64
		errCount   atomic.Int64
		divergence atomic.Int64
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
				resp, err := sdk.Generate(ctx, reqFor(k))
				requests.Add(1)
				if err != nil {
					errCount.Add(1)
					continue
				}
				if resp.Output != firstOut[k] {
					divergence.Add(1)
				}
			}
		}(c)
	}
	stopLoad := func() {
		close(stop)
		wg.Wait()
		res.Requests = int(requests.Load())
		res.Errors = int(errCount.Load())
		res.Divergence = int(divergence.Load())
	}

	// Crash (no drain, no parting snapshot) and time the warm restart.
	cl.Kill(opts.Victim)
	t0 = time.Now()
	if err := cl.Restart(opts.Victim); err != nil {
		stopLoad()
		return res, err
	}
	res.WarmRestartMS = float64(time.Since(t0)) / float64(time.Millisecond)
	stopLoad()

	res.RestoreEntries = victim.Srv.MetricsSnapshot().RestoreEntries
	if res.RestoreEntries <= 0 {
		return res, fmt.Errorf("loadgen: restarted victim restored no entries")
	}
	victimURL := cl.URLs()[opts.Victim]
	if err := awaitWarm(ctx, victimURL); err != nil {
		return res, err
	}
	before := victim.Srv.MetricsSnapshot()

	// First measurement window: a fresh SDK (closed breakers) walks the
	// whole working set; the victim's own hit/miss counters since its boot
	// warm finished are the restored plans' first-contact hit rate.
	probe, err := client.New(client.Config{Nodes: cl.URLs(), MaxRetries: 4, ProbeInterval: -1})
	if err != nil {
		return res, err
	}
	defer probe.Close()
	for k := 0; k < opts.WorkingSet; k++ {
		resp, err := probe.Generate(ctx, reqFor(k))
		if err != nil {
			return res, fmt.Errorf("loadgen: post-restart key %d: %w", k, err)
		}
		if resp.Output != firstOut[k] {
			res.Divergence++
		}
	}
	m := victim.Srv.MetricsSnapshot()
	hits, misses := m.CacheHits-before.CacheHits, m.CacheMisses-before.CacheMisses
	if hits+misses > 0 {
		res.RestoreHitRate = float64(hits) / float64(hits+misses)
	}

	// Corruption leg: crash again, mangle the snapshot, and the node must
	// come back cold but clean — and still answer byte-identically.
	cl.Kill(opts.Victim)
	snapPath := filepath.Join(opts.Dir, fmt.Sprintf("node%d", opts.Victim), persist.SnapshotFile)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		return res, fmt.Errorf("loadgen: reading snapshot to corrupt: %w", err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		return res, err
	}
	if err := cl.Restart(opts.Victim); err != nil {
		return res, err
	}
	if n := victim.Srv.MetricsSnapshot().RestoreEntries; n != 0 {
		return res, fmt.Errorf("loadgen: corrupt snapshot still restored %d entries", n)
	}
	cold, err := client.New(client.Config{Nodes: cl.URLs(), MaxRetries: 4, ProbeInterval: -1})
	if err != nil {
		return res, err
	}
	defer cold.Close()
	for k := 0; k < opts.WorkingSet; k++ {
		resp, err := cold.Generate(ctx, reqFor(k))
		if err != nil {
			return res, fmt.Errorf("loadgen: post-corruption key %d: %w", k, err)
		}
		if resp.Output != firstOut[k] {
			return res, fmt.Errorf("loadgen: post-corruption output diverged for key %d", k)
		}
	}
	res.CorruptColdStart = true
	return res, ctx.Err()
}

// awaitWarm polls url's /readyz until it leaves "restoring": the node's
// boot warm has then recompiled the plans its snapshot named, so a window
// measured afterwards sees the restored state rather than racing its
// recompilation.
func awaitWarm(ctx context.Context, url string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return fmt.Errorf("loadgen: waiting for %s to warm: %w", url, err)
		}
		var ready wire.ReadyResponse
		err = json.NewDecoder(resp.Body).Decode(&ready)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("loadgen: decoding %s/readyz: %w", url, err)
		}
		if ready.Status != wire.ReadyRestoring {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}
