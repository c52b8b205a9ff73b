// Command loadgen drives synthetic load through an in-process cryptgend
// cluster via the client SDK and prints throughput, latency quantiles,
// and per-node cache/forward counters.
//
// Closed loop (default): -clients goroutines issue -requests total
// requests back-to-back. Open loop: -rate N issues N arrivals/second for
// -duration regardless of completions (measures behavior under offered
// load rather than sustainable load).
//
//	go run ./cmd/loadgen -nodes 4 -clients 8 -requests 2000
//	go run ./cmd/loadgen -nodes 4 -rate 500 -duration 5s
//	go run ./cmd/loadgen -smoke
//	go run ./cmd/loadgen -chaos
//	go run ./cmd/loadgen -warmrestart
//	go run ./cmd/loadgen -hedge
//
// -chaos runs the node-kill failover drill instead of a load run: a
// 3-node cluster under continuous SDK load has one node killed mid-run
// and restarted; the drill fails unless every request succeeded with
// byte-identical output, and it reports the failover latency tail,
// recovery time, and breaker/retry spend.
//
// -warmrestart runs the crash/warm-restart durability drill: a
// snapshot-enabled node is crashed mid-load (no drain, no parting
// snapshot) and restarted; the drill fails unless the node restored its
// cache (first-window hits, byte-identical answers) and a corrupted
// snapshot degrades to a clean cold start.
//
// -hedge runs the hedged-request tail drill: one node gets injected
// client-path latency (slow but healthy — invisible to breakers) and the
// drill fails unless hedging wins races and beats the unhedged p99 within
// the retry budget.
//
// -smoke ignores the workload flags and runs the cluster correctness
// smoke instead: boots a standalone node and a 3-node cluster, routes all
// 13 embedded templates through the SDK against both, asserts the cluster
// output is byte-identical to standalone, then runs an unrouted
// (round-robin) pass and asserts the daemons forwarded to cache owners.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"cognicryptgen/client"
	"cognicryptgen/internal/clustertest"
	"cognicryptgen/internal/loadgen"
	"cognicryptgen/service"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		nodes      = flag.Int("nodes", 1, "cluster size (in-process nodes)")
		clients    = flag.Int("clients", 8, "closed-loop concurrency")
		requests   = flag.Int("requests", 800, "closed-loop total requests")
		rate       = flag.Float64("rate", 0, "open-loop arrivals per second (0 = closed loop)")
		duration   = flag.Duration("duration", 5*time.Second, "open-loop run length")
		workingSet = flag.Int("working-set", 160, "distinct template keys in the workload")
		cacheSize  = flag.Int("cache", 64, "per-node plan cache capacity")
		workers    = flag.Int("workers", 2, "per-node worker pool size")
		noRouting  = flag.Bool("no-routing", false, "SDK round-robins instead of hash-routing (daemons forward)")
		seed       = flag.Int64("seed", 1, "workload key sequence seed")
		jsonOut    = flag.String("json", "", "write the run result as JSON to this file")
		smoke      = flag.Bool("smoke", false, "run the cluster correctness smoke instead of a load run")
		chaos      = flag.Bool("chaos", false, "run the node-kill failover drill instead of a load run")
		warmboot   = flag.Bool("warmrestart", false, "run the crash/warm-restart durability drill instead of a load run")
		hedge      = flag.Bool("hedge", false, "run the hedged-request tail drill instead of a load run")
	)
	flag.Parse()

	ctx := context.Background()
	if *smoke {
		if err := runSmoke(ctx); err != nil {
			log.Fatalf("smoke FAILED: %v", err)
		}
		return
	}
	if *chaos {
		if err := runChaos(ctx, *jsonOut); err != nil {
			log.Fatalf("chaos drill FAILED: %v", err)
		}
		return
	}
	if *warmboot {
		if err := runWarmRestart(ctx, *jsonOut); err != nil {
			log.Fatalf("warm-restart drill FAILED: %v", err)
		}
		return
	}
	if *hedge {
		if err := runHedge(ctx, *jsonOut); err != nil {
			log.Fatalf("hedge drill FAILED: %v", err)
		}
		return
	}

	res, err := loadgen.Run(ctx, loadgen.Options{
		Nodes:          *nodes,
		Clients:        *clients,
		Requests:       *requests,
		Rate:           *rate,
		Duration:       *duration,
		WorkingSet:     *workingSet,
		CacheSize:      *cacheSize,
		Workers:        *workers,
		DisableRouting: *noRouting,
		Seed:           *seed,
	})
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	printResult(res)
	if *jsonOut != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatalf("marshal: %v", err)
		}
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			log.Fatalf("write %s: %v", *jsonOut, err)
		}
		log.Printf("wrote %s", *jsonOut)
	}
}

func printResult(res loadgen.Result) {
	routing := "hash-routed"
	if !res.Routed {
		routing = "round-robin (daemon forwarding)"
	}
	fmt.Printf("%d node(s), %s loop, %s; working set %d keys, per-node cache %d\n",
		res.Nodes, res.Mode, routing, res.WorkingSet, res.CacheSize)
	fmt.Printf("  %d requests in %.2fs -> %.1f req/s, p50 %.2fms, p99 %.2fms, %d errors\n",
		res.Requests, res.DurationS, res.RPS, res.P50MS, res.P99MS, res.Errors)
	for i, n := range res.PerNode {
		fmt.Printf("  node %d: hit_rate %.2f (hits %d, generations %d), coalesced %d, shed %d, forwarded %d (hits %d, fallbacks %d)\n",
			i, n.CacheHitRate, n.CacheHits, n.CacheMisses, n.Coalesced, n.ShedTotal,
			n.ForwardedTotal, n.ForwardHits, n.ForwardFallbacks)
	}
	if fhr := res.AggregateForwardHitRate(); fhr > 0 {
		fmt.Printf("  aggregate forward hit rate: %.2f\n", fhr)
	}
}

// runChaos runs the node-kill failover drill and enforces its contract:
// zero failed requests and zero diverging responses across a kill and
// restart of one node in three.
func runChaos(ctx context.Context, jsonOut string) error {
	res, err := loadgen.RunChaos(ctx, loadgen.ChaosOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("chaos drill: %d nodes, %d-key working set, probe every %.0fms\n",
		res.Nodes, res.WorkingSet, res.ProbeIntervalMS)
	fmt.Printf("  %d requests across kill+restart: %d errors, %d diverging responses\n",
		res.Requests, res.Errors, res.Divergence)
	fmt.Printf("  p99 steady %.2fms -> failover %.2fms; recovery to all-healthy %.1fms\n",
		res.SteadyP99MS, res.FailoverP99MS, res.NodeKillRecoveryMS)
	fmt.Printf("  absorbed by: %d client retries (%d budget exhaustions), %d server breaker rejects\n",
		res.ClientRetries, res.RetryBudgetExhausted, res.BreakerRejects)
	if jsonOut != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s", jsonOut)
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed — failover lost accepted requests", res.Errors, res.Requests)
	}
	if res.Divergence > 0 {
		return fmt.Errorf("%d responses diverged from their key's first answer", res.Divergence)
	}
	if res.ClientRetries == 0 {
		return fmt.Errorf("client spent no retries — the kill was not exercised under load")
	}
	log.Printf("chaos drill ok")
	return nil
}

// runWarmRestart runs the crash/warm-restart durability drill and enforces
// its contract: the crashed node restores entries and serves them
// byte-identically on first contact, and a corrupted snapshot cold-starts
// cleanly.
func runWarmRestart(ctx context.Context, jsonOut string) error {
	res, err := loadgen.RunWarmRestart(ctx, loadgen.WarmRestartOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("warm-restart drill: %d nodes, %d-key working set\n", res.Nodes, res.WorkingSet)
	fmt.Printf("  crash -> restart %.1fms (plain restart %.1fms); restored %d entries from %d snapshot bytes\n",
		res.WarmRestartMS, res.PlainRestartMS, res.RestoreEntries, res.SnapshotBytes)
	fmt.Printf("  first-window hit rate on the restored node: %.2f\n", res.RestoreHitRate)
	fmt.Printf("  %d background requests across the crash: %d errors, %d diverging responses; corrupt-snapshot cold start: %v\n",
		res.Requests, res.Errors, res.Divergence, res.CorruptColdStart)
	if jsonOut != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s", jsonOut)
	}
	if res.Divergence > 0 {
		return fmt.Errorf("%d responses diverged across the crash/restart", res.Divergence)
	}
	if res.RestoreHitRate <= 0 {
		return fmt.Errorf("restored node served no first-window cache hits (hit rate %.2f)", res.RestoreHitRate)
	}
	if !res.CorruptColdStart {
		return fmt.Errorf("corrupt-snapshot leg did not complete")
	}
	log.Printf("warm-restart drill ok")
	return nil
}

// runHedge runs the hedged-request tail drill and enforces its contract:
// hedges fire and win against a slow-but-healthy node, the hedged p99
// beats the unhedged p99, and the retry budget is never exhausted.
func runHedge(ctx context.Context, jsonOut string) error {
	res, err := loadgen.RunHedge(ctx, loadgen.HedgeOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("hedge drill: %d nodes, %d-key working set, %.0fms injected latency on one node\n",
		res.Nodes, res.WorkingSet, res.SlowLatencyMS)
	fmt.Printf("  p99 unhedged %.2fms -> hedged %.2fms (%d hedges, %d wins, %d budget exhaustions)\n",
		res.UnhedgedP99MS, res.HedgedP99MS, res.HedgedTotal, res.HedgeWins, res.RetryBudgetExhausted)
	fmt.Printf("  %d requests per pass: %d errors, %d diverging responses\n", res.Requests, res.Errors, res.Divergence)
	if jsonOut != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
		log.Printf("wrote %s", jsonOut)
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d requests failed", res.Errors)
	}
	if res.Divergence > 0 {
		return fmt.Errorf("%d hedged responses diverged", res.Divergence)
	}
	if res.HedgeWins == 0 {
		return fmt.Errorf("no hedge ever won — hedging did not engage against the slow node")
	}
	if res.RetryBudgetExhausted != 0 {
		return fmt.Errorf("hedging exhausted the retry budget %d time(s)", res.RetryBudgetExhausted)
	}
	if res.HedgedP99MS >= res.UnhedgedP99MS {
		return fmt.Errorf("hedged p99 %.2fms did not beat unhedged %.2fms", res.HedgedP99MS, res.UnhedgedP99MS)
	}
	log.Printf("hedge drill ok")
	return nil
}

// allUseCases is Table 1 plus the extensions — the 13 embedded templates.
func allUseCases() []templates.UseCase {
	return append(append([]templates.UseCase(nil), templates.UseCases...), templates.Extensions...)
}

// runSmoke is the scripted cluster correctness check used by
// scripts/verify.sh.
func runSmoke(ctx context.Context) error {
	cfg := service.Config{Workers: 2, CacheSize: 64, PeerProbeInterval: 100 * time.Millisecond}
	cases := allUseCases()

	// Reference outputs from a standalone node.
	single, err := clustertest.Start(1, cfg)
	if err != nil {
		return fmt.Errorf("standalone boot: %w", err)
	}
	defer single.Close()
	ref := make(map[int]wire.GenerateResponse, len(cases))
	{
		sdk, err := client.New(client.Config{Nodes: single.URLs(), ProbeInterval: -1})
		if err != nil {
			return err
		}
		defer sdk.Close()
		for _, uc := range cases {
			resp, err := sdk.Generate(ctx, wire.GenerateRequest{UseCase: uc.ID, Verify: true})
			if err != nil {
				return fmt.Errorf("standalone usecase %d (%s): %w", uc.ID, uc.Name, err)
			}
			ref[uc.ID] = resp
		}
	}
	log.Printf("standalone: generated %d templates", len(ref))

	// A 3-node cluster must produce byte-identical output through the
	// hash-routed SDK.
	cluster, err := clustertest.Start(3, cfg)
	if err != nil {
		return fmt.Errorf("cluster boot: %w", err)
	}
	defer cluster.Close()
	routed, err := client.New(client.Config{Nodes: cluster.URLs(), ProbeInterval: -1})
	if err != nil {
		return err
	}
	defer routed.Close()
	for _, uc := range cases {
		resp, err := routed.Generate(ctx, wire.GenerateRequest{UseCase: uc.ID, Verify: true})
		if err != nil {
			return fmt.Errorf("cluster usecase %d (%s): %w", uc.ID, uc.Name, err)
		}
		want := ref[uc.ID]
		if resp.Output != want.Output {
			return fmt.Errorf("usecase %d (%s): cluster output differs from standalone", uc.ID, uc.Name)
		}
		if resp.Fingerprint != want.Fingerprint {
			return fmt.Errorf("usecase %d (%s): fingerprint %s != standalone %s", uc.ID, uc.Name, resp.Fingerprint, want.Fingerprint)
		}
	}
	log.Printf("3-node cluster: all %d templates byte-identical to standalone", len(cases))

	// An unrouted pass sends requests to arbitrary nodes; the daemons must
	// forward non-owned keys to their owners and serve owner-cached output.
	rr, err := client.New(client.Config{Nodes: cluster.URLs(), DisableRouting: true, ProbeInterval: -1})
	if err != nil {
		return err
	}
	defer rr.Close()
	for round := 0; round < 3; round++ {
		for _, uc := range cases {
			resp, err := rr.Generate(ctx, wire.GenerateRequest{UseCase: uc.ID, Verify: true})
			if err != nil {
				return fmt.Errorf("round-robin usecase %d (%s): %w", uc.ID, uc.Name, err)
			}
			if resp.Output != ref[uc.ID].Output {
				return fmt.Errorf("round-robin usecase %d (%s): output differs from standalone", uc.ID, uc.Name)
			}
		}
	}
	var forwarded, fwdHits, fallbacks, generations int64
	for _, n := range cluster.Nodes {
		m := n.Srv.MetricsSnapshot()
		forwarded += m.ForwardedTotal
		fwdHits += m.ForwardHits
		fallbacks += m.ForwardFallbacks
		generations += m.CacheMisses
	}
	if forwarded == 0 {
		return fmt.Errorf("round-robin pass produced no peer forwards (forwarded_total == 0)")
	}
	if fallbacks != 0 {
		return fmt.Errorf("healthy cluster fell back to local generation %d time(s)", fallbacks)
	}
	if generations != int64(len(cases)) {
		return fmt.Errorf("cluster ran %d generations for %d distinct templates (shared cache broken)", generations, len(cases))
	}
	log.Printf("forwarding: forwarded_total=%d forward_hits=%d fallbacks=0; %d generations for %d templates",
		forwarded, fwdHits, generations, len(cases))
	log.Printf("cluster smoke ok")
	return nil
}
