// Command cryptgend is the CogniCryptGEN generation daemon: the full
// pipeline (rule compilation, path enumeration, generation, verification,
// misuse analysis) behind a long-running HTTP JSON API.
//
//	cryptgend                          serve on :8572 with one worker per CPU
//	cryptgend -addr :9000 -workers 8   custom listen address and pool size
//	cryptgend -timeout 10s -cache 512  request timeout, compiled-plan cache entries
//
// Endpoints:
//
//	POST /v1/generate        {"usecase": 3} or {"name": "t.go", "source": "..."}
//	POST /v1/generate/batch  {"requests": [{"usecase": 1}, ...]} fan-out, partial success
//	POST /v1/analyze         {"name": "f.go", "source": "..."}
//	POST /v1/reload          recompile the rule set, invalidating caches
//	GET  /v1/rules           compiled rules + rule-set fingerprint
//	GET  /v1/templates       embedded use-case templates
//	GET  /healthz            liveness + rule-set fingerprint
//	GET  /readyz             readiness: ok | restoring (boot warm) | degraded (last reload failed) | draining
//	GET  /metrics            request/cache/latency/resilience counters
//	GET  /debug/pprof/       live profiling endpoints (only with -pprof)
//
// The daemon compiles the embedded rule set once at startup and shares the
// immutable result across all workers. The first generation of a template
// body compiles a plan; every later request over that body, under any name
// or package, is served by splicing the plan. Cancelled or expired
// requests stop mid-pipeline at the next workflow-step boundary instead of
// holding their worker. SIGINT/SIGTERM trigger a graceful drain: the
// listener stops accepting, in-flight and queued requests finish, then the
// process exits.
//
// The daemon is crash-proof and overload-safe by default: panics anywhere
// in the request path are recovered into per-request 500s
// (panics_recovered in /metrics), request bodies are capped (-max-body),
// a client that stalls mid-request is cut off by the listener's read
// deadlines, and once -workers pipeline runs are busy and -queue more are
// waiting, excess requests are shed with 429 + Retry-After instead of
// queueing without bound (shed_total in /metrics). A failed /v1/reload
// keeps serving the last good rule set and reports degraded on /readyz.
//
// -rules DIR serves an external GoCrySL rule directory instead of the
// embedded set; /v1/reload recompiles from that directory, so rules can be
// edited live (a broken edit degrades, it does not crash).
//
// -peers URL,URL with -self URL runs the daemon as one node of a cluster:
// a request no local plan serves and whose body key rendezvous-hashes to a
// peer is forwarded there (one hop, X-Cryptgend-Forwarded) so the nodes'
// plans shard by body — N nodes act as one large cache
// instead of N copies of the same hot set. Peers are probed via /readyz every
// -peer-probe; unreachable or draining peers are ejected from the
// forwarding set (their keys served locally) and re-admitted on recovery.
// forwarded_total, forward_hit_rate, and per-peer health appear in
// /metrics.
//
// cryptgend must run inside the cognicryptgen module (or point -dir at
// it), because generated code is type-checked against the module's gca
// package.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"cognicryptgen/crysl"
	"cognicryptgen/rules"
	"cognicryptgen/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cryptgend: ")
	addr := flag.String("addr", ":8572", "listen address")
	workers := flag.Int("workers", runtime.NumCPU(), "pipeline and analysis runs at once (0 = one per CPU; negative is rejected)")
	queue := flag.Int("queue", 0, "runs allowed to wait for a worker before shedding 429s (0 = 12x workers; negative is rejected)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout (0 = 30s; negative is rejected)")
	cacheSize := flag.Int("cache", 256, "compiled-plan cache entries, the only generation cache (0 = 256; negative is rejected)")
	dir := flag.String("dir", "", "module directory (default: working directory)")
	drain := flag.Duration("drain", 15*time.Second, "graceful shutdown deadline")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/ (opt-in: profiles reveal source being generated)")
	maxBody := flag.Int64("max-body", 0, "request-body byte cap on POST endpoints, 413 beyond it (0 = 4 MiB; negative is rejected)")
	rulesDir := flag.String("rules", "", "serve GoCrySL rules from this directory instead of the embedded set; /v1/reload recompiles from it")
	self := flag.String("self", "", `this node's base URL as peers address it, e.g. "http://10.0.0.1:8572" (cluster mode; required with -peers)`)
	peers := flag.String("peers", "", `comma-separated peer base URLs; enables peer forwarding so the cluster's plans shard by template body instead of duplicating`)
	probe := flag.Duration("peer-probe", 2*time.Second, "peer /readyz probe interval in cluster mode (0 = 2s; negative is rejected)")
	flag.Parse()

	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
				peerList = append(peerList, p)
			}
		}
		if *self == "" {
			log.Fatal("-peers requires -self (the URL this node is listed under on the other nodes)")
		}
	}

	var loader func() (*crysl.RuleSet, error)
	if *rulesDir != "" {
		d := *rulesDir
		loader = func() (*crysl.RuleSet, error) { return rules.TryLoad(d) }
	}

	srv, err := service.New(service.Config{
		Dir:            *dir,
		Workers:        *workers,
		QueueSize:      *queue,
		RequestTimeout: *timeout,
		CacheSize:      *cacheSize,
		MaxBodyBytes:   *maxBody,
		Loader:         loader,

		Self:              strings.TrimRight(*self, "/"),
		Peers:             peerList,
		PeerProbeInterval: *probe,
	})
	if err != nil {
		log.Fatal(err)
	}
	snap := srv.Registry().Snapshot()
	log.Printf("serving on %s: %d rules (fingerprint %.12s), %d workers, timeout %s",
		*addr, snap.Rules.Len(), snap.Fingerprint, *workers, *timeout)
	if *rulesDir != "" {
		log.Printf("rules loaded from %s (reload recompiles from disk)", *rulesDir)
	}
	if len(peerList) > 0 {
		log.Printf("cluster mode: self %s, peers %v", *self, peerList)
	}

	// The service handler owns the whole path space by default; -pprof
	// splices the stdlib profiling endpoints in front of it so a live
	// daemon can be profiled (CPU, heap, goroutines, contention) without a
	// restart: `go tool pprof http://localhost:8572/debug/pprof/profile`.
	handler := srv.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv.Handler())
		handler = mux
		log.Printf("pprof enabled under /debug/pprof/")
	}
	httpSrv := newHTTPServer(*addr, handler)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	// Manual signal channel instead of NotifyContext: the first signal
	// starts the graceful drain; a second one during the drain must be
	// observable so the operator can force an exit out of a stuck drain.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("%v: draining for up to %s (signal again to force exit)", sig, *drain)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("listener shutdown: %v", err)
		}
		srv.Close()
	}()
	// The drain timer gets headroom past -drain (which bounds the listener
	// shutdown) so the pool's own drain can finish; past that the drain is
	// stuck and the process force-exits rather than hang forever.
	switch awaitDrain(done, sigc, *drain+5*time.Second) {
	case drainDone:
		log.Printf("drained, exiting")
	case drainSignal:
		log.Printf("second signal during drain: forcing exit")
		os.Exit(1)
	case drainTimeout:
		log.Printf("drain did not finish within %s: forcing exit", *drain+5*time.Second)
		os.Exit(1)
	}
}

// The listener's read deadlines. A client that stalls mid-header or
// mid-body would otherwise hold its connection, goroutine and body buffer
// until it gives up. readTimeout bounds reading one whole request, header
// and body; it is no shorter than -timeout's 30s default, so a slow upload
// of a body near -max-body is not cut short. Handlers are not bounded
// here: -timeout does that.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the daemon's listener with its read deadlines.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// drainOutcome is how a graceful drain ended: completed, interrupted by a
// second signal, or stuck past its deadline.
type drainOutcome int

const (
	drainDone drainOutcome = iota
	drainSignal
	drainTimeout
)

// awaitDrain waits for the drain goroutine, a second operator signal, or
// the drain deadline — whichever comes first.
func awaitDrain(done <-chan struct{}, sigc <-chan os.Signal, timeout time.Duration) drainOutcome {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return drainDone
	case <-sigc:
		return drainSignal
	case <-t.C:
		return drainTimeout
	}
}
