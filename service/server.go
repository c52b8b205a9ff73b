package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"maps"
	"math/rand/v2"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cognicryptgen/crysl"
	"cognicryptgen/gen"
	"cognicryptgen/internal/srccheck"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// DefaultMaxBodyBytes caps request bodies when Config.MaxBodyBytes is
// zero. Templates are source files, not datasets; 4 MiB is orders of
// magnitude above any real template and small enough that a misbehaving
// client cannot balloon the daemon's memory.
const DefaultMaxBodyBytes = 4 << 20

// Config tunes a Server. The zero value is usable: it serves the embedded
// rule set with one worker per CPU and a 30-second request timeout.
type Config struct {
	// Dir locates the module for template type-checking ("" = working
	// directory; the daemon must run inside the cognicryptgen module).
	Dir string
	// Workers bounds the pipeline and analysis calls that run at once
	// (0 = runtime.NumCPU; negative is an error).
	Workers int
	// QueueSize bounds the calls that wait for one of the Workers slots
	// until a slot frees or their context expires; beyond it, admission
	// control sheds with 429 (0 = 12×Workers; negative is an error).
	QueueSize int
	// RequestTimeout caps per-request processing time (0 = 30s; negative
	// is an error). Requests that expire while queued are answered 503
	// without running.
	RequestTimeout time.Duration
	// CacheSize bounds the compiled-plan cache, the node's only generation
	// cache (0 = gen.DefaultMaxPlans, 256 plans; negative is an error).
	CacheSize int
	// MaxBodyBytes caps request bodies on the POST endpoints; oversized
	// requests get 413 (0 = DefaultMaxBodyBytes; negative is an error).
	MaxBodyBytes int64
	// Loader compiles the rule set at startup and on /v1/reload (nil =
	// the embedded gca rules).
	Loader func() (*crysl.RuleSet, error)

	// Self is this node's advertised base URL (e.g. "http://10.0.0.1:8080")
	// in cluster mode. Peers use it only for display; forwarding decisions
	// hash Self against Peers, so it must be the same string the other
	// nodes list in their Peers.
	Self string
	// Peers lists the other cluster nodes' base URLs. Non-empty enables
	// peer forwarding: a request no local plan serves and whose body key
	// hashes to a peer is forwarded there (one hop, wire.HeaderForwarded) so
	// the cluster's plans shard by body instead of duplicating.
	Peers []string
	// PeerProbeInterval paces the background /readyz probe that ejects
	// unhealthy peers from the forwarding set and re-admits them on
	// recovery (0 = 2s; negative is an error). Three consecutive
	// forward/probe failures open a peer's circuit breaker, removing it
	// from the forwarding set until a probe or a half-open trial forward
	// succeeds.
	PeerProbeInterval time.Duration
}

// Server is the generation daemon: registry + plan cache + worker pool
// behind an HTTP JSON API. Create with New, expose via Handler, stop with
// Close. The HTTP glue lives in the transport (transport.go), which serves
// both the public listener and the cluster's peer-forwarding channel.
type Server struct {
	cfg       Config
	registry  *Registry
	pool      *Pool
	metrics   *metrics
	transport *transport
	cluster   *cluster
	started   time.Time

	// restoring is set while the boot warm is still compiling plans.
	restoring atomic.Bool
	// draining flips when Close begins; /readyz reports it so load
	// balancers stop routing before the listener goes away.
	draining atomic.Bool
	// shedStreak counts consecutive sheds since the last call the pool
	// admitted; Retry-After backs off exponentially with it.
	shedStreak atomic.Int64
	// panicLogged dedupes panic stack logging per recovery site, so a
	// crash loop emits one stack, not one per request.
	panicLogged sync.Map
}

// New compiles the rule set, warms its path cache, and sets up the pool.
// The shared type-check universe (the crypto façade's transitive closure,
// the expensive half of a snapshot's Generator, and every package the
// embedded templates import) begins warming in the background
// immediately, all of it at once, so by the time the first request or the
// template warm below arrives it either finds the universe built or joins
// the in-flight warm-up instead of starting its own.
func New(cfg Config) (*Server, error) {
	if cfg.QueueSize < 0 {
		return nil, fmt.Errorf("service: QueueSize %d is negative; 0 selects the default bound", cfg.QueueSize)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("service: Workers %d is negative; 0 selects one per CPU", cfg.Workers)
	}
	if cfg.MaxBodyBytes < 0 {
		return nil, fmt.Errorf("service: MaxBodyBytes %d is negative; 0 selects the default cap", cfg.MaxBodyBytes)
	}
	if cfg.RequestTimeout < 0 {
		return nil, fmt.Errorf("service: RequestTimeout %v is negative; 0 selects the default timeout", cfg.RequestTimeout)
	}
	if cfg.CacheSize < 0 {
		return nil, fmt.Errorf("service: CacheSize %d is negative; 0 selects the default size", cfg.CacheSize)
	}
	if cfg.PeerProbeInterval < 0 {
		return nil, fmt.Errorf("service: PeerProbeInterval %v is negative; 0 selects the default interval", cfg.PeerProbeInterval)
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	go func() {
		if root, err := srccheck.ModuleRoot(cfg.Dir); err == nil {
			srccheck.SharedUniverse(root).Warm(bootWarmPaths()...)
		}
	}()
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	registry, err := newRegistry(cfg.Loader, gen.NewPlanCache(cfg.CacheSize), cfg.Dir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		registry: registry,
		pool:     NewPool(cfg.Workers, cfg.QueueSize),
		metrics:  newMetrics(),
		started:  time.Now(),
	}
	s.transport = newTransport(s)
	if len(cfg.Peers) > 0 {
		s.cluster = newCluster(cfg.Self, cfg.Peers, cfg.PeerProbeInterval)
	}
	// Every boot warms the embedded templates in the background, each
	// compiled into a plan through the pipeline. The warm's first
	// Generator call runs the snapshot's gen.New, which rides the
	// universe warm-up started above rather than racing the first
	// request for it. /readyz reports "restoring" from here until the warm
	// finishes; requests are served correctly throughout, by the pipeline
	// until their plan is resident.
	s.restoring.Store(true)
	go func() {
		s.warm(registry.Snapshot())
		s.restoring.Store(false)
	}()
	return s, nil
}

// recordPanic counts one recovered panic and logs its stack, once per
// recovery site: a request storm hitting the same broken path produces one
// diagnostic stack in the log and a climbing panics_recovered counter, not
// a log flood.
func (s *Server) recordPanic(op string, v any, stack []byte) {
	s.metrics.panics.Add(1)
	if _, dup := s.panicLogged.LoadOrStore(op, true); !dup {
		log.Printf("service: recovered panic in %s: %v\n%s", op, v, stack)
	}
}

// retryAfterSeconds computes the Retry-After hint for a 429: exponential
// in the current shed streak (1s doubling to a 64s ceiling), plus up to
// 50% random jitter so a synchronized client fleet does not come back as
// one thundering herd.
func (s *Server) retryAfterSeconds() int {
	streak := min(s.shedStreak.Load(), 6)
	base := 1 << streak
	return base + rand.IntN(base/2+1)
}

// submit runs fn on the pool and keeps the admission counters: a shed
// counts toward shed_total and lengthens the Retry-After streak, an
// admitted call ends the streak, and a panic the pool recovered is
// recorded.
func (s *Server) submit(ctx context.Context, fn func() error) error {
	err := s.pool.Submit(ctx, func() error {
		s.shedStreak.Store(0)
		return fn()
	})
	var ie *InternalError
	switch {
	case errors.Is(err, ErrOverloaded):
		s.metrics.shed.Add(1)
		s.shedStreak.Add(1)
	case errors.As(err, &ie) && ie.Stack != nil:
		s.recordPanic(ie.Op, ie.Value, ie.Stack)
	}
	return err
}

// Handler returns the daemon's HTTP handler (the transport over this
// Server, with per-request panic guard and the wire.Error envelope on
// every failure).
func (s *Server) Handler() http.Handler {
	return s.transport.handler()
}

// Close drains the pool: submitted requests finish, new submissions fail
// with 503. /readyz flips to draining immediately so load balancers
// stop routing, and the peer prober stops. Call after the HTTP listener
// stopped accepting.
func (s *Server) Close() {
	s.draining.Store(true)
	if s.cluster != nil {
		s.cluster.close()
	}
	s.pool.Close()
}

// Registry exposes the server's rule registry (tests, embedding).
func (s *Server) Registry() *Registry { return s.registry }

// failStatus maps a pipeline error to an HTTP status: context expiry and
// pool shutdown are 503 (retryable), admission-control shedding is 429
// (retryable after the Retry-After hint), recovered panics are the
// server's 500, everything else — malformed templates, rule violations —
// is the client's 400. A *wire.Error (a peer's envelope passed through the
// forwarder) keeps its own status.
func (s *Server) failStatus(err error) int {
	var ie *InternalError
	var pe *gen.PanicError
	var we *wire.Error
	switch {
	case errors.As(err, &we) && we.Status != 0:
		return we.Status
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.metrics.timeouts.Add(1)
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.As(err, &ie), errors.As(err, &pe):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// ReloadRules recompiles the rule set and transactionally swaps it in
// (POST /v1/reload). The new snapshot's plans for the embedded templates
// are warmed before the response returns, so the first post-reload
// request for each lands on the fast path.
func (s *Server) ReloadRules() (wire.ReloadResponse, error) {
	snap, err := s.registry.Reload()
	if err != nil {
		return wire.ReloadResponse{}, err
	}
	s.metrics.reloads.Add(1)
	s.warm(snap)
	return wire.ReloadResponse{
		Fingerprint: snap.Fingerprint,
		Version:     snap.Version,
		Rules:       snap.Rules.Len(),
	}, nil
}

// bootWarmPaths is what New warms the type-check universe with: the
// crypto façade every Generator loads and every package the embedded
// templates import, read from their import clauses. Generating a template
// type-checks it against those imports, and its output imports a subset
// of them plus the façade, so once they are built no template generation
// builds another universe package (TestBootWarmCoversTemplates in
// internal/srccheck pins the set).
func bootWarmPaths() []string {
	srcs, _ := templates.Sources()
	return append([]string{srccheck.ModulePath + "/gca"}, srccheck.ImportPaths(slices.Collect(maps.Values(srcs))...)...)
}

// warm runs the embedded use-case templates through a plan-wired
// Generator so their compiled plans are resident before traffic asks for
// them. A template whose plan is already resident is a plan hit. Warm
// failures are advisory: the daemon still serves (the pipeline remains the
// transparent fallback), so they are logged — once per pass, not once per
// template — never propagated.
func (s *Server) warm(snap *Snapshot) {
	g, err := snap.Generator(gen.Options{})
	if err != nil {
		log.Printf("service: plan warm: %v", err)
		return
	}
	var firstErr error
	failed := 0
	for _, uc := range templates.All() {
		src, err := templates.Source(uc)
		if err == nil {
			_, err = g.GenerateFile(uc.File, src)
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr != nil {
		log.Printf("service: plan warm: %d template(s) failed, first: %v", failed, firstErr)
	}
}

// RulesInfo lists the compiled rules (GET /v1/rules).
func (s *Server) RulesInfo() wire.RulesResponse {
	snap := s.registry.Snapshot()
	rules := make([]wire.RuleInfo, 0, snap.Rules.Len())
	for _, rule := range snap.Rules.Rules() {
		rules = append(rules, wire.RuleInfo{
			Spec:           rule.SpecType(),
			Events:         len(rule.Events),
			DFAStates:      rule.DFA.NumStates,
			AcceptingPaths: len(snap.Paths.Paths(rule, gen.DefaultMaxPaths)),
		})
	}
	return wire.RulesResponse{
		Fingerprint: snap.Fingerprint,
		Version:     snap.Version,
		Rules:       rules,
	}
}

// TemplatesInfo lists the embedded use-case templates (GET /v1/templates).
func (s *Server) TemplatesInfo() wire.TemplatesResponse {
	var out wire.TemplatesResponse
	for _, uc := range templates.All() {
		out.Templates = append(out.Templates, wire.TemplateInfo{ID: uc.ID, Name: uc.Name, File: uc.File, Sources: uc.Sources})
	}
	return out
}

// HealthInfo reports liveness (GET /healthz).
func (s *Server) HealthInfo() wire.HealthResponse {
	snap := s.registry.Snapshot()
	return wire.HealthResponse{
		Status:      "ok",
		UptimeS:     time.Since(s.started).Seconds(),
		Workers:     s.cfg.Workers,
		Rules:       snap.Rules.Len(),
		Fingerprint: snap.Fingerprint,
		Version:     snap.Version,
	}
}

// ReadyInfo is the readiness probe, distinct from /healthz liveness: a
// live daemon can still be the wrong place to route traffic. It reports
// one of four states — "ok", "restoring" (the boot warm is still compiling
// plans), "degraded" (serving, but the last reload failed and the
// last-good rule set is live instead of the operator's new one, with the
// failed candidate's fingerprint and error), and "draining" (Close has
// begun, stop routing — the transport serves it with 503).
func (s *Server) ReadyInfo() wire.ReadyResponse {
	if s.draining.Load() {
		return wire.ReadyResponse{Status: wire.ReadyDraining}
	}
	snap := s.registry.Snapshot()
	out := wire.ReadyResponse{
		Status:      wire.ReadyOK,
		Fingerprint: snap.Fingerprint,
		Version:     snap.Version,
	}
	if s.restoring.Load() {
		// Serving correctly while the boot warm compiles plans;
		// informational like degraded, served with 200.
		out.Status = wire.ReadyRestoring
	}
	if h := s.registry.Health(); h.Degraded {
		out.Status = wire.ReadyDegraded
		out.LastError = h.LastError
		out.FailedFingerprint = h.FailedFingerprint
		out.FailedAt = h.FailedAt.UTC().Format(time.RFC3339)
	}
	return out
}

// MetricsSnapshot returns the current counters as served by GET /metrics
// (benchmark harnesses consume this without going through HTTP).
func (s *Server) MetricsSnapshot() wire.Metrics {
	plans := s.registry.Plans()
	m := s.metrics.snapshot(s.pool.QueueDepth(), plans.Len())
	m.PlanHits = plans.Hits()
	m.PlanMisses = plans.Misses()
	m.PlanEntries = plans.Len()
	m.PlanBytes = plans.Bytes()
	if s.cluster != nil {
		m.Self = s.cluster.self
		m.Peers = s.cluster.peerStatuses()
		m.BreakerRejects = s.cluster.breakerRejects()
	}
	return m
}

// AnalyzeJSON runs the misuse analyzer over one source file
// (POST /v1/analyze).
func (s *Server) AnalyzeJSON(ctx context.Context, req wire.AnalyzeRequest) (wire.AnalyzeResponse, error) {
	if req.Source == "" {
		return wire.AnalyzeResponse{}, errors.New("need source")
	}
	name := req.Name
	if name == "" {
		name = "input.go"
	}
	var resp wire.AnalyzeResponse
	err := s.submit(ctx, func() error {
		snap := s.registry.Snapshot()
		an, err := snap.Analyzer()
		if err != nil {
			return err
		}
		rep, err := an.AnalyzeSourceCtx(ctx, name, req.Source)
		if err != nil {
			return err
		}
		resp = wire.AnalyzeResponse{
			Name:        name,
			Findings:    []*wire.Finding{},
			Assumptions: rep.Assumptions,
			Fingerprint: snap.Fingerprint,
		}
		for _, f := range rep.Findings {
			resp.Findings = append(resp.Findings, &wire.Finding{
				Kind:     f.Kind.String(),
				Rule:     f.Rule,
				Function: f.Function,
				Position: f.Pos.String(),
				Message:  f.Message,
			})
		}
		return nil
	})
	if err != nil {
		return wire.AnalyzeResponse{}, err
	}
	return resp, nil
}

// Generate runs one generation in-process, bypassing HTTP but using the
// same plans and pool as the API (used by the batch endpoint, the
// benchmark harness, and embedders).
//
// Every generation is served on one body-level key, (rule-set
// fingerprint, source, verify): the request's name and package are the
// plan's splice points, so they never decide where or whether a request
// runs. The path is:
//
//  1. Splice from a resident plan (cache_hits, Cached: true).
//  2. Otherwise make one attempt: a forward to the body's rendezvous owner
//     when that is a healthy peer and this request has not already hopped,
//     else a pipeline run on the worker pool (cache_misses), which
//     compiles the body's plan.
//
// Concurrent misses over one body each make their own attempt; the last
// plan compiled replaces the others, so the body still keeps one plan.
// Forwarded responses leave no plan on this node: each body's plan lives
// at its owner, which is what makes N nodes one effective cache instead of
// N copies of the same hot set.
func (s *Server) Generate(ctx context.Context, req wire.GenerateRequest) (wire.GenerateResponse, error) {
	resp, parts, spliced, err := s.serve(ctx, req)
	if spliced {
		resp.Output = strings.Join(parts[:], "")
	}
	return resp, err
}

// serve is Generate without the join, for the HTTP handler: on a plan hit
// (spliced) resp.Output is empty and parts holds the output's five pieces
// (gen.Plan.Parts), which the handler encodes into the response body as
// they are; otherwise resp.Output is the output and parts is empty.
func (s *Server) serve(ctx context.Context, req wire.GenerateRequest) (resp wire.GenerateResponse, parts [5]string, spliced bool, err error) {
	if req.UseCase != 0 && req.Source != "" {
		return resp, parts, false, errors.New("source and usecase are mutually exclusive")
	}
	name, src := req.Name, req.Source
	if req.UseCase != 0 {
		uc, err := templates.ByID(req.UseCase)
		if err != nil {
			return resp, parts, false, err
		}
		ucSrc, err := templates.Source(uc)
		if err != nil {
			return resp, parts, false, err
		}
		name, src = uc.File, ucSrc
	}
	if name == "" {
		name = "template.go"
	}
	if strings.TrimSpace(src) == "" {
		return resp, parts, false, errors.New("service: need source or usecase")
	}
	snap := s.registry.Snapshot()
	if parts, spliced = snap.Plans.Parts(snap.Fingerprint, name, src, gen.Options{PackageName: req.Package, Verify: req.Verify}); spliced {
		s.metrics.cacheHits.Add(1)
		return wire.GenerateResponse{Name: name, Fingerprint: snap.Fingerprint, Cached: true}, parts, true, nil
	}
	resp, err = s.attempt(ctx, name, src, req)
	return resp, parts, false, err
}

// attempt produces a response the splice could not: a forward to the
// body's owner, or a local pipeline run. A definitive peer answer (success
// or the peer's own terminal error envelope) is the attempt's result; a
// transport failure falls back to generating locally. A panic on this path
// becomes this request's InternalError.
func (s *Server) attempt(ctx context.Context, name, src string, req wire.GenerateRequest) (resp wire.GenerateResponse, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			stack := debug.Stack()
			s.recordPanic("generate-attempt", rec, stack)
			resp, err = wire.GenerateResponse{}, &InternalError{Op: "generate-attempt", Value: rec, Stack: stack}
		}
	}()
	if s.cluster != nil && !isPeerHop(ctx) {
		key := wire.CacheKey(s.registry.Snapshot().Fingerprint, name, src, req.Package, req.Verify)
		if owner := s.cluster.ownerPeer(key); owner != "" {
			if resp, err, handled := s.forward(ctx, owner, name, src, req); handled {
				return resp, err
			}
		}
	}
	// cache_misses counts local pipeline runs: a forwarded request is the
	// owner's miss (or hit), not this node's, so the cluster-wide sum of
	// cache_misses equals the number of pipeline runs actually made.
	s.metrics.cacheMisses.Add(1)
	err = s.submit(ctx, func() error {
		snap := s.registry.Snapshot()
		g, err := snap.Generator(gen.Options{PackageName: req.Package, Verify: req.Verify})
		if err != nil {
			return err
		}
		res, err := g.GenerateFileCtx(ctx, name, src)
		if err != nil {
			return err
		}
		resp = wire.GenerateResponse{
			Name:        name,
			Output:      res.Output,
			Fingerprint: snap.Fingerprint,
		}
		return nil
	})
	if err != nil {
		// gen's own guard converts pipeline panics to *gen.PanicError
		// before the pool sees them; count those recoveries here, at the
		// one place per attempt they surface.
		var pe *gen.PanicError
		if errors.As(err, &pe) {
			s.metrics.panics.Add(1)
		}
		return wire.GenerateResponse{}, err
	}
	return resp, nil
}
