// Package wire defines the cryptgend cluster's wire contract: the JSON
// request, response, and error shapes spoken by the daemon (service), the
// Go SDK (client), and the tools (cmd/cryptgend and the bench/ harness),
// plus the routing key and rendezvous hash that daemon and client share so
// both sides agree on which node owns a request.
//
// It also owns the framing every hop shares, in both directions: one body
// reader (ReadBody) and one encoder (Encode) over one pool of body
// buffers, and one decoder (Unmarshal) that copies each large text field —
// template source, generated output — out of the body exactly once. Encode
// is encoding/json except for GenerateResponse, whose one encoder
// (EncodeGenerate) is hand-written: it takes the output as pieces, so the
// daemon escapes a plan hit's pieces straight into the body without
// joining them, and writes the bytes encoding/json would.
//
// The types here used to live inline in the service package; they were
// extracted so that a client does not import the whole generation pipeline
// to talk to a daemon, and so the daemon, the SDK, and the tools cannot
// drift apart — one package is the contract (the salsacore
// core-types layout: one shared package used by server, client, and
// tools).
package wire

// Forwarded-hop header. A daemon that forwards a request to the peer
// owning its cache key sets this header; a daemon receiving a request
// carrying it never forwards again (one hop, maximum), so a stale or
// disagreeing member list can bounce a request at most once.
const HeaderForwarded = "X-Cryptgend-Forwarded"

// GenerateRequest is the body of POST /v1/generate. Exactly one of Source
// or UseCase selects the template.
type GenerateRequest struct {
	// Name labels the template in diagnostics and in the generated file's
	// header comment (default "template.go", or the use case's file name).
	Name string `json:"name,omitempty"`
	// Source is the template source text.
	Source string `json:"source,omitempty"`
	// UseCase selects an embedded Table 1 / extension template by ID
	// (1-13) instead of Source.
	UseCase int `json:"usecase,omitempty"`
	// Package overrides the output package name.
	Package string `json:"package,omitempty"`
	// Verify type-checks the generated file before responding.
	Verify bool `json:"verify,omitempty"`
}

// GenerateResponse is the body of a successful POST /v1/generate. It
// carries the generated file, not the decisions behind it: the
// per-method generation report is an in-process gen.Report (cryptgen
// -report prints it). A body from a daemon that still sends a "report"
// or "coalesced" key decodes the same, since unknown keys are ignored.
type GenerateResponse struct {
	Name        string `json:"name"`
	Output      string `json:"output"`
	Fingerprint string `json:"ruleset_fingerprint"`
	Cached      bool   `json:"cached"`
	// Forwarded marks a response obtained from the cluster peer owning
	// this request's cache key rather than produced by the node that
	// received the request.
	Forwarded  bool    `json:"forwarded,omitempty"`
	DurationMS float64 `json:"duration_ms"`
}

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	Name   string `json:"name,omitempty"`
	Source string `json:"source"`
}

// AnalyzeResponse is the body of a successful POST /v1/analyze.
type AnalyzeResponse struct {
	Name        string     `json:"name"`
	Findings    []*Finding `json:"findings"`
	Assumptions []string   `json:"assumptions,omitempty"`
	Fingerprint string     `json:"ruleset_fingerprint"`
	DurationMS  float64    `json:"duration_ms"`
}

// Finding mirrors analysis.Finding for the wire.
type Finding struct {
	Kind     string `json:"kind"`
	Rule     string `json:"rule"`
	Function string `json:"function"`
	Position string `json:"position"`
	Message  string `json:"message"`
}

// MaxBatchItems bounds one POST /v1/generate/batch request (enforced by
// the daemon, respected by the SDK's batch splitter). Larger client
// workloads split into multiple batches rather than one unbounded fan-out.
const MaxBatchItems = 256

// BatchRequest is the body of POST /v1/generate/batch. Every item is
// generated concurrently across the worker pool; items share the
// whole-batch deadline (the server's request timeout), optionally
// tightened per item by ItemTimeoutMS.
type BatchRequest struct {
	Requests []GenerateRequest `json:"requests"`
	// ItemTimeoutMS, when positive, caps each item's generation time
	// inside the whole-batch deadline, so one pathological template cannot
	// spend the entire batch budget.
	ItemTimeoutMS int `json:"item_timeout_ms,omitempty"`
}

// BatchItem is one per-item outcome. Items succeed and fail independently
// (partial success): a malformed template fails its own slot while its
// siblings generate.
type BatchItem struct {
	Index    int               `json:"index"`
	OK       bool              `json:"ok"`
	Response *GenerateResponse `json:"response,omitempty"`
	Error    string            `json:"error,omitempty"`
	// Status is the HTTP status the item would have received as a lone
	// /v1/generate request (400 client error, 503 timeout/shutdown).
	Status int `json:"status,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/generate/batch. The
// HTTP status is 200 whenever the batch itself was well-formed, even if
// every item failed; clients inspect per-item OK/Status.
type BatchResponse struct {
	Results    []BatchItem `json:"results"`
	Succeeded  int         `json:"succeeded"`
	Failed     int         `json:"failed"`
	DurationMS float64     `json:"duration_ms"`
}

// ReloadResponse is the body of a successful POST /v1/reload.
type ReloadResponse struct {
	Fingerprint string `json:"ruleset_fingerprint"`
	Version     uint64 `json:"version"`
	Rules       int    `json:"rules"`
}

// RuleInfo is one row of GET /v1/rules.
type RuleInfo struct {
	Spec           string `json:"spec"`
	Events         int    `json:"events"`
	DFAStates      int    `json:"dfa_states"`
	AcceptingPaths int    `json:"accepting_paths"`
}

// RulesResponse is the body of GET /v1/rules.
type RulesResponse struct {
	Fingerprint string     `json:"ruleset_fingerprint"`
	Version     uint64     `json:"version"`
	Rules       []RuleInfo `json:"rules"`
}

// TemplateInfo is one row of GET /v1/templates.
type TemplateInfo struct {
	ID      int      `json:"id"`
	Name    string   `json:"name"`
	File    string   `json:"file"`
	Sources []string `json:"sources,omitempty"`
}

// TemplatesResponse is the body of GET /v1/templates.
type TemplatesResponse struct {
	Templates []TemplateInfo `json:"templates"`
}

// HealthResponse is the body of GET /healthz (liveness).
type HealthResponse struct {
	Status      string  `json:"status"`
	UptimeS     float64 `json:"uptime_s"`
	Workers     int     `json:"workers"`
	Rules       int     `json:"rules"`
	Fingerprint string  `json:"ruleset_fingerprint"`
	Version     uint64  `json:"ruleset_version"`
}

// ReadyResponse is the body of GET /readyz (readiness). Status is one of
// "ok", "degraded" (serving, but the last reload failed and the last-good
// rule set is live), "restoring" (serving while the boot warm compiles
// plans), or "draining" (shutdown began; stop routing — the only state
// served with HTTP 503).
type ReadyResponse struct {
	Status            string `json:"status"`
	Fingerprint       string `json:"ruleset_fingerprint,omitempty"`
	Version           uint64 `json:"ruleset_version,omitempty"`
	LastError         string `json:"last_error,omitempty"`
	FailedFingerprint string `json:"failed_fingerprint,omitempty"`
	FailedAt          string `json:"failed_at,omitempty"`
}

// Ready states.
const (
	ReadyOK       = "ok"
	ReadyDegraded = "degraded"
	ReadyDraining = "draining"
	// ReadyRestoring reports a node whose boot warm is still running: every
	// boot runs the embedded templates through the pipeline to compile
	// their plans.
	// Served with HTTP 200 (like degraded): the node answers correctly
	// throughout — restoring is a warm-up signal, not an exclusion signal,
	// and a 503 here would make peers and SDK probes eject a node that is
	// healthier than a cold one.
	ReadyRestoring = "restoring"
)
