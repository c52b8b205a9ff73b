// Package service turns the CogniCryptGEN pipeline (DESIGN.md S1–S12) into
// a long-running, concurrent generation daemon — the engine behind
// cmd/cryptgend.
//
// The one-shot CLIs (cmd/cryptgen, cmd/cryptanalyze) re-parse, re-compile,
// and re-minimize all fourteen embedded rules' ORDER automata on every
// invocation, and re-enumerate each rule's accepting paths once per
// generated chain. A process that serves many requests can do all of that
// exactly once. The package is built from four pieces:
//
//   - Registry (registry.go): parses and compiles the embedded rule set
//     once at startup, fingerprints it (crysl.RuleSet.Fingerprint), warms
//     a gen.PathCache of its own with every rule's accepting-path
//     enumeration, and on Reload swaps in a freshly compiled and warmed set
//     atomically. Each Snapshot owns its path cache, so a superseded rule
//     set is freed with it; only the plan cache outlives a snapshot. Each
//     Snapshot also builds its one Generator and one Analyzer on first
//     use.
//
//   - Pool (pool.go): admission control. At most Workers calls run at
//     once, each on its caller's goroutine under a panic guard; at most
//     QueueSize more wait for a slot, and the rest are shed with
//     ErrOverloaded. The calls share the snapshot's one gen.Generator and
//     one analysis.Analyzer, which are safe for concurrent use. A caller
//     whose context ends while it waits leaves without running, and the
//     context is propagated into the generation pipeline
//     (gen.GenerateFileCtx), so work cancelled mid-flight stops at the
//     next workflow-step boundary. Submissions and shutdown are fenced by
//     an RWMutex so a Submit racing Close is either waited for or fails
//     with ErrClosed. Close returns once every submitted call finished
//     (graceful SIGTERM shutdown).
//
//   - The registry's gen.PlanCache: the node's only generation cache.
//     Every request is served on one body-level key, (rule-set
//     fingerprint, template source, verify); the name and package are the
//     compiled plan's splice points. Generate first splices from a resident
//     plan; on a miss it makes one attempt: a forward to the body's
//     rendezvous owner (cluster.go, routed by wire.CacheKey over the same
//     tuple), or a pipeline run on the pool that compiles the plan, after
//     which every request over the body, under any name, is a splice.
//     The HTTP handler encodes a splice's pieces into the response body
//     as they are (wire.EncodeGenerate); Generate joins them.
//
//   - Server (server.go, batch.go): the HTTP JSON API — POST /v1/generate,
//     POST /v1/generate/batch (concurrent fan-out with per-item results
//     and partial success), POST /v1/analyze, POST /v1/reload,
//     GET /v1/rules, GET /v1/templates, GET /healthz, GET /metrics — with
//     expvar-typed counters (requests, cache hits/misses, queue depth,
//     nearest-rank p50/p99 latency) behind /metrics.
//
// Generation through the service is byte-identical to cmd/cryptgen: both
// run the same Generator over the same compiled rules, and a plan splice
// reproduces the pipeline's bytes exactly; the service merely amortises
// rule compilation, path enumeration and whole generations.
package service
