package service

import (
	"context"
	"errors"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"cognicryptgen/wire"
)

// transport is the HTTP glue around one Server: method checks, body
// decoding under the size cap, the wire.Error envelope on every non-2xx
// response, per-route counters, and the peer-forwarding hop guard. The
// public listener and the cluster's peer-forwarding channel are
// deliberately the same handler set — a peer-forwarded request is an
// ordinary POST /v1/generate carrying the wire.HeaderForwarded hop guard,
// not a second protocol.
type transport struct {
	srv *Server
	mux *http.ServeMux
}

func newTransport(srv *Server) *transport {
	t := &transport{srv: srv, mux: http.NewServeMux()}
	t.mux.HandleFunc("/v1/generate", t.handleGenerate)
	t.mux.HandleFunc("/v1/generate/batch", t.handleGenerateBatch)
	t.mux.HandleFunc("/v1/analyze", t.handleAnalyze)
	t.mux.HandleFunc("/v1/reload", t.handleReload)
	t.mux.HandleFunc("/v1/rules", t.handleRules)
	t.mux.HandleFunc("/v1/templates", t.handleTemplates)
	t.mux.HandleFunc("/healthz", t.handleHealthz)
	t.mux.HandleFunc("/readyz", t.handleReadyz)
	t.mux.HandleFunc("/metrics", t.handleMetrics)
	return t
}

// handler returns the transport's HTTP handler. Every request runs under a
// panic guard: a panic that escapes a handler goroutine would otherwise
// kill the whole process (net/http only protects its own serve goroutines,
// and ours fan work out further), so it is recovered here into a 500 with
// the stack reported once per site.
func (t *transport) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.srv.metrics.requests.Add(1)
		defer func() {
			if rec := recover(); rec != nil {
				t.srv.recordPanic("http "+r.URL.Path, rec, debug.Stack())
				// If the handler already wrote headers this is a no-op body
				// append; the client sees a truncated response either way.
				t.writeError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		t.mux.ServeHTTP(w, r)
	})
}

// peerHopKey marks a request's context when it arrived over the peer
// channel (wire.HeaderForwarded set): the backend must serve it locally,
// never forward again.
type ctxKey int

const peerHopKey ctxKey = iota

func withPeerHop(ctx context.Context) context.Context {
	return context.WithValue(ctx, peerHopKey, true)
}

// isPeerHop reports whether the request already took its one forwarding
// hop.
func isPeerHop(ctx context.Context) bool {
	v, _ := ctx.Value(peerHopKey).(bool)
	return v
}

// requestCtx derives a handler's working context: the configured request
// timeout, plus the hop-guard mark when the request arrived on the peer
// channel. Forwarded work needs no deadline of its own: when the
// forwarder's context ends, its http.Transport closes the connection, which
// cancels r.Context() here, and a job still queued for a worker is then
// skipped rather than run.
func (t *transport) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if r.Header.Get(wire.HeaderForwarded) != "" {
		ctx = withPeerHop(ctx)
	}
	return context.WithTimeout(ctx, t.srv.cfg.RequestTimeout)
}

// writeJSON answers with v as compact, single-line JSON (wire.Encode),
// framed by writeBody.
func (t *transport) writeJSON(w http.ResponseWriter, status int, v any) {
	body, release, err := wire.Encode(v)
	t.writeBody(w, status, body, release, err)
}

// writeBody answers with a body encoded into a pooled buffer (wire.Encode,
// wire.EncodeGenerate), framed by an explicit Content-Length and written
// in one Write, so the SDK and the peer forwarder (wire.ReadBody) read it
// into a pooled buffer of exactly its length. A value that failed to
// encode (err) becomes a 500 envelope rather than a truncated 2xx.
func (t *transport) writeBody(w http.ResponseWriter, status int, body []byte, release func(), err error) {
	if err != nil {
		// The envelope itself always encodes, so this recursion ends.
		t.writeError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	defer release()
	if status >= 400 {
		t.srv.metrics.errors.Add(1)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeError answers with the wire.Error envelope — the one error shape
// across every endpoint. 429s carry the Retry-After header and mirror it
// in retry_after_ms.
func (t *transport) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	e := wire.NewError(status, format, args...)
	if status == http.StatusTooManyRequests {
		secs := t.srv.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		e.RetryAfterMS = int64(secs) * 1000
	}
	t.writeJSON(w, status, e)
}

// writeAPIError maps a backend error onto the wire. A *wire.Error — e.g. a
// peer's envelope passed through the forwarder — keeps its code, message,
// and retry hint; anything else is classified by failStatus.
func (t *transport) writeAPIError(w http.ResponseWriter, err error, format string, args ...any) {
	var we *wire.Error
	if errors.As(err, &we) && we.Status != 0 {
		if we.Status == http.StatusTooManyRequests && we.RetryAfterMS > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int((we.RetryAfterMS+999)/1000)))
		}
		t.writeJSON(w, we.Status, we)
		return
	}
	t.writeError(w, t.srv.failStatus(err), format+": %v", append(args, err)...)
}

// decodeBody reads a JSON request body whole under the configured size cap
// (wire.ReadBody) and decodes it (wire.Unmarshal), answering 413
// (oversized) or 400 (short, malformed, or followed by trailing data)
// itself. An advertised Content-Length over the cap is refused before any
// byte of the body is read. ok is false when a response has already been
// written.
func (t *transport) decodeBody(w http.ResponseWriter, r *http.Request, v any) (ok bool) {
	limit := t.srv.cfg.MaxBodyBytes
	if r.ContentLength < 0 {
		// A body of unknown length (chunked) is read until it passes the
		// cap; MaxBytesReader then has the server close the connection
		// rather than drain the rest of an oversized stream.
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	data, release, err := wire.ReadBody(r.Body, r.ContentLength, limit)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.Is(err, wire.ErrBodyTooLarge) || errors.As(err, &mbe) {
			t.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", limit)
			return false
		}
		t.writeError(w, http.StatusBadRequest, "reading request: %v", err)
		return false
	}
	defer release()
	if err := wire.Unmarshal(data, v); err != nil {
		t.writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

func (t *transport) requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		t.writeError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	return true
}

func (t *transport) requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet {
		t.writeError(w, http.StatusMethodNotAllowed, "GET required")
		return false
	}
	return true
}

func (t *transport) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if !t.requirePost(w, r) {
		return
	}
	t.srv.metrics.generates.Add(1)
	var req wire.GenerateRequest
	if !t.decodeBody(w, r, &req) {
		return
	}
	start := time.Now()
	defer func() { t.srv.metrics.observe(time.Since(start)) }()

	ctx, cancel := t.requestCtx(r)
	defer cancel()
	resp, parts, spliced, err := t.srv.serve(ctx, req)
	if err != nil {
		t.writeAPIError(w, err, "generate")
		return
	}
	resp.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	// A plan hit's pieces go into the body as they are; the output is
	// never joined into a string.
	output := []string{resp.Output}
	if spliced {
		output = parts[:]
	}
	body, release, err := wire.EncodeGenerate(&resp, output...)
	t.writeBody(w, http.StatusOK, body, release, err)
}

func (t *transport) handleGenerateBatch(w http.ResponseWriter, r *http.Request) {
	if !t.requirePost(w, r) {
		return
	}
	t.srv.metrics.batches.Add(1)
	var req wire.BatchRequest
	if !t.decodeBody(w, r, &req) {
		return
	}
	start := time.Now()
	defer func() { t.srv.metrics.observe(time.Since(start)) }()

	ctx, cancel := t.requestCtx(r)
	defer cancel()
	resp, err := t.srv.GenerateBatch(ctx, req)
	if err != nil {
		t.writeError(w, http.StatusBadRequest, "generate batch: %v", err)
		return
	}
	resp.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	t.writeJSON(w, http.StatusOK, resp)
}

func (t *transport) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if !t.requirePost(w, r) {
		return
	}
	t.srv.metrics.analyzes.Add(1)
	var req wire.AnalyzeRequest
	if !t.decodeBody(w, r, &req) {
		return
	}
	start := time.Now()
	defer func() { t.srv.metrics.observe(time.Since(start)) }()

	ctx, cancel := t.requestCtx(r)
	defer cancel()
	resp, err := t.srv.AnalyzeJSON(ctx, req)
	if err != nil {
		t.writeAPIError(w, err, "analyze %s", req.Name)
		return
	}
	resp.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	t.writeJSON(w, http.StatusOK, resp)
}

func (t *transport) handleReload(w http.ResponseWriter, r *http.Request) {
	if !t.requirePost(w, r) {
		return
	}
	// The reload body is ignored today, but cap it anyway so a confused
	// client streaming a rule archive here cannot balloon memory.
	r.Body = http.MaxBytesReader(w, r.Body, t.srv.cfg.MaxBodyBytes)
	resp, err := t.srv.ReloadRules()
	if err != nil {
		t.writeError(w, http.StatusInternalServerError, "reload: %v", err)
		return
	}
	t.writeJSON(w, http.StatusOK, resp)
}

func (t *transport) handleRules(w http.ResponseWriter, r *http.Request) {
	if !t.requireGet(w, r) {
		return
	}
	t.writeJSON(w, http.StatusOK, t.srv.RulesInfo())
}

func (t *transport) handleTemplates(w http.ResponseWriter, r *http.Request) {
	if !t.requireGet(w, r) {
		return
	}
	t.writeJSON(w, http.StatusOK, t.srv.TemplatesInfo())
}

func (t *transport) handleHealthz(w http.ResponseWriter, r *http.Request) {
	t.writeJSON(w, http.StatusOK, t.srv.HealthInfo())
}

func (t *transport) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready := t.srv.ReadyInfo()
	status := http.StatusOK
	if ready.Status == wire.ReadyDraining {
		status = http.StatusServiceUnavailable
	}
	t.writeJSON(w, status, ready)
}

func (t *transport) handleMetrics(w http.ResponseWriter, r *http.Request) {
	t.writeJSON(w, http.StatusOK, t.srv.MetricsSnapshot())
}
