package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"cognicryptgen/wire"
)

// figure1Misuse is the paper's Figure 1 program: constant salt, and the
// PBE key spec is never cleared.
const figure1Misuse = `package main

import "cognicryptgen/gca"

func generateKey(pwd []rune) (*gca.SecretKeySpec, error) {
	salt := []byte{15, 244, 94, 0, 12, 3, 65, 73, 255, 84, 35, 1, 2, 3, 4, 5}
	spec, err := gca.NewPBEKeySpec(pwd, salt, 100000, 256)
	if err != nil {
		return nil, err
	}
	skf, err := gca.NewSecretKeyFactory("PBKDF2WithHmacSHA256")
	if err != nil {
		return nil, err
	}
	prf, err := skf.GenerateSecret(spec)
	if err != nil {
		return nil, err
	}
	return gca.NewSecretKeySpec(prf.Encoded(), "AES")
}
`

// TestAnalyzeFindsFigure1Misuses: the analyzer endpoint reports misuses on
// the paper's running example and names their kinds.
func TestAnalyzeFindsFigure1Misuses(t *testing.T) {
	_, ts := sharedService(t)
	resp, body := postJSON(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Name: "fig1.go", Source: figure1Misuse})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got wire.AnalyzeResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Findings) == 0 {
		t.Fatal("no findings on the Figure 1 misuse program")
	}
	kinds := map[string]bool{}
	for _, f := range got.Findings {
		kinds[f.Kind] = true
		if f.Rule == "" || f.Position == "" || f.Message == "" {
			t.Errorf("finding missing fields: %+v", f)
		}
	}
	if !kinds["RequiredPredicateError"] {
		t.Errorf("expected a RequiredPredicateError for the constant salt; kinds = %v", kinds)
	}
	if got.Fingerprint == "" {
		t.Error("missing rule-set fingerprint")
	}
}

// TestAnalyzePositionsSurviveRelease: the analyzed source's line table
// leaves the shared FileSet after each call, so every finding must carry
// its file:line:col resolved before that, on every repeat.
func TestAnalyzePositionsSurviveRelease(t *testing.T) {
	srv, _ := sharedService(t)
	for i := 0; i < 3; i++ {
		resp, err := srv.AnalyzeJSON(context.Background(), wire.AnalyzeRequest{Name: "fig1.go", Source: figure1Misuse})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range resp.Findings {
			if f.Kind == "RequiredPredicateError" {
				found = true
				// Line 7, column 15: the gca.NewPBEKeySpec call taking the constant salt.
				if f.Position != "fig1.go:7:15" {
					t.Errorf("call %d: constant-salt finding at %q, want fig1.go:7:15", i, f.Position)
				}
			}
		}
		if !found {
			t.Fatalf("call %d: no RequiredPredicateError in %+v", i, resp.Findings)
		}
	}
}

// TestAnalyzeCleanGenerated closes the paper's loop over HTTP: code
// generated by /v1/generate passes /v1/analyze with zero findings.
func TestAnalyzeCleanGenerated(t *testing.T) {
	_, ts := sharedService(t)
	resp, body := postJSON(t, ts.URL+"/v1/generate", wire.GenerateRequest{UseCase: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate: status %d: %s", resp.StatusCode, body)
	}
	var genResp wire.GenerateResponse
	if err := json.Unmarshal(body, &genResp); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Name: "generated.go", Source: genResp.Output})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d: %s", resp.StatusCode, body)
	}
	var anaResp wire.AnalyzeResponse
	if err := json.Unmarshal(body, &anaResp); err != nil {
		t.Fatal(err)
	}
	if len(anaResp.Findings) != 0 {
		t.Errorf("generated code has %d findings, want 0: %+v", len(anaResp.Findings), anaResp.Findings)
	}
}

// TestAnalyzeBadRequests: malformed inputs are 400s.
func TestAnalyzeBadRequests(t *testing.T) {
	_, ts := sharedService(t)
	for name, body := range map[string]string{
		"invalid json": "{oops",
		"no source":    "{}",
		"bad go":       `{"source": "package p\nfunc f() { undefined() }"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestRulesEndpoint: GET /v1/rules lists all 14 compiled rules with their
// automata sizes and the set fingerprint.
func TestRulesEndpoint(t *testing.T) {
	srv, ts := sharedService(t)
	var got struct {
		Fingerprint string `json:"ruleset_fingerprint"`
		Version     uint64 `json:"version"`
		Rules       []struct {
			Spec           string `json:"spec"`
			Events         int    `json:"events"`
			DFAStates      int    `json:"dfa_states"`
			AcceptingPaths int    `json:"accepting_paths"`
		} `json:"rules"`
	}
	getJSON(t, ts.URL+"/v1/rules", &got)
	snap := srv.Registry().Snapshot()
	if got.Fingerprint != snap.Fingerprint {
		t.Errorf("fingerprint = %q, want %q", got.Fingerprint, snap.Fingerprint)
	}
	if len(got.Rules) != snap.Rules.Len() {
		t.Fatalf("listed %d rules, want %d", len(got.Rules), snap.Rules.Len())
	}
	for _, r := range got.Rules {
		if r.Spec == "" || r.DFAStates == 0 || r.AcceptingPaths == 0 {
			t.Errorf("rule row incomplete: %+v", r)
		}
	}
}

// TestTemplatesEndpoint: GET /v1/templates lists the 11+2 use cases.
func TestTemplatesEndpoint(t *testing.T) {
	_, ts := sharedService(t)
	var got struct {
		Templates []struct {
			ID   int    `json:"id"`
			Name string `json:"name"`
			File string `json:"file"`
		} `json:"templates"`
	}
	getJSON(t, ts.URL+"/v1/templates", &got)
	if len(got.Templates) != 13 {
		t.Fatalf("listed %d templates, want 13", len(got.Templates))
	}
}

// TestHealthzAndMetrics: liveness and counter shape.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := sharedService(t)
	var health map[string]any
	resp := getJSON(t, ts.URL+"/healthz", &health)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz status field = %v", health["status"])
	}
	if health["ruleset_fingerprint"] == "" {
		t.Error("healthz missing fingerprint")
	}

	var m map[string]any
	getJSON(t, ts.URL+"/metrics", &m)
	for _, key := range []string{
		"requests", "generate_requests", "batch_requests", "analyze_requests",
		"errors", "cache_hits", "cache_misses", "cache_hit_rate", "cache_entries",
		"coalesced", "queue_depth", "latency_p50_ms",
		"latency_p99_ms", "timeouts", "reloads", "panics_recovered",
		"shed_total",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
}

// TestReloadEndpoint: /v1/reload recompiles the rule set; identical
// embedded sources yield the same fingerprint but a new version, and
// generation keeps working (workers rebuild against the new snapshot).
func TestReloadEndpoint(t *testing.T) {
	srv, ts := sharedService(t)
	before := srv.Registry().Snapshot()
	resp, body := postJSON(t, ts.URL+"/v1/reload", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	after := srv.Registry().Snapshot()
	if after == before {
		t.Fatal("reload did not swap the snapshot")
	}
	if after.Version != before.Version+1 {
		t.Errorf("version = %d, want %d", after.Version, before.Version+1)
	}
	if after.Fingerprint != before.Fingerprint {
		t.Error("identical embedded sources changed the fingerprint on reload")
	}
	resp, body = postJSON(t, ts.URL+"/v1/generate", wire.GenerateRequest{UseCase: 11})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate after reload: status %d: %s", resp.StatusCode, body)
	}
}

// decodeEnvelope asserts body is a wire.Error with the expected status and
// returns it.
func decodeEnvelope(t *testing.T, body []byte, wantStatus int) wire.Error {
	t.Helper()
	var e wire.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("non-2xx body is not a wire.Error envelope: %v; body: %s", err, body)
	}
	if e.Status != wantStatus || e.Code == "" || e.Message == "" {
		t.Errorf("envelope = %+v, want status %d with code and message", e, wantStatus)
	}
	wantCode, wantRetryable := wire.CodeForStatus(wantStatus)
	if e.Code != wantCode || e.Retryable != wantRetryable {
		t.Errorf("envelope code/retryable = %s/%t, want %s/%t", e.Code, e.Retryable, wantCode, wantRetryable)
	}
	return e
}

// TestErrorEnvelopeUnified: every non-2xx response — across generate,
// batch, analyze, reload, and the method checks — is one wire.Error shape,
// not per-handler ad-hoc JSON. A body is one JSON value: trailing data
// after it is a 400, not ignored.
func TestErrorEnvelopeUnified(t *testing.T) {
	_, ts := sharedService(t)

	cases := []struct {
		name       string
		method     string
		url        string
		body       string
		wantStatus int
	}{
		{"generate malformed json", http.MethodPost, "/v1/generate", "{not json", http.StatusBadRequest},
		{"generate empty", http.MethodPost, "/v1/generate", "{}", http.StatusBadRequest},
		{"generate source+usecase", http.MethodPost, "/v1/generate", `{"usecase": 1, "source": "package p"}`, http.StatusBadRequest},
		{"generate trailing data", http.MethodPost, "/v1/generate", `{"usecase": 1} junk`, http.StatusBadRequest},
		{"generate second value", http.MethodPost, "/v1/generate", `{"usecase": 1}{"usecase": 2}`, http.StatusBadRequest},
		{"generate wrong method", http.MethodGet, "/v1/generate", "", http.StatusMethodNotAllowed},
		{"batch empty", http.MethodPost, "/v1/generate/batch", `{"requests": []}`, http.StatusBadRequest},
		{"batch trailing data", http.MethodPost, "/v1/generate/batch", `{"requests": [{"usecase": 1}]} junk`, http.StatusBadRequest},
		{"batch wrong method", http.MethodGet, "/v1/generate/batch", "", http.StatusMethodNotAllowed},
		{"analyze missing source", http.MethodPost, "/v1/analyze", "{}", http.StatusBadRequest},
		{"analyze trailing data", http.MethodPost, "/v1/analyze", `{"source": "package p"}{"source": "package q"}`, http.StatusBadRequest},
		{"analyze wrong method", http.MethodGet, "/v1/analyze", "", http.StatusMethodNotAllowed},
		{"reload wrong method", http.MethodGet, "/v1/reload", "", http.StatusMethodNotAllowed},
		{"rules wrong method", http.MethodPost, "/v1/rules", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.url, bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body: %s", resp.StatusCode, tc.wantStatus, buf.Bytes())
			}
			decodeEnvelope(t, buf.Bytes(), tc.wantStatus)
		})
	}
}

// TestCompactFraming: every response is one line of compact JSON framed
// by an explicit Content-Length equal to the body's length, so a reader
// (wire.ReadBody) allocates the body once at its final size.
func TestCompactFraming(t *testing.T) {
	_, ts := sharedService(t)
	for _, tc := range []struct {
		name, method, path string
		body               any
		status             int
	}{
		{"generate", http.MethodPost, "/v1/generate", wire.GenerateRequest{UseCase: 11}, http.StatusOK},
		{"analyze", http.MethodPost, "/v1/analyze", wire.AnalyzeRequest{Name: "fig1.go", Source: figure1Misuse}, http.StatusOK},
		{"metrics", http.MethodGet, "/metrics", nil, http.StatusOK},
		{"error envelope", http.MethodPost, "/v1/generate", wire.GenerateRequest{UseCase: 99}, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			if tc.method == http.MethodGet {
				resp, err = http.Get(ts.URL + tc.path)
			} else {
				data, _ := json.Marshal(tc.body)
				resp, err = http.Post(ts.URL+tc.path, "application/json", bytes.NewReader(data))
			}
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
				t.Errorf("Content-Length %q for a %d-byte body", got, len(body))
			}
			if !json.Valid(body) {
				t.Fatalf("body is not JSON: %s", body)
			}
			if i := bytes.IndexByte(body, '\n'); i != len(body)-1 {
				t.Errorf("body is not one line of JSON: newline at %d of %d bytes", i, len(body))
			}
			var compact bytes.Buffer
			if err := json.Compact(&compact, body); err != nil {
				t.Fatal(err)
			}
			if compact.Len() != len(body)-1 {
				t.Errorf("body carries %d bytes of whitespace; want compact JSON", len(body)-1-compact.Len())
			}
		})
	}
}

// TestUnencodableResponseIs500: a value that cannot be encoded (a NaN
// metric, say) is answered with the 500 envelope, never a 200 carrying a
// truncated or empty body.
func TestUnencodableResponseIs500(t *testing.T) {
	tr := newTransport(&Server{metrics: newMetrics()})
	rec := httptest.NewRecorder()
	tr.writeJSON(rec, http.StatusOK, math.NaN())
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var e wire.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != wire.CodeInternal {
		t.Fatalf("body %q is not the internal-error envelope (%v)", rec.Body.Bytes(), err)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte body", got, rec.Body.Len())
	}
}
