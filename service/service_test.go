package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cognicryptgen/gen"
	"cognicryptgen/rules"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

var (
	sharedOnce sync.Once
	sharedSrv  *Server
	sharedHTTP *httptest.Server
	sharedErr  error
)

// sharedService amortises rule compilation and worker warm-up across the
// package's tests; individual tests that need special configs (timeouts,
// drain) build their own Server.
func sharedService(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	sharedOnce.Do(func() {
		sharedSrv, sharedErr = New(Config{Workers: 4, CacheSize: 64})
		if sharedErr != nil {
			return
		}
		sharedHTTP = httptest.NewServer(sharedSrv.Handler())
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedSrv, sharedHTTP
}

// unseenBody returns use case id's template source made a body no other
// request in the package sends, by a trailing comment naming tag: no plan
// exists for it until a request's pipeline run compiles one.
func unseenBody(t *testing.T, id int, tag string) string {
	t.Helper()
	uc, err := templates.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	src, err := templates.Source(uc)
	if err != nil {
		t.Fatal(err)
	}
	return src + "\n// " + tag + "\n"
}

// waitWarm blocks until srv's boot warm has finished, so a test can tell
// the plans it compiled from the ones its own requests compile.
func waitWarm(t testing.TB, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for srv.restoring.Load() {
		if time.Now().After(deadline) {
			t.Fatal("boot warm did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestGenerateAllUseCasesByteIdentical is the core service guarantee: for
// all 13 embedded templates, POST /v1/generate returns output
// byte-identical to what cmd/cryptgen's Generator produces (same rules,
// same options, including verification).
func TestGenerateAllUseCasesByteIdentical(t *testing.T) {
	_, ts := sharedService(t)
	direct, err := gen.New(rules.MustLoad(), "", gen.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, uc := range templates.All() {
		src, err := templates.Source(uc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.GenerateFile(uc.File, src)
		if err != nil {
			t.Fatalf("direct generation of %s: %v", uc.File, err)
		}
		resp, body := postJSON(t, ts.URL+"/v1/generate", wire.GenerateRequest{UseCase: uc.ID, Verify: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("use case %d: status %d: %s", uc.ID, resp.StatusCode, body)
		}
		var got wire.GenerateResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Output != want.Output {
			t.Errorf("use case %d (%s): service output differs from direct generation", uc.ID, uc.File)
		}
		if got.Name != uc.File {
			t.Errorf("use case %d: name = %q, want %q", uc.ID, got.Name, uc.File)
		}
		if got.Fingerprint == "" {
			t.Errorf("use case %d: missing rule-set fingerprint", uc.ID)
		}
		if hasReport(t, body) {
			t.Errorf("use case %d: response carries a report key: %s", uc.ID, body)
		}
	}
}

// hasReport reports whether the JSON object body has a "report" key.
func hasReport(t *testing.T, body []byte) bool {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(body, &obj); err != nil {
		t.Fatalf("response is not a JSON object: %v: %s", err, body)
	}
	_, ok := obj["report"]
	return ok
}

// TestGenerateBodiesCarryNoReport: a /v1/generate or /v1/generate/batch
// answer is the output and its metadata, never the generation report, on
// a pipeline run (miss) as on a plan splice (hit). Decisions are read
// in process from gen.Report.
func TestGenerateBodiesCarryNoReport(t *testing.T) {
	_, ts := sharedService(t)
	req := wire.GenerateRequest{Name: "noreport.go", Source: unseenBody(t, 3, "TestGenerateBodiesCarryNoReport")}
	for _, want := range []bool{false, true} { // first a pipeline run, then its plan
		resp, body := postJSON(t, ts.URL+"/v1/generate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if hasReport(t, body) {
			t.Errorf("cached=%t: /v1/generate response carries a report key", want)
		}
		var got wire.GenerateResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Cached != want || got.Output == "" {
			t.Errorf("cached = %t with %d output bytes, want cached = %t with output", got.Cached, len(got.Output), want)
		}
	}

	breq := wire.BatchRequest{Requests: []wire.GenerateRequest{
		req,
		{Name: "noreport_batch.go", Source: unseenBody(t, 11, "TestGenerateBodiesCarryNoReport/batch")},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/generate/batch", breq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var batch struct {
		Results []struct {
			OK       bool            `json:"ok"`
			Response json.RawMessage `json:"response"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(breq.Requests) {
		t.Fatalf("batch returned %d results, want %d", len(batch.Results), len(breq.Requests))
	}
	for i, item := range batch.Results {
		if !item.OK {
			t.Fatalf("batch item %d failed: %s", i, body)
		}
		if hasReport(t, item.Response) {
			t.Errorf("batch item %d carries a report key", i)
		}
	}
}

// TestGenerateCached: a repeated identical request is spliced from the
// plan the first one left behind and marked as such.
func TestGenerateCached(t *testing.T) {
	_, ts := sharedService(t)
	req := wire.GenerateRequest{UseCase: 11} // hashing: cheap
	resp, body := postJSON(t, ts.URL+"/v1/generate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var first wire.GenerateResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}

	resp, body = postJSON(t, ts.URL+"/v1/generate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var second wire.GenerateResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second identical request was not served from cache")
	}
	if second.Output != first.Output {
		t.Error("cached output differs from first generation")
	}

	var m map[string]any
	getJSON(t, ts.URL+"/metrics", &m)
	if hits, _ := m["cache_hits"].(float64); hits < 1 {
		t.Errorf("metrics report %v cache hits, want >= 1", m["cache_hits"])
	}
}

// TestGenerateMalformedTemplate400: a template that does not type-check is
// the client's error, and the message names the offending line although
// the template's line table is released before the response is written.
func TestGenerateMalformedTemplate400(t *testing.T) {
	_, ts := sharedService(t)
	resp, body := postJSON(t, ts.URL+"/v1/generate", wire.GenerateRequest{
		Name:   "broken.go",
		Source: "package broken\n\nfunc Broken() { undefinedSymbol() }\n",
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body: %s", resp.StatusCode, body)
	}
	var e wire.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Status != http.StatusBadRequest || e.Message == "" || e.Code != wire.CodeInvalidRequest {
		t.Errorf("error body = %+v, want an invalid_request envelope with a message", e)
	}
	if !strings.Contains(e.Message, "broken.go:3:17: undefined: undefinedSymbol") {
		t.Errorf("message %q does not name the type error's position", e.Message)
	}
}

// TestGenerateBadRequests covers the request-validation 400s and the
// method check.
func TestGenerateBadRequests(t *testing.T) {
	_, ts := sharedService(t)
	for name, body := range map[string]string{
		"invalid json":       "{not json",
		"empty":              "{}",
		"unknown usecase":    `{"usecase": 99}`,
		"source and usecase": `{"usecase": 1, "source": "package p"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/generate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/generate: status = %d, want 405", resp.StatusCode)
	}
}

// TestGenerateTimeout503: a request whose context expires before a worker
// picks it up is answered 503, the retryable class. The body is unseen: a
// resident plan would splice it without a worker, whatever the deadline.
func TestGenerateTimeout503(t *testing.T) {
	srv, err := New(Config{Workers: 1, RequestTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/generate", wire.GenerateRequest{Name: "timeout.go", Source: unseenBody(t, 11, "timeout")})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body: %s", resp.StatusCode, body)
	}
	var m map[string]any
	getJSON(t, ts.URL+"/metrics", &m)
	if timeouts, _ := m["timeouts"].(float64); timeouts < 1 {
		t.Errorf("metrics report %v timeouts, want >= 1", m["timeouts"])
	}
}

// TestPoolDrain: Close completes submitted work and rejects later
// submissions with ErrClosed (mapped to 503 by the HTTP layer).
func TestPoolDrain(t *testing.T) {
	// The queue covers every submitter, so admission control cannot shed.
	pool := NewPool(2, 8)
	var ran int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := pool.Submit(context.Background(), func() error {
				mu.Lock()
				ran++
				mu.Unlock()
				return nil
			})
			if err != nil && err != ErrClosed {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	wg.Wait()
	pool.Close()
	if err := pool.Submit(context.Background(), func() error { return nil }); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran != 8 {
		t.Fatalf("ran %d jobs before Close, want all 8", ran)
	}
}

// TestConcurrentGenerateRequests fans 16 concurrent clients over the
// embedded templates through the full HTTP stack — the service-side
// counterpart of gen's TestConcurrentGeneration, run under -race in CI.
func TestConcurrentGenerateRequests(t *testing.T) {
	_, ts := sharedService(t)
	cases := templates.All()
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			uc := cases[i%len(cases)]
			resp, body := postJSONNoFatal(ts.URL+"/v1/generate", wire.GenerateRequest{UseCase: uc.ID})
			if resp == nil {
				errs <- fmt.Errorf("client %d: request failed", i)
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d (uc%d): status %d: %s", i, uc.ID, resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func postJSONNoFatal(url string, body any) (*http.Response, []byte) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestNonPlannableRequests: requests whose name or package the splicer
// cannot serve exactly (a newline in the name, surrounding whitespace, a
// package that is not a Go identifier) take the same path as every other
// request and simply never find a plan. Sent concurrently, so followers
// exercise the no-plan fallback to their own attempt, each matches the
// uncached pipeline byte for byte (or fails as it fails), and none leaves
// a plan behind.
func TestNonPlannableRequests(t *testing.T) {
	srv, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base, err := gen.New(rules.MustLoad(), "", gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := unseenBody(t, 11, "non-plannable")
	for _, tc := range []struct{ name, pkg string }{
		{"a\n.go", ""},
		{" pad.go", ""},
		{"ok.go", "not-an-identifier"},
	} {
		want, wantErr := base.WithOptions(gen.Options{PackageName: tc.pkg}).GenerateFile(tc.name, src)
		const n = 3
		resps := make([]wire.GenerateResponse, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resps[i], errs[i] = srv.Generate(context.Background(), wire.GenerateRequest{Name: tc.name, Source: src, Package: tc.pkg})
			}(i)
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			switch {
			case (errs[i] != nil) != (wantErr != nil):
				t.Errorf("name %q package %q: service error %v, pipeline error %v", tc.name, tc.pkg, errs[i], wantErr)
			case wantErr == nil && resps[i].Output != want.Output:
				t.Errorf("name %q package %q: output differs from the pipeline", tc.name, tc.pkg)
			case resps[i].Cached:
				t.Errorf("name %q package %q: served from a plan it cannot have", tc.name, tc.pkg)
			}
		}
	}
	snap := srv.Registry().Snapshot()
	if _, ok := snap.Plans.Execute(snap.Fingerprint, "ok.go", src, gen.Options{}); ok {
		t.Error("a non-plannable request left a plan behind for its body")
	}
}

// heapAfterGC is the live heap once two collections have run, the
// second one emptying the sync.Pool victim caches the first one filled.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestPlansKeepNoSource: a server keeps no request source in its plans.
// Each of N distinct bodies ends in a large comment that the generated
// output, and so its plan, keeps too; a plan that also held its request's
// source would hold the body twice. The heap may grow by less than 1.5x
// the body size per compiled plan.
func TestPlansKeepNoSource(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	waitWarm(t, srv)
	uc, err := templates.ByID(3)
	if err != nil {
		t.Fatal(err)
	}
	src, err := templates.Source(uc)
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 256<<10)
	body := func(i int) string { return fmt.Sprintf("%s\n// body %d %s\n", src, i, pad) }
	bodySize := len(body(0))
	const n = 8
	ctx := context.Background()
	plansBefore := srv.registry.Plans().Len()
	before := heapAfterGC()
	for i := 0; i < n; i++ {
		resp, err := srv.Generate(ctx, wire.GenerateRequest{Name: fmt.Sprintf("padded_%d.go", i), Source: body(i)})
		if err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if resp.Cached {
			t.Fatalf("body %d was spliced, want a pipeline run compiling its plan", i)
		}
	}
	grown := int64(heapAfterGC()) - int64(before)
	if got := srv.registry.Plans().Len() - plansBefore; got != n {
		t.Fatalf("%d plans compiled, want %d", got, n)
	}
	t.Logf("heap grew %d bytes over %d plans of %d-byte bodies", grown, n, bodySize)
	if limit := int64(n * bodySize * 3 / 2); grown >= limit {
		t.Errorf("heap grew %d bytes over %d plans of %d-byte bodies, want < %d (1.5x body per plan)", grown, n, bodySize, limit)
	}
	runtime.KeepAlive(srv)
}
