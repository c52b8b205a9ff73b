package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"cognicryptgen/gen"
	"cognicryptgen/internal/faultinject"
	"cognicryptgen/rules"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// TestPlanHitBodyMatchesPipeline: a plan hit, whose output the handler
// writes into the body piece by piece, decodes to the output of an
// uncached pipeline run, and every body, miss or hit, is the bytes
// encoding/json writes for its decoded value. Each of the 13 use cases,
// with and without a package override and under names that need HTML
// escaping or hold non-ASCII runes, is served first as a miss (a body no
// plan holds yet) and then as a hit.
func TestPlanHitBodyMatchesPipeline(t *testing.T) {
	_, ts := chaosServer(t, Config{Workers: 2, CacheSize: 128})
	base, err := gen.New(rules.MustLoad(), "", gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a<b>&c.go", "h\u00e9llo\u2028w\u00f6rld \u20ac.go"}
	for _, uc := range templates.All() {
		for _, pkg := range []string{"", "app"} {
			g := base.WithOptions(gen.Options{PackageName: pkg})
			for i, name := range names {
				src := unseenBody(t, uc.ID, fmt.Sprintf("body match %d %q", i, pkg))
				want, err := g.GenerateFile(name, src)
				if err != nil {
					t.Fatalf("use case %d, %q, package %q: %v", uc.ID, name, pkg, err)
				}
				req := wire.GenerateRequest{Name: name, Source: src, Package: pkg}
				for _, cached := range []bool{false, true} {
					resp, body := postJSON(t, ts.URL+"/v1/generate", req)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("use case %d, %q, package %q: status %d: %s", uc.ID, name, pkg, resp.StatusCode, body)
					}
					var got wire.GenerateResponse
					mustUnmarshal(t, body, &got)
					if got.Cached != cached {
						t.Fatalf("use case %d, %q, package %q: cached = %t, want %t", uc.ID, name, pkg, got.Cached, cached)
					}
					if got.Output != want.Output {
						t.Fatalf("use case %d, %q, package %q, cached %t: output differs from an uncached pipeline run", uc.ID, name, pkg, cached)
					}
					enc, err := json.Marshal(got)
					if err != nil {
						t.Fatal(err)
					}
					if string(body) != string(enc)+"\n" {
						t.Fatalf("use case %d, %q, package %q, cached %t: body is not encoding/json's:\n got %q\nwant %q", uc.ID, name, pkg, cached, body, enc)
					}
				}
			}
		}
	}
}

// discardWriter is a ResponseWriter that keeps only the status and the
// body's length.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestPlanHitAllocatesLessThanOutput: serving a warmed plan hit through
// the handler allocates, all told, fewer bytes than the output it serves,
// so the output is never built as a string on the way into the body.
// Requests are built before each measured round, and the lowest of up to
// 20 rounds counts, so another test's server still warming in the
// background cannot fail it. The race detector drops pooled buffers at
// random, so under -race the bound does not hold and the test does not
// run.
func TestPlanHitAllocatesLessThanOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	srv, _ := chaosServer(t, Config{Workers: 1})
	waitWarm(t, srv)
	ref, err := srv.Generate(t.Context(), wire.GenerateRequest{UseCase: 3})
	if err != nil || !ref.Cached {
		t.Fatalf("use case 3: cached %t, err %v; want a plan hit", ref.Cached, err)
	}
	h := srv.Handler()
	const n = 200
	serve := func() uint64 {
		reqs := make([]*http.Request, n)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/generate", strings.NewReader(`{"usecase":3}`))
		}
		w := &discardWriter{header: http.Header{}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range reqs {
			h.ServeHTTP(w, r)
		}
		runtime.ReadMemStats(&after)
		if w.status != http.StatusOK || w.n < n*len(ref.Output) {
			t.Fatalf("status %d, %d body bytes for %d hits of a %d-byte output", w.status, w.n, n, len(ref.Output))
		}
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	serve() // grow the pooled body buffers to the response's size
	perHit := serve()
	for i := 1; i < 20 && perHit >= uint64(len(ref.Output)); i++ {
		time.Sleep(10 * time.Millisecond)
		perHit = min(perHit, serve())
	}
	if perHit >= uint64(len(ref.Output)) {
		t.Fatalf("a plan hit allocated %d bytes; want fewer than its %d-byte output", perHit, len(ref.Output))
	}
	t.Logf("%d bytes allocated per hit of a %d-byte output", perHit, len(ref.Output))
}

// TestAnalyzeDeadline503: an analysis admitted to the pool but held there
// past RequestTimeout (a worker-exec latency fault) is answered 503 at
// once, not 200 late, and the next call is admitted and served.
func TestAnalyzeDeadline503(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	_, ts := chaosServer(t, Config{Workers: 1, RequestTimeout: 100 * time.Millisecond})
	faultinject.Arm(faultinject.PointWorkerExec, faultinject.Fault{Mode: faultinject.ModeLatency, Latency: 300 * time.Millisecond, Times: 1})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Name: "fig1.go", Source: figure1Misuse})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("analysis past its deadline: status %d, want 503: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/analyze", wire.AnalyzeRequest{Name: "fig1.go", Source: figure1Misuse})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analysis after the fault: status %d: %s", resp.StatusCode, body)
	}
}
