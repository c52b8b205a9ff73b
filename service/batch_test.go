package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cognicryptgen/gen"
	"cognicryptgen/internal/faultinject"
	"cognicryptgen/rules"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// TestBatchMatchesSequential: POST /v1/generate/batch over all 13 embedded
// templates returns, per item, output byte-identical to a sequential
// /v1/generate of the same request.
func TestBatchMatchesSequential(t *testing.T) {
	_, ts := sharedService(t)
	cases := templates.All()

	want := make([]string, len(cases))
	var breq wire.BatchRequest
	for i, uc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/generate", wire.GenerateRequest{UseCase: uc.ID})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sequential use case %d: status %d: %s", uc.ID, resp.StatusCode, body)
		}
		var g wire.GenerateResponse
		if err := json.Unmarshal(body, &g); err != nil {
			t.Fatal(err)
		}
		want[i] = g.Output
		breq.Requests = append(breq.Requests, wire.GenerateRequest{UseCase: uc.ID})
	}

	resp, body := postJSON(t, ts.URL+"/v1/generate/batch", breq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	var bresp wire.BatchResponse
	if err := json.Unmarshal(body, &bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Results) != len(cases) || bresp.Succeeded != len(cases) || bresp.Failed != 0 {
		t.Fatalf("batch outcome: %d results, %d succeeded, %d failed; want %d/%d/0",
			len(bresp.Results), bresp.Succeeded, bresp.Failed, len(cases), len(cases))
	}
	for i, item := range bresp.Results {
		if !item.OK || item.Response == nil {
			t.Errorf("item %d: not ok: %s", i, item.Error)
			continue
		}
		if item.Index != i {
			t.Errorf("item %d: index = %d", i, item.Index)
		}
		if item.Response.Output != want[i] {
			t.Errorf("item %d (use case %d): batch output differs from sequential /v1/generate", i, cases[i].ID)
		}
	}
}

// TestBatchPartialFailure: one bad template fails its own slot only.
func TestBatchPartialFailure(t *testing.T) {
	_, ts := sharedService(t)
	breq := wire.BatchRequest{Requests: []wire.GenerateRequest{
		{UseCase: 11},
		{Name: "bad.go", Source: "package bad\n\nfunc B() { undefinedSymbol() }\n"},
	}}
	resp, body := postJSON(t, ts.URL+"/v1/generate/batch", breq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial batch must be 200, got %d: %s", resp.StatusCode, body)
	}
	var bresp wire.BatchResponse
	if err := json.Unmarshal(body, &bresp); err != nil {
		t.Fatal(err)
	}
	if bresp.Succeeded != 1 || bresp.Failed != 1 {
		t.Fatalf("succeeded/failed = %d/%d, want 1/1", bresp.Succeeded, bresp.Failed)
	}
	if !bresp.Results[0].OK || bresp.Results[0].Response == nil {
		t.Errorf("good item failed: %s", bresp.Results[0].Error)
	}
	if bresp.Results[1].OK || bresp.Results[1].Error == "" || bresp.Results[1].Status != http.StatusBadRequest {
		t.Errorf("bad item = %+v, want a 400-classed error", bresp.Results[1])
	}
}

// TestBatchValidation: malformed batches are the client's 400; the method
// check holds.
func TestBatchValidation(t *testing.T) {
	_, ts := sharedService(t)
	resp, body := postJSON(t, ts.URL+"/v1/generate/batch", wire.BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400: %s", resp.StatusCode, body)
	}
	over := wire.BatchRequest{Requests: make([]wire.GenerateRequest, maxBatchItems+1)}
	resp, body = postJSON(t, ts.URL+"/v1/generate/batch", over)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversize batch: status %d, want 400: %s", resp.StatusCode, body)
	}
	getResp, err := http.Get(ts.URL + "/v1/generate/batch")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET batch: status %d, want 405", getResp.StatusCode)
	}
}

// TestBatchDuplicatesCoalesce: a batch full of the same request over an
// unseen body returns byte-identical output in every item, however its
// items' attempts interleave.
func TestBatchDuplicatesCoalesce(t *testing.T) {
	srv, err := New(Config{Workers: 4, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	src := unseenBody(t, 11, "duplicate batch")
	var breq wire.BatchRequest
	for i := 0; i < 6; i++ {
		breq.Requests = append(breq.Requests, wire.GenerateRequest{Name: "dup_batch.go", Source: src})
	}
	bresp, err := srv.GenerateBatch(context.Background(), breq)
	if err != nil {
		t.Fatal(err)
	}
	if bresp.Failed != 0 {
		for _, item := range bresp.Results {
			if !item.OK {
				t.Errorf("item %d: %s", item.Index, item.Error)
			}
		}
		t.Fatalf("%d batch items failed", bresp.Failed)
	}
	for i, item := range bresp.Results {
		if item.Response.Output != bresp.Results[0].Response.Output {
			t.Errorf("item %d output differs within a duplicate batch", i)
		}
	}
}

// TestConcurrentMissesOneBody: N concurrent requests with distinct names
// over one unseen body can all miss the splice, and each that does makes
// its own attempt, so several may compile the body's plan at once.
// Whatever the interleaving, every response carries its own name in the
// header and the same bytes as the others beyond that line, and the body
// ends with exactly one resident plan: each later compile replaces the
// plan in place, and plan_bytes grows by that one plan's size.
func TestConcurrentMissesOneBody(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	srv, err := New(Config{Workers: 4, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	waitWarm(t, srv)
	before := srv.MetricsSnapshot()
	src := unseenBody(t, 11, "concurrent misses")

	// The size one plan of this body adds to an empty cache.
	one := gen.NewPlanCache(0)
	g, err := gen.New(rules.MustLoad(), "", gen.Options{Plans: one})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.GenerateFile("size.go", src); err != nil {
		t.Fatal(err)
	}

	// A generate latency fault holds each pipeline run before its plan
	// lookup, so on two or more CPUs the requests that reach a worker
	// together usually all miss the plan and compile it (on one CPU their
	// short runs mostly serialize); the checks below hold either way.
	faultinject.Arm(faultinject.PointGenerate, faultinject.Fault{Mode: faultinject.ModeLatency, Latency: 50 * time.Millisecond})
	const n = 6
	names := make([]string, n)
	resps := make([]wire.GenerateResponse, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("distinct_%d.go", i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resps[i], errs[i] = srv.Generate(context.Background(), wire.GenerateRequest{Name: names[i], Source: src})
		}(i)
	}
	close(start)
	wg.Wait()
	faultinject.Reset()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if resps[i].Name != names[i] || !strings.HasPrefix(resps[i].Output, "// Code generated by CogniCryptGEN from "+names[i]+". DO NOT EDIT.") {
			t.Errorf("request %d: response does not carry its own name %q: name %q, header %q", i, names[i], resps[i].Name, firstLine(resps[i].Output))
		}
		if stripHeaderLine(resps[i].Output) != stripHeaderLine(resps[0].Output) {
			t.Errorf("request %d: output differs from request 0's beyond the name", i)
		}
	}
	m := srv.MetricsSnapshot()
	if plans := m.PlanEntries - before.PlanEntries; plans != 1 {
		t.Errorf("%d plans added for one body, want 1", plans)
	}
	if grew := m.PlanBytes - before.PlanBytes; grew != one.Bytes() {
		t.Errorf("plan_bytes grew by %d, want %d (one plan of the body)", grew, one.Bytes())
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
