package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cognicryptgen/internal/faultinject"
	"cognicryptgen/templates"
	"cognicryptgen/wire"
)

// The chaos suite drives the daemon through injected faults — worker
// panics, reload failures, latency storms — and asserts the resilience
// contracts: one request fails, the process and its neighbours survive.
// scripts/verify.sh runs these under -race. Faults are process-global, so
// none of these tests may call t.Parallel.

// chaosServer builds an isolated server + HTTP listener so injected
// faults cannot leak into the shared service used by the rest of the
// package.
func mustUnmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("unmarshalling %s: %v", data, err)
	}
}

func chaosServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// TestChaosWorkerPanic: a panic on a pool worker mid-request must answer
// that one request with a 500 (typed internal error, panics_recovered
// bumped) while the worker survives and serves the very next request.
func TestChaosWorkerPanic(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	srv, ts := chaosServer(t, Config{Workers: 2, CacheSize: 8})

	uc, err := templates.ByID(1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := templates.Source(uc)
	if err != nil {
		t.Fatal(err)
	}

	// Distinct source bodies per request: the fault under test lives on
	// the worker path, and a request whose body matches a resident plan
	// would be served by the byte-splice fast path without ever reaching
	// the pool.
	faultinject.Arm(faultinject.PointWorkerExec, faultinject.Fault{Mode: faultinject.ModePanic, Times: 1})
	resp, body := postJSON(t, ts.URL+"/v1/generate", wire.GenerateRequest{Name: "chaos_panic_1.go", Source: src + "\n// chaos: panic 1\n"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("request during injected panic: status %d, want 500: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "internal error") {
		t.Errorf("500 body does not say internal error: %s", body)
	}

	// The fault self-disarmed after one firing; the same daemon — and
	// possibly the same worker goroutine — must serve the next request.
	resp, body = postJSON(t, ts.URL+"/v1/generate", wire.GenerateRequest{Name: "chaos_panic_2.go", Source: src + "\n// chaos: panic 2\n"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after recovered panic: status %d: %s", resp.StatusCode, body)
	}

	m := srv.MetricsSnapshot()
	if n := m.PanicsRecovered; n < 1 {
		t.Errorf("panics_recovered = %v, want >= 1", n)
	}
}

// TestChaosReloadFailureKeepsLastGood: a reload that fails at the swap
// fault point must (a) answer /v1/reload with a 500, (b) flip /readyz to
// degraded with the failed candidate's fingerprint, (c) leave the exact
// last-good snapshot serving — all 13 templates byte-identical to their
// pre-fault outputs — and (d) clear back to ok on the next successful
// reload.
func TestChaosReloadFailureKeepsLastGood(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	srv, ts := chaosServer(t, Config{Workers: 2, CacheSize: 4})
	waitWarm(t, srv) // so the final readyz check sees "ok", not "restoring"

	cases := templates.All()
	want := make(map[int]string, len(cases))
	for _, uc := range cases {
		src, err := templates.Source(uc)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, ts.URL+"/v1/generate",
			wire.GenerateRequest{Name: fmt.Sprintf("chaos_pre_%d.go", uc.ID), Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("use case %d before fault: status %d: %s", uc.ID, resp.StatusCode, body)
		}
		var gr wire.GenerateResponse
		mustUnmarshal(t, body, &gr)
		want[uc.ID] = stripHeaderLine(gr.Output)
	}
	snapBefore := srv.Registry().Snapshot()

	faultinject.Arm(faultinject.PointReloadSwap, faultinject.Fault{Mode: faultinject.ModeError, Times: 1})
	resp, body := postJSON(t, ts.URL+"/v1/reload", struct{}{})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload with injected swap fault: status %d: %s", resp.StatusCode, body)
	}

	var ready map[string]any
	if r := getJSON(t, ts.URL+"/readyz", &ready); r.StatusCode != http.StatusOK {
		t.Fatalf("readyz while degraded: status %d", r.StatusCode)
	}
	if ready["status"] != "degraded" {
		t.Fatalf("readyz status = %v, want degraded", ready["status"])
	}
	if fp, _ := ready["failed_fingerprint"].(string); fp != snapBefore.Fingerprint {
		t.Errorf("failed_fingerprint = %q, want the candidate's %q", fp, snapBefore.Fingerprint)
	}
	if le, _ := ready["last_error"].(string); !strings.Contains(le, "swapping in rule set") {
		t.Errorf("last_error = %q does not name the swap failure", le)
	}

	if srv.Registry().Snapshot() != snapBefore {
		t.Fatal("failed reload replaced the snapshot")
	}
	for _, uc := range cases {
		src, err := templates.Source(uc)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postJSON(t, ts.URL+"/v1/generate",
			wire.GenerateRequest{Name: fmt.Sprintf("chaos_post_%d.go", uc.ID), Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("use case %d after failed reload: status %d: %s", uc.ID, resp.StatusCode, body)
		}
		var gr wire.GenerateResponse
		mustUnmarshal(t, body, &gr)
		if got := stripHeaderLine(gr.Output); got != want[uc.ID] {
			t.Errorf("use case %d: output changed after failed reload", uc.ID)
		}
	}

	// The fault exhausted itself: the next reload succeeds and readyz
	// recovers.
	resp, body = postJSON(t, ts.URL+"/v1/reload", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload after fault cleared: status %d: %s", resp.StatusCode, body)
	}
	getJSON(t, ts.URL+"/readyz", &ready)
	if ready["status"] != "ok" {
		t.Errorf("readyz after successful reload = %v, want ok", ready["status"])
	}
}

// TestChaosLatencyShedding: with workers wedged by injected latency and a
// tiny queue, excess concurrent requests must be shed with 429 + a
// Retry-After hint instead of queueing without bound; once the latency
// clears, the daemon recovers — requests succeed again and the goroutine
// count drops back to its pre-storm baseline (nothing leaked).
func TestChaosLatencyShedding(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	srv, ts := chaosServer(t, Config{
		Workers: 1,
		// Two submissions may wait for the one worker; the rest shed.
		QueueSize:      2,
		RequestTimeout: 30 * time.Second,
	})

	uc, err := templates.ByID(1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := templates.Source(uc)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the snapshot's generator so the storm measures queueing, not the
	// one-off type-check warm-up.
	if resp, body := postJSON(t, ts.URL+"/v1/generate", wire.GenerateRequest{Name: "chaos_warm.go", Source: src}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", resp.StatusCode, body)
	}
	baseline := runtime.NumGoroutine()

	faultinject.Arm(faultinject.PointWorkerExec, faultinject.Fault{Mode: faultinject.ModeLatency, Latency: 200 * time.Millisecond})
	const storm = 8
	statuses := make([]int, storm)
	retryAfter := make([]string, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct bodies, not just distinct names: a body matching a
			// resident plan would be spliced inline and never saturate the
			// pool this test is wedging.
			resp, _ := postJSONNoFatal(ts.URL+"/v1/generate",
				wire.GenerateRequest{Name: fmt.Sprintf("chaos_storm_%d.go", i), Source: src + fmt.Sprintf("\n// chaos: storm %d\n", i)})
			if resp != nil {
				statuses[i] = resp.StatusCode
				retryAfter[i] = resp.Header.Get("Retry-After")
			}
		}(i)
	}
	wg.Wait()

	shed := 0
	for i, st := range statuses {
		if st != http.StatusTooManyRequests {
			continue
		}
		shed++
		secs, err := strconv.Atoi(retryAfter[i])
		if err != nil || secs < 1 {
			t.Errorf("429 response %d carries Retry-After %q, want a positive integer", i, retryAfter[i])
		}
	}
	if shed == 0 {
		t.Fatalf("no request was shed under saturation: statuses %v", statuses)
	}
	m := srv.MetricsSnapshot()
	if n := m.ShedTotal; n < 1 {
		t.Errorf("shed_total = %v, want >= 1", n)
	}

	// Clear the fault: the daemon must recover on its own.
	faultinject.Reset()
	if resp, body := postJSON(t, ts.URL+"/v1/generate", wire.GenerateRequest{Name: "chaos_recover.go", Source: src}); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after latency cleared: status %d: %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline: %d now vs %d before the storm", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestRetryAfterJitter: the 429 hint for shed streak k (capped at 6) is
// 2^k seconds plus up to half of that again, so a fleet shed together
// comes back spread over the window instead of as one herd.
func TestRetryAfterJitter(t *testing.T) {
	for streak := int64(0); streak <= 8; streak++ {
		k := min(streak, 6)
		lo, hi := 1<<k, 1<<k+(1<<k)/2
		s := &Server{}
		s.shedStreak.Store(streak)
		seen := map[int]bool{}
		for range 200 {
			got := s.retryAfterSeconds()
			if got < lo || got > hi {
				t.Fatalf("streak %d: Retry-After %d outside [%d, %d]", streak, got, lo, hi)
			}
			seen[got] = true
		}
		if hi > lo && len(seen) < 2 {
			t.Errorf("streak %d: 200 hints all %v; want jitter over [%d, %d]", streak, seen, lo, hi)
		}
	}
}

// TestNewRejectsNegativeConfig: a negative size, bound or duration is a
// configuration error rather than a silently broken daemon. Admission
// control has no unbounded queue mode; a negative body cap would answer
// every POST with 413; a negative worker count would run one worker while
// /healthz reported the negative figure; a negative request timeout would
// answer every pipeline run and analysis 503 while plan hits still served.
// A negative cache size or probe interval would silently become the
// default, which their docs reserve for 0.
func TestNewRejectsNegativeConfig(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"QueueSize", Config{Workers: 1, QueueSize: -1}},
		{"MaxBodyBytes", Config{Workers: 1, MaxBodyBytes: -1}},
		{"Workers", Config{Workers: -3}},
		{"RequestTimeout", Config{Workers: 1, RequestTimeout: -time.Second}},
		{"CacheSize", Config{Workers: 1, CacheSize: -1}},
		{"PeerProbeInterval", Config{Workers: 1, Self: "http://self", Peers: []string{"http://peer"}, PeerProbeInterval: -time.Second}},
	} {
		s, err := New(tc.cfg)
		if err == nil {
			s.Close()
			t.Errorf("New accepted a negative %s", tc.field)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("error %q does not name %s", err, tc.field)
		}
	}
}

// unreadBody is a request body that fails the test if anything reads it.
type unreadBody struct{ t *testing.T }

func (u unreadBody) Read([]byte) (int, error) {
	u.t.Error("request body read although its Content-Length is over the cap")
	return 0, io.EOF
}

func (unreadBody) Close() error { return nil }

// TestBodyCapRefusesBeforeReading: a request whose advertised
// Content-Length exceeds the cap is answered 413 before a byte of its body
// is read, on every POST endpoint that decodes a body.
func TestBodyCapRefusesBeforeReading(t *testing.T) {
	srv, _ := chaosServer(t, Config{Workers: 1, MaxBodyBytes: 2048})
	for _, path := range []string{"/v1/generate", "/v1/analyze", "/v1/generate/batch"} {
		req := httptest.NewRequest(http.MethodPost, path, nil)
		req.Body, req.ContentLength = unreadBody{t}, 8<<20
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413: %s", path, rec.Code, rec.Body)
		}
	}
}

// stallBody is a request body whose first read reports itself on reading
// and then blocks until release is closed, as a client that advertises a
// length and then sends nothing.
type stallBody struct{ reading, release chan struct{} }

func (b stallBody) Read([]byte) (int, error) {
	close(b.reading)
	<-b.release
	return 0, io.EOF
}

func (stallBody) Close() error { return nil }

// TestBodyCapStalledBodyHoldsLittle: a request that advertises a body at
// the cap and then stalls holds memory for the bytes that arrived, not for
// its advertised length, so idle connections cannot each pin the cap.
func TestBodyCapStalledBodyHoldsLittle(t *testing.T) {
	const limit = 64 << 20
	srv, _ := chaosServer(t, Config{Workers: 1, MaxBodyBytes: limit})
	waitWarm(t, srv) // so the background warm-up allocates nothing meanwhile
	body := stallBody{make(chan struct{}), make(chan struct{})}
	req := httptest.NewRequest(http.MethodPost, "/v1/generate", nil)
	req.Body, req.ContentLength = body, limit
	rec := httptest.NewRecorder()

	var before, during runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Handler().ServeHTTP(rec, req)
	}()
	<-body.reading
	runtime.ReadMemStats(&during)
	close(body.release)
	<-done
	if grown := during.TotalAlloc - before.TotalAlloc; grown > limit/16 {
		t.Errorf("allocated %d bytes while the %d-byte body stalled; want well under the advertised length", grown, limit)
	}
	if rec.Code != http.StatusBadRequest {
		t.Errorf("short body: status %d, want 400: %s", rec.Code, rec.Body)
	}
}

// TestBodyCap413: oversized request bodies are rejected with 413 before
// any decoding or pool work happens, on every POST endpoint that reads a
// body.
func TestBodyCap413(t *testing.T) {
	_, ts := chaosServer(t, Config{Workers: 1, MaxBodyBytes: 2048})
	big := wire.GenerateRequest{Name: "big.go", Source: strings.Repeat("// padding\n", 1024)}
	for _, url := range []string{ts.URL + "/v1/generate", ts.URL + "/v1/analyze"} {
		resp, body := postJSON(t, url, big)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413: %s", url, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/generate/batch", wire.BatchRequest{Requests: []wire.GenerateRequest{big}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("batch: status %d, want 413: %s", resp.StatusCode, body)
	}

	// A chunked body (length unknown, -1) is refused once it passes the cap.
	// The MultiReader hides the body's length from NewRequest.
	data, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/generate", io.MultiReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = -1
	chunked, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	chunked.Body.Close()
	if chunked.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked: status %d, want 413", chunked.StatusCode)
	}

	// Well under the cap still works end to end (the cap must not count
	// against the response).
	small, sts := chaosServer(t, Config{Workers: 1})
	_ = small
	uc, err := templates.ByID(1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := templates.Source(uc)
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, sts.URL+"/v1/generate", wire.GenerateRequest{Name: "cap_ok.go", Source: src}); resp.StatusCode != http.StatusOK {
		t.Fatalf("under-cap request: status %d: %s", resp.StatusCode, body)
	}
}

// TestReadyzRestoring: every boot reports "restoring" until its boot warm
// finishes — served with HTTP 200 like degraded, because the node answers
// correctly throughout and must not be ejected by peers or SDK probes —
// then "ok". An armed generate latency fault holds each of the warm's
// pipeline runs, so the restoring window is observable.
func TestReadyzRestoring(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	faultinject.Arm(faultinject.PointGenerate, faultinject.Fault{Mode: faultinject.ModeLatency, Latency: 50 * time.Millisecond})
	srv, ts := chaosServer(t, Config{Workers: 1})

	var ready wire.ReadyResponse
	if resp := getJSON(t, ts.URL+"/readyz", &ready); resp.StatusCode != http.StatusOK {
		t.Fatalf("restoring readyz served %d, want 200", resp.StatusCode)
	}
	if ready.Status != wire.ReadyRestoring {
		t.Fatalf("readyz status %q while the boot warm is held, want %q", ready.Status, wire.ReadyRestoring)
	}
	if got := srv.ReadyInfo().Status; got != wire.ReadyRestoring {
		t.Fatalf("ReadyInfo status %q, want %q", got, wire.ReadyRestoring)
	}
	faultinject.Reset()
	waitWarm(t, srv)
	if got := srv.ReadyInfo().Status; got != wire.ReadyOK {
		t.Fatalf("ReadyInfo status %q after the boot warm, want %q", got, wire.ReadyOK)
	}
	if n := srv.MetricsSnapshot().PlanEntries; n < len(templates.All()) {
		t.Errorf("boot warm left %d plans, want the %d embedded templates'", n, len(templates.All()))
	}
}
