package wire

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestErrorEnvelopeShape: the envelope marshals with the contract's field
// names and CodeForStatus assigns the retryable classes.
func TestErrorEnvelopeShape(t *testing.T) {
	e := NewError(http.StatusTooManyRequests, "queue full")
	e.RetryAfterMS = 1500
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"code", "message", "retryable", "retry_after_ms", "status"} {
		if _, ok := m[key]; !ok {
			t.Errorf("envelope missing %q: %s", key, data)
		}
	}
	if m["code"] != CodeOverloaded || m["retryable"] != true {
		t.Errorf("429 envelope = %s, want code overloaded, retryable", data)
	}

	for status, want := range map[int]struct {
		code      string
		retryable bool
	}{
		http.StatusBadRequest:            {CodeInvalidRequest, false},
		http.StatusNotFound:              {CodeNotFound, false},
		http.StatusMethodNotAllowed:      {CodeMethodNotAllowed, false},
		http.StatusRequestEntityTooLarge: {CodeBodyTooLarge, false},
		http.StatusTooManyRequests:       {CodeOverloaded, true},
		http.StatusInternalServerError:   {CodeInternal, false},
		http.StatusServiceUnavailable:    {CodeUnavailable, true},
	} {
		code, retryable := CodeForStatus(status)
		if code != want.code || retryable != want.retryable {
			t.Errorf("CodeForStatus(%d) = (%s, %t), want (%s, %t)", status, code, retryable, want.code, want.retryable)
		}
	}

	if e.Error() == "" {
		t.Error("Error() is empty")
	}
}

// TestMetricsRoundTrip: the typed snapshot round-trips through JSON with
// the key names the /metrics endpoint has always served.
func TestMetricsRoundTrip(t *testing.T) {
	m := Metrics{
		Requests:       7,
		CacheHitRate:   0.5,
		ForwardedTotal: 3,
		ForwardHits:    2,
		ForwardHitRate: 2.0 / 3.0,
		Peers:          map[string]PeerStatus{"http://a": {Healthy: true, Forwarded: 3}},
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"requests", "generate_requests", "batch_requests", "analyze_requests",
		"errors", "timeouts", "cache_hits", "cache_misses", "cache_hit_rate",
		"cache_entries", "coalesced", "reloads", "panics_recovered",
		"shed_total", "queue_depth", "latency_p50_ms",
		"latency_p99_ms", "forwarded_total", "forward_hits",
		"forward_fallbacks", "forward_hit_rate", "peers",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("metrics JSON missing %q", key)
		}
	}
	var back Metrics
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ForwardedTotal != 3 || !back.Peers["http://a"].Healthy {
		t.Errorf("round trip lost fields: %+v", back)
	}
}
