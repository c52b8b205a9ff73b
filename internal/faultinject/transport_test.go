package faultinject

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// transportClient returns an httptest server answering a fixed JSON body
// and a client whose transport is wrapped with the named fault point.
func transportClient(t *testing.T, point string) (*httptest.Server, *http.Client) {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok":true,"payload":"0123456789abcdef"}`)
	}))
	t.Cleanup(srv.Close)
	return srv, &http.Client{Transport: Transport(point, nil)}
}

func TestTransportDisarmedPassesThrough(t *testing.T) {
	defer Reset()
	srv, hc := transportClient(t, "tp")
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatalf("disarmed transport failed: %v", err)
	}
	defer resp.Body.Close()
	var out struct{ OK bool }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || !out.OK {
		t.Fatalf("disarmed transport mangled the body: %v ok=%v", err, out.OK)
	}
}

func TestTransportRefuse(t *testing.T) {
	defer Reset()
	srv, hc := transportClient(t, "tp")
	Arm("tp", Fault{Mode: ModeRefuse, Times: 1})
	_, err := hc.Get(srv.URL)
	var fe *Error
	if !errors.As(err, &fe) || fe.Mode != ModeRefuse {
		t.Fatalf("refused round trip error = %v, want *Error{ModeRefuse}", err)
	}
	// Times:1 exhausted: the next request goes through.
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatalf("request after fire-count exhaustion failed: %v", err)
	}
	resp.Body.Close()
	if Enabled() {
		t.Fatal("point still armed after its single firing")
	}
}

func TestTransportLatency(t *testing.T) {
	defer Reset()
	srv, hc := transportClient(t, "tp")
	Arm("tp", Fault{Mode: ModeLatency, Latency: 60 * time.Millisecond, Times: 1})
	start := time.Now()
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatalf("latency-faulted round trip failed: %v", err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Fatalf("round trip took %v, want >= 60ms injected latency", d)
	}
}

func TestTransport5xx(t *testing.T) {
	defer Reset()
	srv, hc := transportClient(t, "tp")
	Arm("tp", Fault{Mode: Mode5xx, Status: 502, Times: 1})
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatalf("5xx fault should synthesize a response, got error: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 502 {
		t.Fatalf("status = %d, want injected 502", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if json.Valid(body) {
		t.Fatalf("injected 5xx body %q must not be a valid envelope", body)
	}
}

func TestTransportCutBody(t *testing.T) {
	defer Reset()
	srv, hc := transportClient(t, "tp")
	Arm("tp", Fault{Mode: ModeCutBody, Times: 1})
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatalf("cut fault fails mid-body, not at round trip: %v", err)
	}
	defer resp.Body.Close()
	data, rerr := io.ReadAll(resp.Body)
	if rerr == nil {
		t.Fatalf("read %d bytes with clean EOF, want a mid-body error", len(data))
	}
	var fe *Error
	if !errors.As(rerr, &fe) || fe.Mode != ModeCutBody {
		t.Fatalf("mid-body error = %v, want *Error{ModeCutBody}", rerr)
	}
	if len(data) > 1 {
		t.Fatalf("cut body yielded %d bytes, want at most 1", len(data))
	}
}

func TestTransportCorrupt(t *testing.T) {
	defer Reset()
	srv, hc := transportClient(t, "tp")
	Arm("tp", Fault{Mode: ModeCorrupt, Times: 1})
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatalf("corrupt fault delivers the response, got error: %v", err)
	}
	defer resp.Body.Close()
	data, rerr := io.ReadAll(resp.Body)
	if rerr != nil {
		t.Fatalf("corrupt body must read to EOF cleanly: %v", rerr)
	}
	if json.Valid(data) {
		t.Fatalf("corrupted body still decodes: %q", data)
	}
	if want := `{"ok":true`; strings.HasPrefix(string(data), want) {
		t.Fatalf("first byte not mangled: %q", data)
	}
}

func TestTransportHostTargeted(t *testing.T) {
	defer Reset()
	srvA, _ := transportClient(t, "tp")
	srvB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srvB.Close()
	hc := &http.Client{Transport: Transport("tp", nil)}

	hostA := strings.TrimPrefix(srvA.URL, "http://")
	Arm("tp@"+hostA, Fault{Mode: ModeRefuse})
	defer Disarm("tp@" + hostA)

	// Requests to A are refused — a partition to that host alone.
	if _, err := hc.Get(srvA.URL); err == nil {
		t.Fatal("host-targeted refuse did not fire for the targeted host")
	}
	// Requests to B sail through the same transport.
	resp, err := hc.Get(srvB.URL)
	if err != nil {
		t.Fatalf("host-targeted fault leaked to another host: %v", err)
	}
	resp.Body.Close()
}

// TestFireTransportReturnsArmedFault: FireTransport hands the transport
// the fault armed at its point, mode and fire count included.
func TestFireTransportReturnsArmedFault(t *testing.T) {
	defer Reset()
	Arm("peer-transport", Fault{Mode: ModeRefuse, Times: 3})
	Arm("x", Fault{Mode: Mode5xx})
	Arm("y", Fault{Mode: ModeCutBody})
	f, ok := FireTransport("peer-transport", "h:1")
	if !ok || f.Mode != ModeRefuse || f.Times != 3 {
		t.Fatalf("peer-transport = %+v fired=%v, want refuse x3", f, ok)
	}
	if f, ok := FireTransport("x", ""); !ok || f.Mode != Mode5xx {
		t.Fatalf("x = %+v fired=%v, want 5xx", f, ok)
	}
	if f, ok := FireTransport("y", ""); !ok || f.Mode != ModeCutBody {
		t.Fatalf("y = %+v fired=%v, want cut", f, ok)
	}
}

// TestFireDegradesTransportMode: a transport mode armed at an in-process
// point injects an error rather than being silently ignored.
func TestFireDegradesTransportMode(t *testing.T) {
	defer Reset()
	Arm("inproc", Fault{Mode: ModeRefuse})
	var fe *Error
	if err := Fire("inproc"); !errors.As(err, &fe) {
		t.Fatalf("Fire at transport-mode point = %v, want *Error", err)
	}
}

type idleCloser struct {
	http.RoundTripper
	closes int
}

func (c *idleCloser) CloseIdleConnections() { c.closes++ }

// TestTransportForwardsCloseIdleConnections: closing an *http.Client's
// idle connections reaches the pool under the fault wrapper.
func TestTransportForwardsCloseIdleConnections(t *testing.T) {
	base := &idleCloser{RoundTripper: http.DefaultTransport}
	(&http.Client{Transport: Transport("tp", base)}).CloseIdleConnections()
	if base.closes != 1 {
		t.Fatalf("base saw %d CloseIdleConnections calls, want 1", base.closes)
	}
}
