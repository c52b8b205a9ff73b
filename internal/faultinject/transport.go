package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"
)

// FireTransport consumes a firing for an HTTP fault point. Points may be
// armed host-targeted ("peer-transport@10.0.0.2:8572" faults only requests
// to that host — the shape of a partition) or plain ("peer-transport"
// faults every request through the transport). The host-targeted arming
// wins when both exist. Disarmed, this is a single atomic load.
func FireTransport(point, host string) (Fault, bool) {
	if armed.Load() == 0 {
		return Fault{}, false
	}
	if host != "" {
		if f, ok := consume(point + "@" + host); ok {
			return f, true
		}
	}
	return consume(point)
}

// Transport wraps base (nil = http.DefaultTransport) with the named fault
// point, making network failure injectable on any *http.Client without the
// client code knowing. Each request consults FireTransport once; disarmed
// it forwards straight to base. The injected behaviours per mode:
//
//	refuse   fail the round trip with *Error, without dialing — what a
//	         connection refused looks like to the caller (errors.As finds
//	         the *Error through http.Client's *url.Error wrapping)
//	latency  sleep (context-aware), then perform the round trip
//	5xx      synthesize a Fault.Status (default 500) response with a
//	         non-envelope text body, without performing the round trip
//	cut      perform the round trip, then sever the response body after
//	         its first byte — a mid-body connection loss
//	corrupt  perform the round trip, then mangle the response body's
//	         first byte — an intact-looking response that fails to decode
//	error    same observable shape as refuse
//	panic    panic with *Error (exercises transport-level recovery guards)
func Transport(point string, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &faultTransport{point: point, base: base}
}

type faultTransport struct {
	point string
	base  http.RoundTripper
}

// CloseIdleConnections forwards to base, so http.Client.CloseIdleConnections
// reaches the pool under the wrapper.
func (t *faultTransport) CloseIdleConnections() {
	if c, ok := t.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f, ok := FireTransport(t.point, req.URL.Host)
	if !ok {
		return t.base.RoundTrip(req)
	}
	switch f.Mode {
	case ModeLatency:
		timer := time.NewTimer(f.Latency)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			closeRequestBody(req)
			return nil, req.Context().Err()
		}
		return t.base.RoundTrip(req)
	case Mode5xx:
		closeRequestBody(req)
		status := f.Status
		if status == 0 {
			status = http.StatusInternalServerError
		}
		body := fmt.Sprintf("faultinject: injected %d at %s\n", status, t.point)
		return &http.Response{
			Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
			StatusCode:    status,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": {"text/plain; charset=utf-8"}},
			Body:          io.NopCloser(bytes.NewReader([]byte(body))),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	case ModeCutBody:
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		resp.Body = &cutBody{rc: resp.Body, err: &Error{Point: t.point, Mode: ModeCutBody}}
		// The advertised length no longer matches what the body will yield —
		// exactly the lie a severed connection tells.
		resp.ContentLength = -1
		return resp, nil
	case ModeCorrupt:
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		resp.Body = &corruptBody{rc: resp.Body}
		return resp, nil
	case ModePanic:
		closeRequestBody(req)
		panic(&Error{Point: t.point, Mode: ModePanic})
	default: // ModeRefuse, ModeError
		closeRequestBody(req)
		return nil, &Error{Point: t.point, Mode: f.Mode}
	}
}

// closeRequestBody honours the RoundTripper contract: when a round trip is
// not performed, the request body must still be closed.
func closeRequestBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// cutBody yields at most one byte of the real response, then fails every
// subsequent read with the injected error (never a clean io.EOF), so
// readers observe a mid-body cut.
type cutBody struct {
	rc      io.ReadCloser
	err     error
	yielded bool
}

func (c *cutBody) Read(p []byte) (int, error) {
	if c.yielded || len(p) == 0 {
		return 0, c.err
	}
	n, err := c.rc.Read(p[:1])
	if n > 0 {
		c.yielded = true
		return n, nil
	}
	if err != nil {
		// The real body ended (or failed) before one byte: the injected cut
		// still wins, so callers see the fault, not a clean EOF.
		return 0, c.err
	}
	return 0, nil
}

func (c *cutBody) Close() error { return c.rc.Close() }

// corruptBody flips the first byte that passes through it, leaving the
// rest of the stream intact — a response that arrives whole but does not
// parse.
type corruptBody struct {
	rc      io.ReadCloser
	mangled bool
}

func (c *corruptBody) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	if n > 0 && !c.mangled {
		p[0] ^= 0xFF
		c.mangled = true
	}
	return n, err
}

func (c *corruptBody) Close() error { return c.rc.Close() }
