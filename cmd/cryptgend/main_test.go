package main

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonEndToEnd boots the daemon as a subprocess, waits for /healthz,
// exercises a generate round-trip, and checks SIGTERM triggers the
// graceful drain path.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping subprocess daemon test in -short mode")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command("go", "run", ".", "-addr", addr, "-workers", "2", "-drain", "5s")
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &out
	// go run forwards signals only when the child is in its own group.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cmd.Process != nil {
			syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		}
		cmd.Wait()
	}()

	base := "http://" + addr
	var healthy bool
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				healthy = true
				break
			}
		}
		time.Sleep(250 * time.Millisecond)
	}
	if !healthy {
		t.Fatalf("daemon never became healthy; output:\n%s", out.String())
	}

	resp, err := http.Post(base+"/v1/generate", "application/json",
		strings.NewReader(`{"usecase": 11}`))
	if err != nil {
		t.Fatal(err)
	}
	var gen struct {
		Output      string `json:"output"`
		Fingerprint string `json:"ruleset_fingerprint"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gen); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate status %d", resp.StatusCode)
	}
	if !strings.Contains(gen.Output, `gca.NewMessageDigest("SHA-256")`) {
		t.Errorf("generated output missing expected call:\n%s", gen.Output)
	}
	if gen.Fingerprint == "" {
		t.Error("missing rule-set fingerprint")
	}

	// Graceful shutdown on SIGTERM (delivered to the process group so it
	// reaches the daemon under `go run`).
	if err := syscall.Kill(-cmd.Process.Pid, syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drained, exiting") {
		t.Errorf("expected graceful-drain log line; output:\n%s", out.String())
	}
}

// awaitDrain decides how a graceful drain ends: normally, forced by a
// second operator signal, or forced by the drain deadline. All three arms
// must be reachable.

func TestAwaitDrainCompletes(t *testing.T) {
	done := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(done)
	}()
	if got := awaitDrain(done, sigc, 5*time.Second); got != drainDone {
		t.Fatalf("want drainDone, got %v", got)
	}
}

func TestAwaitDrainSecondSignalForcesExit(t *testing.T) {
	done := make(chan struct{}) // drain never finishes (stuck)
	sigc := make(chan os.Signal, 1)
	sigc <- syscall.SIGTERM
	if got := awaitDrain(done, sigc, 5*time.Second); got != drainSignal {
		t.Fatalf("want drainSignal, got %v", got)
	}
}

func TestAwaitDrainTimeoutForcesExit(t *testing.T) {
	done := make(chan struct{}) // drain never finishes (stuck)
	sigc := make(chan os.Signal, 1)
	start := time.Now()
	if got := awaitDrain(done, sigc, 20*time.Millisecond); got != drainTimeout {
		t.Fatalf("want drainTimeout, got %v", got)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("timeout arm took %v", time.Since(start))
	}
}

// TestHTTPServerReadDeadlines: the listener bounds how long a client may
// take to send its header and its whole request, and how long an idle
// keep-alive connection is kept, so a stalled client cannot pin a
// connection indefinitely. Reading a request may take at least the 30s
// default request timeout.
func TestHTTPServerReadDeadlines(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want set", srv.ReadHeaderTimeout)
	}
	if srv.ReadTimeout < 30*time.Second {
		t.Errorf("ReadTimeout = %v, want at least the 30s default request timeout", srv.ReadTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want set", srv.IdleTimeout)
	}
	if srv.ReadHeaderTimeout > srv.ReadTimeout {
		t.Errorf("ReadHeaderTimeout %v exceeds ReadTimeout %v", srv.ReadHeaderTimeout, srv.ReadTimeout)
	}
}
