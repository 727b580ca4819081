package client_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/tlstest"
	"repro/internal/wire"
)

func startServer(t *testing.T, cfg server.Config) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := server.New(cfg)
	go srv.Serve(lis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return lis.Addr().String()
}

func assertSpec() scenario.Spec {
	return scenario.Spec{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42}
}

// TestDialTimeoutAndFailure: dialing a dead address fails after the
// configured attempts, quickly.
func TestDialTimeoutAndFailure(t *testing.T) {
	// Grab a port and close it so nothing listens there.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	start := time.Now()
	_, err = client.Dial(addr, client.Options{
		DialTimeout: 200 * time.Millisecond,
		Attempts:    2,
		Backoff:     20 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("dial to dead address should fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial failure took too long: %v", elapsed)
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("error should mention attempts: %v", err)
	}
}

// TestDialContextCancel is the regression test for the uncancellable
// backoff loop: against a never-listening address with a long retry
// schedule, cancelling the context must abort the dial immediately —
// including mid-backoff-sleep — instead of sleeping out the remaining
// attempts.
func TestDialContextCancel(t *testing.T) {
	// Grab a port and close it so nothing listens there.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = client.DialContext(ctx, addr, client.Options{
		DialTimeout: time.Second,
		Attempts:    1000, // uncancelled, this schedule runs for minutes
		Backoff:     500 * time.Millisecond,
		MaxBackoff:  500 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled dial returned after %v; cancellation did not interrupt the backoff", elapsed)
	}
}

// TestDialPreCancelledContext: a context already cancelled fails the dial
// before any attempt.
func TestDialPreCancelledContext(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.DialContext(ctx, addr, client.Options{Attempts: 10}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestDialTLSAuth: the client dials TLS, authenticates with a token, and
// reports both through its accessors; a TLS handshake against a server
// whose certificate it does not trust fails immediately without burning
// the retry schedule.
func TestDialTLSAuth(t *testing.T) {
	certPEM, keyPEM, err := tlstest.GenerateKeypair([]string{"127.0.0.1"}, time.Hour)
	if err != nil {
		t.Fatalf("keypair: %v", err)
	}
	srvTLS, err := tlstest.ServerConfig(certPEM, keyPEM, nil)
	if err != nil {
		t.Fatalf("server tls: %v", err)
	}
	addr := startServer(t, server.Config{TLS: srvTLS, AuthToken: "tok", RequireAuth: true})

	cliTLS, err := tlstest.ClientConfig(certPEM, nil, nil)
	if err != nil {
		t.Fatalf("client tls: %v", err)
	}
	cl, err := client.Dial(addr, client.Options{TLS: cliTLS, AuthToken: "tok"})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if !cl.Authenticated() {
		t.Fatal("Authenticated() should be true after a verified token")
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping over TLS: %v", err)
	}

	// An untrusting client must fail fast: TLS handshake failures do not
	// retry, so 100 attempts x 500ms never happens.
	otherCA, _, err := tlstest.GenerateKeypair([]string{"127.0.0.1"}, time.Hour)
	if err != nil {
		t.Fatalf("second keypair: %v", err)
	}
	badTLS, err := tlstest.ClientConfig(otherCA, nil, nil)
	if err != nil {
		t.Fatalf("bad client tls: %v", err)
	}
	start := time.Now()
	_, err = client.Dial(addr, client.Options{TLS: badTLS, AuthToken: "tok", Attempts: 100, Backoff: 500 * time.Millisecond})
	if err == nil {
		t.Fatal("dial with an untrusted CA should fail")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("TLS verification failure retried for %v instead of failing fast", elapsed)
	}

	// So must a client without a certificate against an mTLS server. Under
	// TLS 1.3 the client's side of the TLS handshake succeeds, and the
	// server's rejection arrives where the Welcome should.
	mtls, err := tlstest.ServerConfig(certPEM, keyPEM, certPEM)
	if err != nil {
		t.Fatalf("mTLS server tls: %v", err)
	}
	mtlsAddr := startServer(t, server.Config{TLS: mtls})
	start = time.Now()
	if _, err := client.Dial(mtlsAddr, client.Options{TLS: cliTLS, Attempts: 100, Backoff: 500 * time.Millisecond}); err == nil {
		t.Fatal("mTLS server accepted a client without a certificate")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("client-certificate rejection retried for %v instead of failing fast", elapsed)
	}
}

// TestReconnectBackoff: a daemon that starts late is reached by the
// retry/backoff loop.
func TestReconnectBackoff(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close() // free the port; the daemon appears here shortly

	srv := server.New(server.Config{})
	go func() {
		time.Sleep(200 * time.Millisecond)
		l2, err := net.Listen("tcp", addr)
		if err != nil {
			t.Errorf("relisten: %v", err)
			return
		}
		srv.Serve(l2)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	cl, err := client.Dial(addr, client.Options{
		DialTimeout: 200 * time.Millisecond,
		Attempts:    20,
		Backoff:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial with backoff should reach the late daemon: %v", err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if cl.ServerName() == "" {
		t.Fatal("handshake should report the server name")
	}
}

// TestInteractiveExec drives a remote interactive session command by
// command through Run's prompt callback: each answer's output has arrived
// by the time the next prompt is asked.
func TestInteractiveExec(t *testing.T) {
	addr := startServer(t, server.Config{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	spec := assertSpec()
	spec.Interactive = true
	cmds := []string{"vcap", "read", "halt"}
	var out bytes.Buffer
	var replies []string // the banner, then the output of each command
	mark := 0
	st, err := cl.Run(spec, &out, func() (string, bool) {
		replies = append(replies, out.String()[mark:])
		mark = out.Len()
		if len(replies) > len(cmds) {
			return "", false
		}
		return cmds[len(replies)-1], true
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(replies) < 3 {
		t.Fatalf("session prompted %d times, want at least 3", len(replies))
	}
	if !strings.Contains(replies[0], "[edb] interactive session: assert") {
		t.Fatalf("banner missing session line:\n%s", replies[0])
	}
	if !strings.Contains(replies[1], "Vcap = ") {
		t.Fatalf("vcap output: %q", replies[1])
	}
	if !strings.Contains(replies[2], "error:") {
		t.Fatalf("malformed read should report a console error, got %q", replies[2])
	}
	if !strings.Contains(st.Halted, "assert") {
		t.Fatalf("final status should record the assert halt, got %+v", st)
	}
}

// TestTraceStreaming: OnTrace receives the raw samples behind the final
// energy-trace window.
func TestTraceStreaming(t *testing.T) {
	addr := startServer(t, server.Config{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	var samples int
	cl.OnTrace = func(tc *wire.Trace) {
		if tc.Name != "Vcap" || tc.Unit != "V" {
			t.Errorf("unexpected trace series %s/%s", tc.Name, tc.Unit)
		}
		samples += len(tc.Samples)
	}
	spec := scenario.Spec{App: "busy", Seconds: 0.5, Seed: 7, Trace: true}
	var buf bytes.Buffer
	st, err := cl.Run(spec, &buf, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.Exit != 0 {
		t.Fatalf("exit %d", st.Exit)
	}
	if samples == 0 {
		t.Fatal("no trace samples streamed")
	}
	if !strings.Contains(buf.String(), "==== energy trace (last 150 ms) ====") {
		t.Fatalf("rendered trace missing from output:\n%s", buf.String())
	}
}

// TestRunWithoutSessions: a scenario whose debugger never opens a session
// still streams its run summary.
func TestRunWithoutSessions(t *testing.T) {
	addr := startServer(t, server.Config{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	var buf bytes.Buffer
	st, err := cl.Run(scenario.Spec{App: "busy", Seconds: 0.5, Seed: 7}, &buf, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.Commands != 0 || st.Exit != 0 {
		t.Fatalf("unexpected status %+v", st)
	}
	if !strings.Contains(buf.String(), "==== run summary ====") {
		t.Fatalf("missing summary:\n%s", buf.String())
	}
}
