package client_test

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/wiretest"
)

// deadAddr returns an address nothing listens on.
func deadAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

// TestDialListFallsThroughDeadAddress: a multi-address -connect list tries
// every address within ONE attempt — a dead first entry must not consume a
// retry (fast failover, not backoff-paced).
func TestDialListFallsThroughDeadAddress(t *testing.T) {
	live := startServer(t, server.Config{})
	cl, err := client.Dial(deadAddr(t)+", "+live, client.Options{
		DialTimeout: 500 * time.Millisecond,
		Attempts:    1,
	})
	if err != nil {
		t.Fatalf("dial list with one live address failed: %v", err)
	}
	defer cl.Close()

	var out bytes.Buffer
	st, err := cl.Run(assertSpec(), &out, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.Exit != 0 {
		t.Fatalf("unexpected status %+v", st)
	}
}

// TestDialListEmpty: a list that trims to nothing is a usage error, not a
// nil-deref or a dial of "".
func TestDialListEmpty(t *testing.T) {
	if _, err := client.Dial(" , ,", client.Options{}); err == nil {
		t.Fatal("dialing an empty address list should fail")
	}
}

// TestRunFailsOverAcrossDialList: the session starts on the list's first
// server (through a cuttable proxy) and the connection is cut mid-session.
// The resume must rotate to the second server — a different process with
// no session state, rebuilt purely from the client journal — and the
// combined output must be byte-identical to an undisturbed local run.
func TestRunFailsOverAcrossDialList(t *testing.T) {
	spec := scenario.Spec{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42,
		Interactive: true}
	cmds := []string{"vcap", "status", "halt"}

	var golden bytes.Buffer
	i := 0
	if _, err := scenario.Run(spec, &golden, func() (string, bool) {
		if i < len(cmds) {
			i++
			return cmds[i-1], true
		}
		return "", false
	}); err != nil {
		t.Fatalf("golden run: %v", err)
	}

	srvA := startServer(t, server.Config{})
	srvB := startServer(t, server.Config{})
	proxy := wiretest.NewProxy(t, srvA)

	var resumedTo string
	var took time.Duration
	cl, err := client.Dial(proxy.Addr()+","+srvB, client.Options{
		Reconnect: true,
		Attempts:  10,
		Backoff:   50 * time.Millisecond,
		OnResume:  func(addr string, d time.Duration) { resumedTo, took = addr, d },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var out bytes.Buffer
	j, severed := 0, false
	st, err := cl.Run(spec, &out, func() (string, bool) {
		if j == 1 {
			// First answer is already journaled; kill the proxied leg so
			// the next send fails and the client rotates to srvB.
			severed = proxy.Cut()
		}
		if j < len(cmds) {
			j++
			return cmds[j-1], true
		}
		return "", false
	})
	if err != nil {
		t.Fatalf("run across cut: %v", err)
	}
	if out.String() != golden.String() {
		t.Fatalf("failed-over output differs from local run:\n--- local ---\n%s\n--- failover ---\n%s", golden.String(), out.String())
	}
	if st.Exit != 0 {
		t.Fatalf("unexpected status %+v", st)
	}
	if !severed {
		t.Fatal("the cut severed no live connection")
	}
	// The resume must have landed on the OTHER list entry: srvA is only
	// reachable through the proxy, which accepted exactly one connection.
	if resumedTo != srvB {
		t.Fatalf("resume landed on %q, want %q (OnResume took %v)", resumedTo, srvB, took)
	}
	if got := proxy.Conns(); got != 1 {
		t.Fatalf("proxy accepted %d connections, want 1 (resume must not revisit the cut address first)", got)
	}
	if took <= 0 {
		t.Fatalf("OnResume reported non-positive hand-off latency %v", took)
	}
}
