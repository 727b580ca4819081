package client_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/wiretest"
)

// TestDialFailsFastOnAuthError is the retry-classification regression test:
// an auth rejection can never succeed on retry, so a dial configured with
// many attempts must return Error{CodeAuth} after exactly one handshake,
// not sleep out the backoff schedule.
func TestDialFailsFastOnAuthError(t *testing.T) {
	addr := startServer(t, server.Config{AuthToken: "right", RequireAuth: true})
	start := time.Now()
	_, err := client.Dial(addr, client.Options{
		AuthToken: "wrong",
		Attempts:  10,
		Backoff:   2 * time.Second, // one retry sleep alone would trip the time check
	})
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeAuth {
		t.Fatalf("want Error{CodeAuth}, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("auth rejection took %v — the dial retried a permanent error", elapsed)
	}
}

// TestDialRetriesBusy: Error{CodeBusy} is transient — a dial with retry
// budget must keep trying and succeed once the server has room.
func TestDialRetriesBusy(t *testing.T) {
	addr := startServer(t, server.Config{MaxConns: 1})

	hog, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("first dial: %v", err)
	}

	release := make(chan struct{})
	go func() {
		<-release
		hog.Close()
	}()

	done := make(chan error, 1)
	go func() {
		cl, err := client.Dial(addr, client.Options{
			Attempts: 50,
			Backoff:  50 * time.Millisecond,
		})
		if err == nil {
			cl.Close()
		}
		done <- err
	}()

	time.Sleep(200 * time.Millisecond) // let at least one busy rejection land
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("dial should succeed once the connection slot frees: %v", err)
	}
}

// TestRunReconnectResumesMidSession: with Options.Reconnect, a connection
// killed mid-interactive-session is invisible to the caller — the client
// redials, replays its journal via SessResume, and the output delivered is
// byte-identical to an uninterrupted run. The time-travel case cuts after
// the write and before restore, so the resumed rig must rebuild the
// snapshot from the journal for restore to find it.
func TestRunReconnectResumesMidSession(t *testing.T) {
	addr := startServer(t, server.Config{})
	spec := scenario.Spec{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42, Interactive: true}
	for _, tc := range []struct {
		name string
		cmds []string
		cut  int // the answer whose send finds the wire cut
	}{
		{"console", []string{"vcap", "status", "halt"}, 1},
		{"time-travel", []string{"snap", "write 0x4400 0xBEEF", "read 0x4400", "restore", "read 0x4400", "halt"}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proxy := wiretest.NewProxy(t, addr)
			cmds := tc.cmds

			var golden bytes.Buffer
			gi := 0
			if _, err := scenario.Run(spec, &golden, func() (string, bool) {
				if gi < len(cmds) {
					gi++
					return cmds[gi-1], true
				}
				return "", false
			}); err != nil {
				t.Fatal(err)
			}

			cl, err := client.Dial(proxy.Addr(), client.Options{
				Reconnect: true,
				Attempts:  10,
				Backoff:   50 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer cl.Close()
			if !cl.Cluster() {
				t.Fatal("cluster capability not negotiated")
			}

			var out bytes.Buffer
			i, severed := 0, false
			st, err := cl.Run(spec, &out, func() (string, bool) {
				if i == tc.cut {
					// Kill the wire right before this answer goes out: the
					// send fails, and the journaled answer must replay
					// instead of being re-asked.
					severed = proxy.Cut()
				}
				if i < len(cmds) {
					i++
					return cmds[i-1], true
				}
				return "", false
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if out.String() != golden.String() {
				t.Fatalf("resumed output differs from uninterrupted run:\n--- golden ---\n%s\n--- resumed ---\n%s",
					golden.String(), out.String())
			}
			if st.Exit != 0 {
				t.Fatalf("unexpected status %+v", st)
			}
			if !severed {
				t.Fatal("the cut severed no live connection")
			}
			if proxy.Conns() < 2 {
				t.Fatalf("expected a reconnect, saw %d connections", proxy.Conns())
			}
			// The prompt callback must have been consulted once per command
			// overall: replay answered the journaled ones.
			if i != len(cmds) {
				t.Fatalf("prompt consulted %d times, want %d", i, len(cmds))
			}
		})
	}
}

// TestRunNoReconnectFailsOnCut: without Options.Reconnect the same cut is a
// hard error — no silent retries the caller did not ask for.
func TestRunNoReconnectFailsOnCut(t *testing.T) {
	addr := startServer(t, server.Config{})
	proxy := wiretest.NewProxy(t, addr)

	spec := scenario.Spec{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42, Interactive: true}
	cl, err := client.Dial(proxy.Addr(), client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	i, severed := 0, false
	_, err = cl.Run(spec, nil, func() (string, bool) {
		if i == 1 {
			severed = proxy.Cut()
		}
		i++
		return "vcap", i <= 2 // EOF after the cut prompt, so a cut that misses ends the run
	})
	if !severed {
		t.Fatal("the cut severed no live connection")
	}
	if err == nil {
		t.Fatal("run over a cut connection should fail without Reconnect")
	}
	if i != 2 {
		t.Fatalf("prompt consulted %d times, want 2: the run must end at the cut", i)
	}
	if got := proxy.Conns(); got != 1 {
		t.Fatalf("proxy accepted %d connections, want 1 (no redial without Reconnect)", got)
	}
}
