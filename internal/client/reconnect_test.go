package client_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/wire"
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

// cuttableProxy is a byte-level TCP proxy whose live connections can be
// slammed shut on demand — a deterministic stand-in for a backend crash
// between a client and the address it redials.
type cuttableProxy struct {
	lis     net.Listener
	backend string

	mu      sync.Mutex
	conns   []net.Conn
	accepts int
}

func newCuttableProxy(t *testing.T, backend string) *cuttableProxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &cuttableProxy{lis: lis, backend: backend}
	t.Cleanup(func() { lis.Close(); p.cut() })
	go p.serve()
	return p
}

func (p *cuttableProxy) addr() string { return p.lis.Addr().String() }

func (p *cuttableProxy) serve() {
	for {
		c, err := p.lis.Accept()
		if err != nil {
			return
		}
		b, err := net.Dial("tcp", p.backend)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, c, b)
		p.accepts++
		p.mu.Unlock()
		go func() { io.Copy(b, c); b.Close() }()
		go func() { io.Copy(c, b); c.Close() }()
	}
}

func (p *cuttableProxy) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

func (p *cuttableProxy) acceptCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accepts
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
			proxy := newCuttableProxy(t, addr)
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

			cl, err := client.Dial(proxy.addr(), client.Options{
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
			i := 0
			st, err := cl.Run(spec, &out, func() (string, bool) {
				if i == tc.cut {
					// Kill the wire right before this answer goes out: the
					// send fails, and the journaled answer must replay
					// instead of being re-asked.
					proxy.cut()
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
			if proxy.acceptCount() < 2 {
				t.Fatalf("expected a reconnect, saw %d connections", proxy.acceptCount())
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
	proxy := newCuttableProxy(t, addr)

	spec := scenario.Spec{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42, Interactive: true}
	cl, err := client.Dial(proxy.addr(), client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	i := 0
	_, err = cl.Run(spec, nil, func() (string, bool) {
		if i == 1 {
			proxy.cut()
		}
		i++
		return "vcap", true
	})
	if err == nil {
		t.Fatal("run over a cut connection should fail without Reconnect")
	}
}
