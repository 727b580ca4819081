package server_test

import (
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/tlstest"
	"repro/internal/wire"
)

const testToken = "correct-horse-battery"

// testTLS generates one ephemeral keypair per test and returns the server
// and client configs built from it.
func testTLS(t *testing.T) (certPEM, keyPEM []byte) {
	t.Helper()
	certPEM, keyPEM, err := tlstest.GenerateKeypair([]string{"127.0.0.1"}, time.Hour)
	if err != nil {
		t.Fatalf("generate keypair: %v", err)
	}
	return certPEM, keyPEM
}

// authTier starts the listener a TestAuthMatrix row dials: a backend, or
// a gateway in front of an open backend, checking testToken. It returns
// the address and a reader of that listener's handshake counters and
// session count.
func authTier(t *testing.T, gateway bool, tlsCfg *tls.Config, require bool) (string, func() (wire.HandshakeMetrics, int64)) {
	t.Helper()
	if !gateway {
		srv, addr := startServer(t, server.Config{AuthToken: testToken, RequireAuth: require, TLS: tlsCfg})
		return addr, func() (wire.HandshakeMetrics, int64) {
			m := srv.Metrics()
			return m.HandshakeMetrics, m.SessionsTotal
		}
	}
	_, backend := startServer(t, server.Config{})
	gw, addr := startGateway(t, cluster.Config{Backends: []string{backend},
		AuthToken: testToken, RequireAuth: require, TLS: tlsCfg})
	return addr, func() (wire.HandshakeMetrics, int64) {
		m := gw.Metrics()
		return m.HandshakeMetrics, m.SessionsTotal
	}
}

// startGateway serves a gateway on a loopback port.
func startGateway(t *testing.T, cfg cluster.Config) (*cluster.Gateway, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	gw := cluster.New(cfg)
	done := make(chan error, 1)
	go func() { done <- gw.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		gw.Shutdown(ctx)
		<-done
	})
	return gw, lis.Addr().String()
}

// TestAuthMatrix covers the token-auth decision table — token required ×
// token offered × token correct — in both plaintext and TLS transports,
// against a backend and against a gateway, asserting the exact Error frame
// for every rejection, the listener's handshake counters, and that
// rejected handshakes never allocate session state.
func TestAuthMatrix(t *testing.T) {
	certPEM, keyPEM := testTLS(t)
	srvTLS, err := tlstest.ServerConfig(certPEM, keyPEM, nil)
	if err != nil {
		t.Fatalf("server tls: %v", err)
	}
	cliTLS, err := tlstest.ClientConfig(certPEM, nil, nil)
	if err != nil {
		t.Fatalf("client tls: %v", err)
	}

	rows := []struct {
		name       string
		require    bool
		offer      string // token the client presents; "" = no FlagAuth at all
		wantErr    string // expected Error text; "" = handshake accepted
		wantAuthed bool
	}{
		{"open-anonymous", false, "", "", false},
		{"open-good-token", false, testToken, "", true},
		{"open-bad-token", false, "wrong", "authentication failed: bad token", false},
		{"required-anonymous", true, "", "authentication required: offer FlagAuth with a token", false},
		{"required-good-token", true, testToken, "", true},
		{"required-bad-token", true, "wrong", "authentication failed: bad token", false},
	}
	for _, useTLS := range []bool{false, true} {
		transport := "plaintext"
		if useTLS {
			transport = "tls"
		}
		for _, gateway := range []bool{false, true} {
			tier := "backend"
			if gateway {
				tier = "gateway"
			}
			for _, row := range rows {
				t.Run(transport+"/"+tier+"/"+row.name, func(t *testing.T) {
					var tlsCfg *tls.Config
					opts := client.Options{AuthToken: row.offer}
					if useTLS {
						tlsCfg = srvTLS
						opts.TLS = cliTLS
					}
					addr, counters := authTier(t, gateway, tlsCfg, row.require)

					cl, err := client.Dial(addr, opts)
					if row.wantErr != "" {
						var werr *wire.Error
						if !errors.As(err, &werr) {
							t.Fatalf("want a wire.Error, got %v", err)
						}
						if werr.Code != wire.CodeAuth || werr.Text != row.wantErr {
							t.Fatalf("got Error{code %d, %q}, want Error{code %d, %q}",
								werr.Code, werr.Text, wire.CodeAuth, row.wantErr)
						}
						hm, sessions := counters()
						if want := (wire.HandshakeMetrics{AuthFailures: 1}); hm != want {
							t.Fatalf("handshake counters after reject: %+v, want %+v", hm, want)
						}
						if sessions != 0 {
							t.Fatalf("a rejected handshake must not allocate session state: %d sessions", sessions)
						}
						return
					}
					if err != nil {
						t.Fatalf("dial: %v", err)
					}
					defer cl.Close()
					if cl.Authenticated() != row.wantAuthed {
						t.Fatalf("Authenticated() = %v, want %v", cl.Authenticated(), row.wantAuthed)
					}
					// The session itself behaves identically regardless of
					// transport, tier or auth: byte-identical scripted output.
					spec := testSpec(42)
					golden, _ := localGolden(t, spec)
					var buf bytes.Buffer
					st, err := cl.Run(spec, &buf, nil)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					if st.Exit != 0 || buf.String() != golden {
						t.Fatalf("authenticated session output differs from local golden (exit %d)", st.Exit)
					}
					var want wire.HandshakeMetrics
					if row.wantAuthed {
						want.AuthHandshakes = 1
					}
					if hm, _ := counters(); hm != want {
						t.Fatalf("handshake counters after accept: %+v, want %+v", hm, want)
					}
				})
			}
		}
	}
}

// TestRequireAuthWithoutServerToken: RequireAuth with no configured token
// fails closed — every client is rejected with a text that tells the
// operator what is misconfigured, whether or not the client offered a
// token — on a backend and on a gateway alike.
func TestRequireAuthWithoutServerToken(t *testing.T) {
	srv, addr := startServer(t, server.Config{RequireAuth: true})
	_, backend := startServer(t, server.Config{})
	gw, gwAddr := startGateway(t, cluster.Config{Backends: []string{backend}, RequireAuth: true})
	const want = "authentication required but no token is configured server-side"
	for _, a := range []string{addr, gwAddr} {
		for _, offer := range []string{"", "some-token"} {
			_, err := client.Dial(a, client.Options{AuthToken: offer})
			var werr *wire.Error
			if !errors.As(err, &werr) || werr.Code != wire.CodeAuth || werr.Text != want {
				t.Fatalf("%s, offer %q: got %v, want Error{code %d, %q}", a, offer, err, wire.CodeAuth, want)
			}
		}
	}
	if m := srv.Metrics(); m.AuthFailures != 2 || m.SessionsTotal != 0 {
		t.Fatalf("backend metrics after fail-closed rejects: %+v", m)
	}
	if m := gw.Metrics(); m.AuthFailures != 2 || m.SessionsTotal != 0 {
		t.Fatalf("gateway metrics after fail-closed rejects: %+v", m)
	}
}

// TestLegacyClientBaselineGolden pins the compatibility guarantee at the
// byte level: a pre-auth client (zero capability flags, no token field)
// against a token-armed server sees the exact baseline protocol — the
// Welcome frame is byte-identical to what the seed server sent, and the
// scripted session output matches the local run.
func TestLegacyClientBaselineGolden(t *testing.T) {
	// Token armed but not required: exactly the rolling-upgrade posture.
	_, addr := startServer(t, server.Config{AuthToken: testToken})
	spec := testSpec(42)
	golden, _ := localGolden(t, spec)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))

	// The legacy Hello, written out longhand: type, zero flags, length 9,
	// version 1, client name "edb". Byte-for-byte what a pre-auth build
	// emits — if the Hello encoding drifted this would catch it too.
	legacyHello := []byte{
		wire.TypeHello, 0x00, 0x00, 0x00, 0x00, 0x09,
		0x00, 0x01,
		0x00, 0x00, 0x00, 0x03, 'e', 'd', 'b',
	}
	if enc, err := wire.EncodeMsg(&wire.Hello{Version: wire.Version, Client: "edb"}); err != nil || !bytes.Equal(enc, legacyHello) {
		t.Fatalf("Hello encoding drifted from the legacy bytes: %x vs %x (err %v)", enc, legacyHello, err)
	}
	if _, err := conn.Write(legacyHello); err != nil {
		t.Fatalf("write hello: %v", err)
	}

	// The Welcome must be the exact baseline bytes: zero flags, version 1,
	// server name "edbd". FlagAuth existing server-side must not leak.
	wantWelcome := []byte{
		wire.TypeWelcome, 0x00, 0x00, 0x00, 0x00, 0x0A,
		0x00, 0x01,
		0x00, 0x00, 0x00, 0x04, 'e', 'd', 'b', 'd',
	}
	gotWelcome := make([]byte, len(wantWelcome))
	if _, err := io.ReadFull(conn, gotWelcome); err != nil {
		t.Fatalf("read welcome: %v", err)
	}
	if !bytes.Equal(gotWelcome, wantWelcome) {
		t.Fatalf("Welcome bytes changed for a legacy client:\n got %x\nwant %x", gotWelcome, wantWelcome)
	}

	// A full scripted session over the same connection, asserting zero
	// flags on every frame and byte-identical console output.
	if err := wire.WriteMsg(conn, &wire.Run{Spec: spec}); err != nil {
		t.Fatalf("run: %v", err)
	}
	var out bytes.Buffer
	for {
		m, flags, err := wire.ReadMsgFlags(conn)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if flags != 0 {
			t.Fatalf("server set flags %#02x on a %T frame to a legacy client", flags, m)
		}
		switch f := m.(type) {
		case *wire.Output:
			out.Write(f.Data)
		case *wire.Done:
			if f.Exit != 0 {
				t.Fatalf("exit %d", f.Exit)
			}
			if out.String() != golden {
				t.Fatalf("legacy-client output differs from local golden:\n--- local ---\n%s\n--- remote ---\n%s", golden, out.String())
			}
			return
		default:
			t.Fatalf("unexpected frame %T in a baseline scripted session", m)
		}
	}
}

// TestUnknownCapabilityDownNegotiated: a future client advertising a
// capability bit this build does not know is down-negotiated, not
// disconnected — the unknown bit never echoes back, the session works, and
// the daemon counts the sighting. 0x10, 0x20 and 0x02 are the retired
// explore, gossip and snapshot bits, which must be treated the same way.
func TestUnknownCapabilityDownNegotiated(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	for i, unknown := range []byte{0x80, 0x10, 0x20, 0x02} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(60 * time.Second))

		if err := wire.WriteMsgFlags(conn, &wire.Hello{Version: wire.Version, Client: "edb/future"}, unknown|wire.FlagTraceZ); err != nil {
			t.Fatalf("%#02x: hello: %v", unknown, err)
		}
		m, flags, err := wire.ReadMsgFlags(conn)
		if err != nil {
			t.Fatalf("%#02x: welcome: %v", unknown, err)
		}
		if _, ok := m.(*wire.Welcome); !ok {
			t.Fatalf("%#02x: want Welcome, got %#v", unknown, m)
		}
		if flags != wire.FlagTraceZ {
			t.Fatalf("server echoed flags %#02x, want only %#02x (unknown bit %#02x masked)", flags, wire.FlagTraceZ, unknown)
		}
		if got := srv.Metrics().UnknownCapHellos; got != int64(i+1) {
			t.Fatalf("%#02x: want %d unknown-cap hellos counted, got %d", unknown, i+1, got)
		}
		// The connection is fully usable afterwards.
		if err := wire.WriteMsg(conn, &wire.Ping{Token: 7}); err != nil {
			t.Fatalf("%#02x: ping: %v", unknown, err)
		}
		if m, err := wire.ReadMsg(conn); err != nil {
			t.Fatalf("%#02x: pong: %v", unknown, err)
		} else if pong, ok := m.(*wire.Pong); !ok || pong.Token != 7 {
			t.Fatalf("%#02x: want Pong{7}, got %#v", unknown, m)
		}
	}
}

// TestMutualTLS: with a client CA configured, certificate-less clients die
// in the TLS handshake (counted, never reaching the protocol) while
// certificate-bearing clients run byte-identical sessions.
func TestMutualTLS(t *testing.T) {
	certPEM, keyPEM := testTLS(t)
	srvTLS, err := tlstest.ServerConfig(certPEM, keyPEM, certPEM)
	if err != nil {
		t.Fatalf("server tls: %v", err)
	}
	srv, addr := startServer(t, server.Config{TLS: srvTLS})

	noCert, err := tlstest.ClientConfig(certPEM, nil, nil)
	if err != nil {
		t.Fatalf("client tls: %v", err)
	}
	if _, err := client.Dial(addr, client.Options{TLS: noCert}); err == nil {
		t.Fatal("mTLS server accepted a client without a certificate")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().TLSHandshakeFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("TLS handshake failure never counted: %+v", srv.Metrics())
		}
		time.Sleep(time.Millisecond)
	}

	withCert, err := tlstest.ClientConfig(certPEM, certPEM, keyPEM)
	if err != nil {
		t.Fatalf("client tls with cert: %v", err)
	}
	cl, err := client.Dial(addr, client.Options{TLS: withCert})
	if err != nil {
		t.Fatalf("mTLS dial: %v", err)
	}
	defer cl.Close()
	spec := testSpec(42)
	golden, _ := localGolden(t, spec)
	var buf bytes.Buffer
	st, err := cl.Run(spec, &buf, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.Exit != 0 || buf.String() != golden {
		t.Fatalf("mTLS session output differs from local golden (exit %d)", st.Exit)
	}
}

// TestTLSAuthRemoteMatchesLocal is the issue's acceptance criterion in one
// test: a TLS + token-authenticated remote scripted session, with trace
// streaming and the compressed codec negotiated, is byte-identical to the
// local run.
func TestTLSAuthRemoteMatchesLocal(t *testing.T) {
	certPEM, keyPEM := testTLS(t)
	srvTLS, err := tlstest.ServerConfig(certPEM, keyPEM, nil)
	if err != nil {
		t.Fatalf("server tls: %v", err)
	}
	cliTLS, err := tlstest.ClientConfig(certPEM, nil, nil)
	if err != nil {
		t.Fatalf("client tls: %v", err)
	}
	_, addr := startServer(t, server.Config{TLS: srvTLS, AuthToken: testToken, RequireAuth: true})

	spec := traceSpec(42)
	golden, res := localGolden(t, spec)

	cl, err := client.Dial(addr, client.Options{TLS: cliTLS, AuthToken: testToken})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if !cl.Authenticated() {
		t.Fatal("client should report an authenticated handshake")
	}
	if !cl.TraceZ() {
		t.Fatal("capability negotiation should survive the auth bit riding the same byte")
	}
	var buf bytes.Buffer
	var samples int
	cl.OnTrace = func(tr *wire.Trace) { samples += len(tr.Samples) }
	st, err := cl.Run(spec, &buf, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if buf.String() != golden {
		t.Fatalf("TLS+auth remote output differs from local:\n--- local ---\n%s\n--- remote ---\n%s", golden, buf.String())
	}
	if st.Exit != res.ExitCode {
		t.Fatalf("exit %d, local %d", st.Exit, res.ExitCode)
	}
	if res.Vcap == nil || samples != len(res.Vcap.Samples) {
		t.Fatalf("streamed %d trace samples over TLS, local window has %d", samples, len(res.Vcap.Samples))
	}
}

// writeTimer is a server-side connection that records each write that
// stayed blocked for longer than blockedWrite.
type writeTimer struct {
	net.Conn
	mu      sync.Mutex
	blocked []time.Duration
}

const blockedWrite = 10 * time.Millisecond

func (c *writeTimer) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	if d := time.Since(t0); d > blockedWrite {
		c.mu.Lock()
		c.blocked = append(c.blocked, d)
		c.mu.Unlock()
	}
	return n, err
}

func (c *writeTimer) blockedWrites() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.blocked...)
}

// timedListener hands the server its Unix-socket connections as
// writeTimers with an 8 KiB send buffer, so that a slow reader soon blocks
// the server's writes.
type timedListener struct {
	net.Listener
	conns chan *writeTimer
}

func (l *timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if err := c.(*net.UnixConn).SetWriteBuffer(8 << 10); err != nil {
		c.Close()
		return nil, err
	}
	wt := &writeTimer{Conn: c}
	select {
	case l.conns <- wt:
	default:
	}
	return wt, nil
}

// TestSlowReaderTraceStream: a client that reads a long trace stream
// slowly from a server whose WriteTimeout is shorter than the whole
// transfer still receives every frame, and a live connection afterwards.
// The client asks for many traced sessions at once, so more than 32 KiB
// of TraceZ piles up behind it, and the test requires the server's writes
// to have blocked several times, for longer than WriteTimeout in all: it
// passes only if each write arms a deadline of its own, and none is left
// armed after.
//
// The connection is a Unix socket with a small send buffer on the
// server's side, where a write blocks for as long as the reader takes to
// drain it. Over loopback TCP with small buffers, writes stalled for 0.3
// to 1.2 s whatever the reader's pace, which would time the kernel's
// window probes instead.
func TestSlowReaderTraceStream(t *testing.T) {
	const (
		writeTimeout = 200 * time.Millisecond
		sessions     = 32
		dawdle       = 5 * time.Millisecond // per TraceZ frame read
	)
	lis, err := net.Listen("unix", t.TempDir()+"/edbd.sock")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	tl := &timedListener{Listener: lis, conns: make(chan *writeTimer, 1)}
	serveOn(t, server.Config{WriteTimeout: writeTimeout}, tl)
	spec := traceSpec(42)
	golden, res := localGolden(t, spec)

	conn, err := net.Dial("unix", lis.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	if err := wire.WriteMsgFlags(conn, &wire.Hello{Version: wire.Version, Client: "edb/slow"}, wire.FlagTraceZ); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if _, err := wire.ReadMsg(conn); err != nil {
		t.Fatalf("welcome: %v", err)
	}
	srvConn := <-tl.conns
	// Every request goes out at once, so the server runs the sessions back
	// to back and their frames queue up behind the slow reader.
	for i := 0; i < sessions; i++ {
		if err := wire.WriteMsg(conn, &wire.Run{Spec: spec, StreamTrace: true}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}

	var out bytes.Buffer
	var samples, traceBytes int
	for done := 0; done < sessions; {
		m, err := wire.ReadMsg(conn)
		if err != nil {
			t.Fatalf("session %d: read: %v", done, err)
		}
		switch f := m.(type) {
		case *wire.Output:
			out.Write(f.Data)
		case *wire.TraceZ:
			samples += int(f.Count)
			traceBytes += len(f.Data)
			time.Sleep(dawdle)
		case *wire.Done:
			if f.Exit != 0 {
				t.Fatalf("session %d: exit %d", done, f.Exit)
			}
			if out.String() != golden {
				t.Fatalf("session %d: slow-reader output differs from local golden", done)
			}
			if samples != len(res.Vcap.Samples) {
				t.Fatalf("session %d: slow reader got %d samples, local window %d", done, samples, len(res.Vcap.Samples))
			}
			out.Reset()
			samples = 0
			done++
		default:
			t.Fatalf("unexpected frame %T", m)
		}
	}
	if traceBytes <= 32<<10 {
		t.Fatalf("%d TraceZ bytes streamed; the test needs more than the peer's 32 KiB queue limit", traceBytes)
	}
	blocked := srvConn.blockedWrites()
	var total time.Duration
	for _, d := range blocked {
		total += d
	}
	if len(blocked) < 3 || total <= writeTimeout {
		t.Fatalf("the server's writes blocked %d times for %v in all; the test needs several, together longer than the %v WriteTimeout",
			len(blocked), total, writeTimeout)
	}
	t.Logf("%d TraceZ bytes; %d server writes blocked for %v in all", traceBytes, len(blocked), total)

	// The connection must still be healthy: no stale write deadline may
	// poison later frames.
	if err := wire.WriteMsg(conn, &wire.Ping{Token: 9}); err != nil {
		t.Fatalf("ping after stream: %v", err)
	}
	if m, err := wire.ReadMsg(conn); err != nil {
		t.Fatalf("pong after stream: %v", err)
	} else if pong, ok := m.(*wire.Pong); !ok || pong.Token != 9 {
		t.Fatalf("want Pong{9}, got %#v", m)
	}
}
