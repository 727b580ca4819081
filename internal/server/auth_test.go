package server_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/client"
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

// TestAuthMatrix covers the token-auth decision table — token required ×
// token offered × token correct — in both plaintext and TLS transports,
// asserting the exact Error frame for every rejection and that rejected
// handshakes never allocate session state.
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
		for _, row := range rows {
			t.Run(transport+"/"+row.name, func(t *testing.T) {
				cfg := server.Config{AuthToken: testToken, RequireAuth: row.require}
				opts := client.Options{AuthToken: row.offer}
				if useTLS {
					cfg.TLS = srvTLS
					opts.TLS = cliTLS
				}
				srv, addr := startServer(t, cfg)

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
					m := srv.Metrics()
					if m.AuthFailures != 1 || m.AuthHandshakes != 0 {
						t.Fatalf("auth counters after reject: %+v", m)
					}
					if m.SessionsTotal != 0 || m.SessionsOpen != 0 {
						t.Fatalf("a rejected handshake must not allocate session state: %+v", m)
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
				// transport or auth: byte-identical scripted output.
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
				m := srv.Metrics()
				if row.wantAuthed && m.AuthHandshakes != 1 {
					t.Fatalf("want 1 authenticated handshake, got %+v", m)
				}
				if m.AuthFailures != 0 {
					t.Fatalf("accepted handshake counted a failure: %+v", m)
				}
			})
		}
	}
}

// TestRequireAuthWithoutServerToken: RequireAuth with no configured token
// fails closed — every client is rejected with a text that tells the
// operator what is misconfigured, whether or not the client offered a
// token.
func TestRequireAuthWithoutServerToken(t *testing.T) {
	srv, addr := startServer(t, server.Config{RequireAuth: true})
	const want = "authentication required but no token is configured server-side"
	for _, offer := range []string{"", "some-token"} {
		_, err := client.Dial(addr, client.Options{AuthToken: offer})
		var werr *wire.Error
		if !errors.As(err, &werr) || werr.Code != wire.CodeAuth || werr.Text != want {
			t.Fatalf("offer %q: got %v, want Error{code %d, %q}", offer, err, wire.CodeAuth, want)
		}
	}
	if m := srv.Metrics(); m.AuthFailures != 2 || m.SessionsTotal != 0 {
		t.Fatalf("metrics after fail-closed rejects: %+v", m)
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
// the daemon counts the sighting. 0x10 is the retired explore bit, which
// must be treated the same way.
func TestUnknownCapabilityDownNegotiated(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	for i, unknown := range []byte{0x80, 0x10} {
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

// TestSlowReaderTraceStream: a client that dawdles between frames of a
// trace stream, against a server whose WriteTimeout is shorter than the
// total transfer, still receives the full stream and a live connection
// afterwards — per-write progress deadlines, with no stale deadline left
// armed after the chunked send.
func TestSlowReaderTraceStream(t *testing.T) {
	_, addr := startServer(t, server.Config{WriteTimeout: 150 * time.Millisecond})
	spec := traceSpec(42)
	golden, res := localGolden(t, spec)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	if err := wire.WriteMsg(conn, &wire.Hello{Version: wire.Version, Client: "edb/slow"}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if _, err := wire.ReadMsg(conn); err != nil {
		t.Fatalf("welcome: %v", err)
	}
	if err := wire.WriteMsg(conn, &wire.Run{Spec: spec, StreamTrace: true}); err != nil {
		t.Fatalf("run: %v", err)
	}

	var out bytes.Buffer
	var samples int
	for {
		m, err := wire.ReadMsg(conn)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		switch f := m.(type) {
		case *wire.Output:
			out.Write(f.Data)
		case *wire.Trace:
			samples += len(f.Samples)
			// Dawdle: with ~3 chunks this stretches the stream well past
			// the server's 150ms WriteTimeout.
			time.Sleep(120 * time.Millisecond)
		case *wire.Done:
			if f.Exit != 0 {
				t.Fatalf("exit %d", f.Exit)
			}
			if out.String() != golden {
				t.Fatal("slow-reader session output differs from local golden")
			}
			if samples != len(res.Vcap.Samples) {
				t.Fatalf("slow reader got %d samples, local window %d", samples, len(res.Vcap.Samples))
			}
			// The connection must still be healthy: no stale write
			// deadline from the chunked send may poison later frames.
			if err := wire.WriteMsg(conn, &wire.Ping{Token: 9}); err != nil {
				t.Fatalf("ping after stream: %v", err)
			}
			if m, err := wire.ReadMsg(conn); err != nil {
				t.Fatalf("pong after stream: %v", err)
			} else if pong, ok := m.(*wire.Pong); !ok || pong.Token != 9 {
				t.Fatalf("want Pong{9}, got %#v", m)
			}
			return
		default:
			t.Fatalf("unexpected frame %T", m)
		}
	}
}
