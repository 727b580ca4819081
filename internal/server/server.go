// Package server implements edbd, the networked multi-target debug daemon:
// it hosts a fleet of independent simulated target+EDB rigs, one
// goroutine-owned scenario per session, behind the internal/wire protocol.
//
// Where the paper's prototype is one board, one tag, one serial console
// (§4.2), edbd turns the same rig into a shared service: many clients
// debug many independent targets concurrently. Sessions never share
// mutable simulation state — each owns its device, debugger, and RNG
// streams, the same isolation rule internal/parallel relies on — so a
// remote scripted session's output is byte-identical to the same script
// run locally.
//
// Operational behavior: per-write read/write deadlines, connection and
// session limits, idle-session reaping (a client that stops sending is
// told so and cut), graceful drain on Shutdown, and an atomic metrics
// snapshot for an expvar endpoint.
//
// Security: Config.TLS wraps the listener in crypto/tls (optionally with
// mTLS client-certificate verification), and Config.AuthToken arms token
// authentication negotiated through the handshake's FlagAuth capability
// bit — a wrong or (under RequireAuth) missing token is answered with a
// typed Error{CodeAuth} frame before any session state is allocated.
package server

import (
	"bufio"
	"context"
	"crypto/subtle"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/tracecodec"
	"repro/internal/wire"
)

// ErrServerClosed is returned by Serve after Shutdown begins.
var ErrServerClosed = errors.New("server: closed")

// handshakeTimeout bounds the handshake read, TLS included.
const handshakeTimeout = 10 * time.Second

// Config parameterizes the daemon.
type Config struct {
	// Name identifies the server in the handshake (default "edbd").
	Name string
	// MaxConns bounds simultaneously open connections (default 256).
	MaxConns int
	// MaxSessions bounds simultaneously running sessions (default 128).
	MaxSessions int
	// MaxSimSeconds bounds a session's simulated duration (default 300).
	MaxSimSeconds float64
	// IdleTimeout reaps connections that sit between requests, and
	// interactive sessions awaiting a command (default 2m).
	IdleTimeout time.Duration
	// WriteTimeout bounds each outbound frame write (default 10s).
	WriteTimeout time.Duration
	// DisableTraceZ refuses the compressed-trace capability even for
	// clients that advertise it; every session then streams raw Trace
	// chunks. Useful for debugging the codec path itself.
	DisableTraceZ bool
	// DisableSnap refuses the snapshot capability (remote time-travel)
	// even for clients that advertise it.
	DisableSnap bool
	// DisableCluster refuses the cluster capability: Stat probes,
	// SessResume replays and drain-time SessMigrate hand-offs are then
	// rejected, and a drain simply waits for busy sessions like a
	// single-node deployment.
	DisableCluster bool
	// DisablePool turns off warm-start session pooling; every session
	// then simulates its charge phase from cycle 0. Output is identical
	// either way — the pool is purely a latency optimization. The pool
	// keeps every family's template for the life of the process, so this
	// is the way to run a server in bounded memory.
	DisablePool bool
	// TLS, when set, wraps the listener so every connection speaks TLS.
	// Set ClientCAs + ClientAuth: tls.RequireAndVerifyClientCert for mTLS;
	// the TLS handshake completes within the 10 s handshake timeout,
	// before the protocol handshake.
	TLS *tls.Config
	// AuthToken, when non-empty, arms token authentication: a client that
	// offers FlagAuth must present exactly this token (compared in
	// constant time) or the handshake is rejected with Error{CodeAuth}.
	// Clients that never offer FlagAuth are still served unless
	// RequireAuth is set, so old clients keep working by default.
	AuthToken string
	// RequireAuth rejects every handshake that does not authenticate —
	// including all pre-auth clients — with Error{CodeAuth} before any
	// session state is allocated. With no AuthToken configured it fails
	// closed: every client is rejected.
	RequireAuth bool
	// Logf, when set, receives one line per connection-level event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "edbd"
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 128
	}
	if c.MaxSimSeconds <= 0 {
		c.MaxSimSeconds = 300
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	return c
}

// Server is one edbd instance.
type Server struct {
	cfg  Config
	c    counters
	pool *scenario.Pool // nil when pooling is disabled

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]*connState
	draining bool

	// rlog rate-limits handshake-failure logging so an unauthenticated
	// flood cannot turn the log into its own denial of service.
	rlog struct {
		mu         sync.Mutex
		last       time.Time
		suppressed int
	}

	wg sync.WaitGroup
}

// connState tracks whether a connection is inside a session, so a drain
// can cut idle connections immediately while busy ones finish their work.
// The closed flag makes the race between "request just arrived" and "drain
// decided this conn is idle" deterministic: a drain marks the conns it
// cuts, and a handler only enters a session if its conn was not cut first —
// so every connection is either fully served or cleanly closed, never a
// half-session simulated against a connection the drain already killed.
type connState struct {
	mu     sync.Mutex
	busy   bool
	closed bool
}

// enterBusy marks the connection busy unless a drain already closed it.
func (st *connState) enterBusy() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return false
	}
	st.busy = true
	return true
}

func (st *connState) exitBusy() {
	st.mu.Lock()
	st.busy = false
	st.mu.Unlock()
}

// New builds a server; zero-valued config fields take their defaults.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults(), conns: make(map[net.Conn]*connState)}
	if !s.cfg.DisablePool {
		s.pool = scenario.NewPool()
	}
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// rlogf logs like logf but at most once per second, counting what it
// suppressed in between — hostile peers control how often handshake
// failures happen, so they must not control the log volume.
func (s *Server) rlogf(format string, args ...any) {
	if s.cfg.Logf == nil {
		return
	}
	s.rlog.mu.Lock()
	now := time.Now()
	if now.Sub(s.rlog.last) < time.Second {
		s.rlog.suppressed++
		s.rlog.mu.Unlock()
		return
	}
	suppressed := s.rlog.suppressed
	s.rlog.last, s.rlog.suppressed = now, 0
	s.rlog.mu.Unlock()
	if suppressed > 0 {
		format += fmt.Sprintf(" (%d similar suppressed)", suppressed)
	}
	s.cfg.Logf(format, args...)
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(lis)
}

// Addr returns the listener's address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Serve accepts connections on lis until Shutdown closes it, then returns
// ErrServerClosed. When Config.TLS is set the listener is wrapped so every
// accepted connection speaks TLS; pass a plain TCP listener.
func (s *Server) Serve(lis net.Listener) error {
	if s.cfg.TLS != nil {
		lis = tls.NewListener(lis, s.cfg.TLS)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		lis.Close()
		return ErrServerClosed
	}
	s.lis = lis
	s.mu.Unlock()

	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		st := &connState{}
		s.conns[conn] = st
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn, st)
	}
}

// Shutdown drains the server: the listener closes, new connections are
// refused, connections idling between requests are cut immediately, and
// in-flight sessions run to completion (their handlers exit instead of
// waiting for another request). If ctx expires first, remaining
// connections are force-closed (their simulations still finish; output to
// the dead peer is discarded). Shutdown returns nil on a clean drain,
// ctx.Err() on a forced one.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	lis := s.lis
	for conn, st := range s.conns {
		st.mu.Lock()
		if !st.busy {
			st.closed = true
			conn.Close()
		}
		st.mu.Unlock()
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// deadlineWriter arms a fresh write deadline immediately before every
// underlying Write, so WriteTimeout bounds per-write *progress* instead of
// a whole transfer: a slow-but-draining reader of a long chunked send is
// never spuriously cut, while a stuck reader still times out within one
// WriteTimeout of its last accepted byte. Routing every outbound byte
// through this type is what guarantees no server write can ever block
// forever on a dead peer — a path that forgot to arm a deadline would
// otherwise hang its session goroutine (and a drain) indefinitely.
type deadlineWriter struct {
	conn net.Conn
	d    time.Duration
}

func (w *deadlineWriter) Write(p []byte) (int, error) {
	w.conn.SetWriteDeadline(time.Now().Add(w.d))
	return w.conn.Write(p)
}

// send writes one frame under the write deadline.
func (s *Server) send(conn net.Conn, m wire.Msg) error {
	return s.sendf(conn, m, 0)
}

// sendf writes one frame carrying capability flag bits under the write
// deadline.
func (s *Server) sendf(conn net.Conn, m wire.Msg, flags byte) error {
	return wire.WriteMsgFlags(&deadlineWriter{conn: conn, d: s.cfg.WriteTimeout}, m, flags)
}

// recv reads one frame under deadline d.
func (s *Server) recv(conn net.Conn, d time.Duration) (wire.Msg, error) {
	m, _, err := s.recvf(conn, d)
	return m, err
}

// recvf reads one frame and its capability flag bits under deadline d.
func (s *Server) recvf(conn net.Conn, d time.Duration) (wire.Msg, byte, error) {
	conn.SetReadDeadline(time.Now().Add(d))
	return wire.ReadMsgFlags(conn)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// handle owns one connection: handshake, then a loop of run/ping requests.
func (s *Server) handle(conn net.Conn, st *connState) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.c.connsOpen.Add(-1)
		s.wg.Done()
	}()
	s.c.connsTotal.Add(1)
	if open := s.c.connsOpen.Add(1); open > int64(s.cfg.MaxConns) {
		s.c.connsRejected.Add(1)
		s.send(conn, &wire.Error{Code: wire.CodeBusy, Text: "connection limit reached"})
		return
	}

	// Complete the TLS handshake explicitly (it would otherwise piggyback
	// on the first read) so certificate failures — a bad client cert under
	// mTLS, a protocol mismatch — are counted and never reach the protocol
	// handshake.
	if tc, ok := conn.(*tls.Conn); ok {
		ctx, cancel := context.WithTimeout(context.Background(), handshakeTimeout)
		err := tc.HandshakeContext(ctx)
		cancel()
		if err != nil {
			s.c.tlsHandshakeFailures.Add(1)
			s.rlogf("conn %s: tls handshake failed: %v", conn.RemoteAddr(), err)
			return
		}
	}

	m, helloFlags, err := s.recvf(conn, handshakeTimeout)
	if err != nil {
		return
	}
	hello, ok := m.(*wire.Hello)
	if !ok {
		s.send(conn, &wire.Error{Code: wire.CodeBadRequest, Text: "expected Hello"})
		return
	}
	if hello.Version != wire.Version {
		s.send(conn, &wire.Error{Code: wire.CodeVersion,
			Text: fmt.Sprintf("server speaks protocol version %d, client sent %d", wire.Version, hello.Version)})
		return
	}
	// Capability negotiation: echo back the subset of the client's
	// advertised capability bits this server accepts. Old clients send zero
	// flags and get the baseline protocol (raw Trace chunks). Bits this
	// build does not know are masked off — the peer is down-negotiated, not
	// disconnected — but counted and logged so a fleet operator can see
	// newer clients knocking.
	if unknown := helloFlags &^ wire.KnownCaps; unknown != 0 {
		s.c.unknownCapHellos.Add(1)
		s.rlogf("conn %s: hello advertised unknown capability bits %#02x (ignored)", conn.RemoteAddr(), unknown)
	}
	caps := helloFlags & wire.KnownCaps
	if s.cfg.DisableTraceZ {
		caps &^= wire.FlagTraceZ
	}
	if s.cfg.DisableSnap {
		caps &^= wire.FlagSnap
	}
	if s.cfg.DisableCluster {
		caps &^= wire.FlagCluster
	}
	// Authentication gate: resolved before the Welcome, and before any
	// session state exists. FlagAuth is echoed only when a token was
	// offered and verified.
	offeredAuth := caps&wire.FlagAuth != 0
	caps &^= wire.FlagAuth
	switch {
	case offeredAuth && s.cfg.AuthToken != "":
		if subtle.ConstantTimeCompare([]byte(hello.Token), []byte(s.cfg.AuthToken)) != 1 {
			s.c.authFailures.Add(1)
			s.rlogf("conn %s: authentication failed (%s): bad token", conn.RemoteAddr(), hello.Client)
			s.send(conn, &wire.Error{Code: wire.CodeAuth, Text: "authentication failed: bad token"})
			return
		}
		caps |= wire.FlagAuth
		s.c.authHandshakes.Add(1)
	case s.cfg.RequireAuth:
		// No usable token: either the client never offered one, or the
		// operator required auth without configuring a token — fail closed
		// either way.
		s.c.authFailures.Add(1)
		s.rlogf("conn %s: unauthenticated handshake rejected (%s)", conn.RemoteAddr(), hello.Client)
		text := "authentication required: offer FlagAuth with a token"
		if s.cfg.AuthToken == "" {
			text = "authentication required but no token is configured server-side"
		}
		s.send(conn, &wire.Error{Code: wire.CodeAuth, Text: text})
		return
	}
	if err := s.sendf(conn, &wire.Welcome{Version: wire.Version, Server: s.cfg.Name}, caps); err != nil {
		return
	}
	traceZ := caps&wire.FlagTraceZ != 0
	snap := caps&wire.FlagSnap != 0
	cluster := caps&wire.FlagCluster != 0
	s.logf("conn %s: handshake ok (%s, tracez=%v, snap=%v, auth=%v, cluster=%v)",
		conn.RemoteAddr(), hello.Client, traceZ, snap, caps&wire.FlagAuth != 0, cluster)

	for {
		m, err := s.recv(conn, s.cfg.IdleTimeout)
		if err != nil {
			if isTimeout(err) {
				s.c.idleReaped.Add(1)
				s.send(conn, &wire.Error{Code: wire.CodeIdle, Text: "idle timeout: connection reaped"})
				s.logf("conn %s: reaped idle", conn.RemoteAddr())
			}
			return
		}
		switch req := m.(type) {
		case *wire.Ping:
			if err := s.send(conn, &wire.Pong{Token: req.Token}); err != nil {
				return
			}
		case *wire.Stat:
			if !cluster {
				s.send(conn, &wire.Error{Code: wire.CodeBadRequest,
					Text: "cluster capability was not negotiated"})
				return
			}
			s.c.statProbes.Add(1)
			if err := s.send(conn, &wire.StatReply{
				Sessions:    uint32(s.c.sessionsOpen.Load()),
				MaxSessions: uint32(s.cfg.MaxSessions),
				Draining:    s.isDraining(),
			}); err != nil {
				return
			}
		case *wire.Run:
			if !st.enterBusy() {
				return
			}
			err := s.session(conn, sessionReq{spec: req.Spec, streamTrace: req.StreamTrace}, traceZ, snap, cluster)
			st.exitBusy()
			if err != nil {
				return
			}
			// A drain lets the in-flight session finish, then closes the
			// connection instead of waiting for another request.
			if s.isDraining() {
				return
			}
		case *wire.SessResume:
			if !cluster {
				s.send(conn, &wire.Error{Code: wire.CodeBadRequest,
					Text: "cluster capability was not negotiated"})
				return
			}
			if req.SpecHash != scenario.SpecHash(req.Spec) {
				s.send(conn, &wire.Error{Code: wire.CodeBadRequest,
					Text: "resume spec hash does not match its spec"})
				return
			}
			if !st.enterBusy() {
				return
			}
			err := s.session(conn, sessionReq{
				spec:             req.Spec,
				streamTrace:      req.StreamTrace,
				journal:          req.Journal,
				skipOutput:       req.SkipOutput,
				skipTraceSamples: req.SkipTraceSamples,
				resumed:          true,
			}, traceZ, snap, cluster)
			st.exitBusy()
			if err != nil {
				return
			}
			if s.isDraining() {
				return
			}
		default:
			s.send(conn, &wire.Error{Code: wire.CodeBadRequest,
				Text: fmt.Sprintf("unexpected message type %#02x", m.Type())})
			return
		}
	}
}

// errMigrated marks a session the server handed off to a peer mid-run: the
// local simulation is finished silently (output latched to discard, no Done
// frame) and the connection closes, because the authoritative continuation
// now lives elsewhere.
var errMigrated = errors.New("server: session migrated to a peer")

// sessionReq is a session request in either form: a fresh Run, or a
// SessResume replay of a migrated session — a fresh run plus the journal of
// prompt answers already given and the output/trace offsets the peer
// already holds.
type sessionReq struct {
	spec             scenario.Spec
	streamTrace      bool
	journal          []wire.JournalEntry
	skipOutput       uint64
	skipTraceSamples uint64
	resumed          bool
}

// session runs one scenario for the connection. The calling goroutine owns
// the entire simulation; the client only ever observes framed output.
// traceZ selects the negotiated trace encoding for StreamTrace requests;
// snap permits SnapSave/SnapRestore answers to prompts; cluster permits
// drain-time migration hand-offs.
//
// Resume (req.resumed) leans entirely on determinism: the scenario is
// re-run from this server's own template (or cycle 0), journal entries
// answer the prompts the original session already answered, the first
// skipOutput bytes — which replay reproduces exactly — are discarded, and
// the session goes live at precisely the byte the peer was owed next.
func (s *Server) session(conn net.Conn, req sessionReq, traceZ, snap, cluster bool) error {
	if open := s.c.sessionsOpen.Add(1); open > int64(s.cfg.MaxSessions) {
		s.c.sessionsOpen.Add(-1)
		s.c.sessionsRejected.Add(1)
		return s.send(conn, &wire.Error{Code: wire.CodeBusy, Text: "session limit reached"})
	}
	// The slot is freed before the frame that ends the session, not after
	// it: a client may start its next session the moment it reads Done or
	// an Error, and must then find the slot free. end frees it and sends
	// that frame; the deferred free covers the paths that send none.
	held := true
	free := func() {
		if held {
			held = false
			s.c.sessionsOpen.Add(-1)
		}
	}
	defer free()
	end := func(m wire.Msg) error {
		free()
		return s.send(conn, m)
	}
	s.c.sessionsTotal.Add(1)

	if req.spec.Seconds > s.cfg.MaxSimSeconds {
		return end(&wire.Error{Code: wire.CodeBadRequest,
			Text: fmt.Sprintf("simulated duration %.1fs exceeds server limit %.1fs",
				req.spec.Seconds, s.cfg.MaxSimSeconds)})
	}
	if err := scenario.Validate(req.spec); err != nil {
		return end(&wire.Error{Code: wire.CodeBadRequest, Text: err.Error()})
	}

	if req.resumed {
		s.c.sessionsResumed.Add(1)
	}

	sw := &streamWriter{s: s, conn: conn}
	var out io.Writer = sw
	if req.skipOutput > 0 {
		out = &skipWriter{w: sw, n: req.skipOutput, c: &s.c}
	}

	migrated := false
	replay := req.journal
	var prompt scenario.PromptFunc
	if req.spec.Interactive && req.spec.Script == "" {
		prompt = func() (string, bool) {
			// Replay first: answers the original session already consumed,
			// served without touching the network.
			if len(replay) > 0 {
				j := replay[0]
				replay = replay[1:]
				switch j.Kind {
				case wire.JournalLine:
					return j.Line, true
				case wire.JournalSnapSave:
					return "snap", true
				case wire.JournalSnapRestore:
					return "restore", true
				default: // wire.JournalEOF
					return "", false
				}
			}
			if migrated {
				// The hand-off happened at an earlier prompt; refuse to
				// interact so the rig finishes silently.
				return "", false
			}
			// Drain hand-off: a cluster peer gets a SessMigrate in place of
			// the next Prompt — always between commands, never in the middle
			// of one, so the in-flight answer's output is already flushed.
			if cluster && s.isDraining() {
				s.migrateOut(conn, req.spec, sw)
				migrated = true
				return "", false
			}
			if sw.flush() != nil {
				return "", false
			}
			if s.send(conn, &wire.Prompt{}) != nil {
				return "", false
			}
			m, err := s.recv(conn, s.cfg.IdleTimeout)
			if err != nil {
				if isTimeout(err) {
					s.c.idleReaped.Add(1)
					s.send(conn, &wire.Error{Code: wire.CodeIdle, Text: "idle timeout: session reaped"})
					s.logf("conn %s: reaped idle session", conn.RemoteAddr())
				}
				sw.fail(err)
				return "", false
			}
			switch cmd := m.(type) {
			case *wire.Command:
				if cmd.EOF {
					return "", false
				}
				return cmd.Line, true
			case *wire.SnapSave, *wire.SnapRestore:
				// Remote time-travel rides the console's snap/restore
				// machinery: the frame stands in for the command line.
				if !snap {
					s.send(conn, &wire.Error{Code: wire.CodeBadRequest,
						Text: "snapshot capability was not negotiated"})
					return "", false
				}
				if _, ok := m.(*wire.SnapSave); ok {
					return "snap", true
				}
				return "restore", true
			default:
				return "", false
			}
		}
	}

	run := scenario.Run
	if s.pool != nil {
		run = s.pool.Run
	}
	res, err := run(req.spec, out, prompt)
	s.c.commandsServed.Add(int64(res.Commands))
	s.c.simCycles.Add(int64(res.SimCycles))
	s.c.scriptErrors.Add(int64(res.ScriptErrors))
	if migrated {
		// The peer owns the session's continuation now: no trace stream, no
		// Done. Close the connection so the hand-off is unambiguous.
		return errMigrated
	}
	if ferr := sw.flush(); ferr != nil {
		return ferr
	}
	if err != nil {
		return end(&wire.Error{Code: wire.CodeRunFailed, Text: err.Error()})
	}
	if req.streamTrace && res.Vcap != nil {
		if err := s.streamTrace(conn, res.Vcap, traceZ, req.skipTraceSamples); err != nil {
			return err
		}
	}
	return end(&wire.Done{
		Exit:         int32(res.ExitCode),
		Halted:       res.Run.Halted,
		SimCycles:    res.SimCycles,
		Commands:     uint32(res.Commands),
		ScriptErrors: uint32(res.ScriptErrors),
	})
}

// migrateOut hands the session to a cluster peer: flush what the peer is
// owed, send SessMigrate, and latch the output stream shut. The peer
// re-dispatches from its own journal — this side only has to get out of
// the way deterministically.
func (s *Server) migrateOut(conn net.Conn, spec scenario.Spec, sw *streamWriter) {
	if sw.flush() != nil {
		return
	}
	if err := s.send(conn, &wire.SessMigrate{SpecHash: scenario.SpecHash(spec)}); err != nil {
		sw.fail(err)
		return
	}
	s.c.sessionsMigrated.Add(1)
	s.logf("conn %s: session migrated out", conn.RemoteAddr())
	sw.fail(errMigrated)
}

// skipWriter discards the first n bytes of the session's output — the
// bytes the peer already received before a migration — and passes the rest
// through. Replay is deterministic, so byte n of the resumed run is exactly
// the byte the peer was owed next.
type skipWriter struct {
	w io.Writer
	n uint64
	c *counters
}

func (w *skipWriter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return w.w.Write(p)
	}
	if uint64(len(p)) <= w.n {
		w.n -= uint64(len(p))
		w.c.resumeSkippedBytes.Add(int64(len(p)))
		return len(p), nil
	}
	w.c.resumeSkippedBytes.Add(int64(w.n))
	tail := p[w.n:]
	w.n = 0
	if _, err := w.w.Write(tail); err != nil {
		return 0, err
	}
	return len(p), nil
}

// chunkSamples is the trace-streaming chunk size: 512 samples keep a raw
// Trace frame around 8 KiB, far below MaxFrame, while amortizing framing
// overhead.
const chunkSamples = 512

// streamTrace streams a recorded trace window to the client in chunks,
// compressed when the TraceZ capability was negotiated. All buffers — the
// TracePoint chunk, the codec blob, and the frame itself — are reused
// across chunks, so the hot path is allocation-free after the first chunk;
// frames are batched through a buffered writer flushed once per chunk.
// skipSamples resumes a migrated trace stream: the first skipSamples
// samples — which the peer already holds as complete chunks — are not
// re-sent. Because chunk boundaries depend only on the sample index, a
// chunk-aligned offset reproduces the remaining frames byte-identically.
func (s *Server) streamTrace(conn net.Conn, series *trace.Series, traceZ bool, skipSamples uint64) error {
	samples := series.Samples
	start := 0
	if skipSamples > 0 {
		if skipSamples > uint64(len(samples)) ||
			(skipSamples%chunkSamples != 0 && skipSamples != uint64(len(samples))) {
			return fmt.Errorf("server: trace resume offset %d is not a chunk boundary of %d samples",
				skipSamples, len(samples))
		}
		start = int(skipSamples)
	}
	// The buffered writer sits on a deadlineWriter, not the bare conn: one
	// Flush can span several underlying writes (and under TLS, several
	// records), and each must earn a fresh deadline. Arming a single
	// absolute deadline around the whole chunked send — the old shape —
	// spuriously times out a reader that drains steadily but slowly.
	bw := bufio.NewWriterSize(&deadlineWriter{conn: conn, d: s.cfg.WriteTimeout}, 32<<10)
	pts := make([]wire.TracePoint, 0, chunkSamples)
	var (
		enc   tracecodec.Encoder
		blob  []byte
		frame []byte
	)
	for i := start; i < len(samples); i += chunkSamples {
		end := i + chunkSamples
		if end > len(samples) {
			end = len(samples)
		}
		pts = pts[:0]
		for _, sm := range samples[i:end] {
			pts = append(pts, wire.TracePoint{At: uint64(sm.At), V: sm.V})
		}
		var err error
		if traceZ {
			blob = enc.Encode(blob[:0], pts)
			frame, err = wire.AppendMsg(frame[:0], &wire.TraceZ{
				Name:  series.Name,
				Unit:  series.Unit,
				Count: uint32(len(pts)),
				Data:  blob,
			}, 0)
		} else {
			frame, err = wire.AppendMsg(frame[:0], &wire.Trace{
				Name:    series.Name,
				Unit:    series.Unit,
				Samples: pts,
			}, 0)
		}
		if err != nil {
			return err
		}
		if _, err := bw.Write(frame); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		s.c.traceBytes.Add(int64(len(frame)))
		s.c.traceSamples.Add(int64(len(pts)))
	}
	// The chunked send is over: clear the conn's write deadline so the
	// last chunk's absolute deadline cannot leak onto a later write path
	// that touches the conn directly.
	conn.SetWriteDeadline(time.Time{})
	return nil
}

// streamWriter frames a session's output stream back to the client,
// coalescing small writes. A peer failure latches: the simulation keeps
// running to completion, later output is discarded, and the session ends
// with the connection torn down instead of a Done frame.
type streamWriter struct {
	s    *Server
	conn net.Conn
	buf  []byte
	err  error
}

// flushThreshold keeps frames reasonably sized without chattering a frame
// per fmt.Fprintf.
const flushThreshold = 4096

func (w *streamWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return len(p), nil // discard; the sim must still finish
	}
	w.buf = append(w.buf, p...)
	if len(w.buf) >= flushThreshold {
		w.flush()
	}
	return len(p), nil
}

func (w *streamWriter) flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	data := w.buf
	w.buf = nil
	if err := w.s.send(w.conn, &wire.Output{Data: data}); err != nil {
		w.fail(err)
		return err
	}
	w.s.c.bytesStreamed.Add(int64(len(data)))
	return nil
}

func (w *streamWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}
