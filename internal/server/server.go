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
	"context"
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
	// DisableCluster refuses the cluster capability: Stat probes,
	// SessResume replays and drain-time SessMigrate hand-offs are then
	// rejected, and a drain simply waits for busy sessions like a
	// single-node deployment.
	DisableCluster bool
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
	hs   wire.Acceptor
	pool *scenario.Pool

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]*connState
	draining bool

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
	cfg = cfg.withDefaults()
	var refuse byte
	if cfg.DisableCluster {
		refuse |= wire.FlagCluster
	}
	return &Server{
		cfg: cfg,
		hs: wire.Acceptor{Name: cfg.Name, Refuse: refuse, Token: cfg.AuthToken, RequireAuth: cfg.RequireAuth,
			WriteTimeout: cfg.WriteTimeout, Logf: cfg.Logf},
		pool:  scenario.NewPool(),
		conns: make(map[net.Conn]*connState),
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
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
		wire.SendMsg(conn, &wire.Error{Code: wire.CodeBusy, Text: "connection limit reached"}, 0, s.cfg.WriteTimeout)
		return
	}

	caps, err := s.hs.Accept(conn)
	if err != nil {
		return
	}
	traceZ := caps&wire.FlagTraceZ != 0
	cluster := caps&wire.FlagCluster != 0

	// Every outbound byte goes through the peer's wire.DeadlineWriter, so
	// no write can block forever on a dead peer: a path that armed no
	// deadline would hang its session goroutine, and a drain, indefinitely.
	p := wire.NewPeer(conn, s.cfg.WriteTimeout)
	for {
		m, err := p.Recv(s.cfg.IdleTimeout)
		if err != nil {
			switch {
			case wire.IsTimeout(err):
				s.c.idleReaped.Add(1)
				p.Send(&wire.Error{Code: wire.CodeIdle, Text: "idle timeout: connection reaped"})
				s.logf("conn %s: reaped idle", conn.RemoteAddr())
			case wire.IsBadFrame(err):
				p.Send(&wire.Error{Code: wire.CodeBadRequest, Text: "bad request: " + err.Error()})
			}
			return
		}
		switch req := m.(type) {
		case *wire.Ping:
			if err := p.Send(&wire.Pong{Token: req.Token}); err != nil {
				return
			}
		case *wire.Stat:
			if !cluster {
				p.Send(&wire.Error{Code: wire.CodeBadRequest,
					Text: "cluster capability was not negotiated"})
				return
			}
			s.c.statProbes.Add(1)
			if err := p.Send(&wire.StatReply{
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
			rec := req.Seed()
			err := s.session(p, &rec, false, traceZ, cluster)
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
				p.Send(&wire.Error{Code: wire.CodeBadRequest,
					Text: "cluster capability was not negotiated"})
				return
			}
			if req.SpecHash != scenario.SpecHash(req.Spec) {
				p.Send(&wire.Error{Code: wire.CodeBadRequest,
					Text: "resume spec hash does not match its spec"})
				return
			}
			if !st.enterBusy() {
				return
			}
			err := s.session(p, req, true, traceZ, cluster)
			st.exitBusy()
			if err != nil {
				return
			}
			if s.isDraining() {
				return
			}
		default:
			p.Send(&wire.Error{Code: wire.CodeBadRequest,
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

// session runs one scenario for the connection. req is the session's
// progress record: a fresh Run's seed, with an empty journal and zero
// offsets, or the SessResume of a migrated session (resumed). The calling
// goroutine owns the entire simulation; the client only ever observes
// framed output. traceZ reports that the peer decodes TraceZ, which a
// StreamTrace request needs; cluster permits drain-time migration
// hand-offs.
//
// Resume leans entirely on determinism: the scenario is re-run from this
// server's own template (or cycle 0), journal entries answer the prompts
// the original session already answered, the first SkipOutput bytes —
// which replay reproduces exactly — are discarded, and the session goes
// live at precisely the byte the peer was owed next.
func (s *Server) session(p *wire.Peer, req *wire.SessResume, resumed, traceZ, cluster bool) error {
	if open := s.c.sessionsOpen.Add(1); open > int64(s.cfg.MaxSessions) {
		s.c.sessionsOpen.Add(-1)
		s.c.sessionsRejected.Add(1)
		return p.Send(&wire.Error{Code: wire.CodeBusy, Text: "session limit reached"})
	}
	// The slot is freed before the frame that ends the session, not after
	// it: a client may start its next session the moment it reads Done or
	// an Error, and must then find the slot free. end frees it and sends
	// that frame, with whatever output is still queued ahead of it; the
	// deferred free covers the paths that send none.
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
		return p.Send(m)
	}
	s.c.sessionsTotal.Add(1)

	if req.Spec.Seconds > s.cfg.MaxSimSeconds {
		return end(&wire.Error{Code: wire.CodeBadRequest,
			Text: fmt.Sprintf("simulated duration %.1fs exceeds server limit %.1fs",
				req.Spec.Seconds, s.cfg.MaxSimSeconds)})
	}
	if err := scenario.Validate(req.Spec); err != nil {
		return end(&wire.Error{Code: wire.CodeBadRequest, Text: err.Error()})
	}
	// TraceZ is the only trace encoding, so a peer that does not decode it
	// (a client built before the codec) is refused instead of sent frames
	// it cannot read.
	if req.StreamTrace && !traceZ {
		return end(&wire.Error{Code: wire.CodeBadRequest,
			Text: "trace streaming needs the TraceZ capability"})
	}

	if resumed {
		s.c.sessionsResumed.Add(1)
	}

	sw := &streamWriter{s: s, p: p}
	var out io.Writer = sw
	if req.SkipOutput > 0 {
		out = &skipWriter{w: sw, n: req.SkipOutput, c: &s.c}
	}

	migrated := false
	// rejected ends a session whose prompt was answered by anything but a
	// Command, or not answered within the idle timeout; the rig runs out
	// silently first, and the slot is freed before the Error goes out.
	var rejected *wire.Error
	replay := req.Journal
	var prompt scenario.PromptFunc
	if req.Spec.Interactive && req.Spec.Script == "" {
		prompt = func() (string, bool) {
			// Replay first: answers the original session already consumed,
			// served without touching the network.
			if len(replay) > 0 {
				j := replay[0]
				replay = replay[1:]
				return j.Line, j.Kind == wire.JournalLine
			}
			if migrated || rejected != nil {
				// The session left at an earlier prompt; refuse to interact
				// so the rig finishes silently.
				return "", false
			}
			// Drain hand-off: a cluster peer gets a SessMigrate in place of
			// the next Prompt — always between commands, never in the middle
			// of one, so the in-flight answer's output goes out with it.
			if cluster && s.isDraining() {
				s.migrateOut(p, req.SpecHash, sw)
				migrated = true
				return "", false
			}
			// The output owed so far goes out in the Prompt's write.
			if sw.queue() != nil {
				return "", false
			}
			if err := p.Send(&wire.Prompt{}); err != nil {
				sw.fail(err)
				return "", false
			}
			m, err := p.Recv(s.cfg.IdleTimeout)
			if wire.IsTimeout(err) {
				s.c.idleReaped.Add(1)
				s.logf("conn %s: reaped idle session", p.RemoteAddr())
				rejected = &wire.Error{Code: wire.CodeIdle, Text: "idle timeout: session reaped"}
				sw.fail(rejected)
				return "", false
			}
			if err != nil && !wire.IsBadFrame(err) {
				sw.fail(err)
				return "", false
			}
			cmd, ok := m.(*wire.Command)
			if !ok {
				text := fmt.Sprintf("unexpected prompt answer %T", m)
				if err != nil {
					text = "bad prompt answer: " + err.Error()
				}
				rejected = &wire.Error{Code: wire.CodeBadRequest, Text: text}
				sw.fail(rejected)
				return "", false
			}
			return cmd.Line, !cmd.EOF
		}
	}

	res, err := s.pool.Run(req.Spec, out, prompt)
	s.c.commandsServed.Add(int64(res.Commands))
	s.c.simCycles.Add(int64(res.SimCycles))
	s.c.scriptErrors.Add(int64(res.ScriptErrors))
	if migrated {
		// The peer owns the session's continuation now: no trace stream, no
		// Done. Close the connection so the hand-off is unambiguous.
		return errMigrated
	}
	if rejected != nil {
		end(rejected)
		return rejected
	}
	if qerr := sw.queue(); qerr != nil {
		return qerr
	}
	if err != nil {
		return end(&wire.Error{Code: wire.CodeRunFailed, Text: err.Error()})
	}
	if req.StreamTrace && res.Vcap != nil {
		// A resume continues the stream at a chunk boundary, or at its end.
		n, skip := uint64(len(res.Vcap.Samples)), req.SkipTraceSamples
		if skip > n || skip%chunkSamples != 0 && skip != n {
			return end(&wire.Error{Code: wire.CodeBadRequest,
				Text: fmt.Sprintf("trace resume offset %d is not a chunk boundary of %d samples", skip, n)})
		}
		if err := s.streamTrace(p, res.Vcap, int(skip)); err != nil {
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

// migrateOut hands the session to a cluster peer: send SessMigrate with
// the output the peer is owed ahead of it, and latch the output stream
// shut. The peer re-dispatches from its own journal — this side only has
// to get out of the way deterministically.
func (s *Server) migrateOut(p *wire.Peer, specHash uint64, sw *streamWriter) {
	if sw.queue() != nil {
		return
	}
	if err := p.Send(&wire.SessMigrate{SpecHash: specHash}); err != nil {
		sw.fail(err)
		return
	}
	s.c.sessionsMigrated.Add(1)
	s.logf("conn %s: session migrated out", p.RemoteAddr())
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

// chunkSamples is the trace-streaming chunk size: 512 samples keep a
// TraceZ frame near 1 KiB (about 1.7 bytes per sample), far below
// MaxFrame, while amortizing framing overhead. Chunk boundaries fix the
// frames, and so the offsets a resume may ask for.
const chunkSamples = 512

// streamTrace streams a recorded trace window to the client in TraceZ
// chunks. The TracePoint chunk and the codec blob are reused across
// chunks, and each frame is encoded straight into the peer's pending
// buffer. Chunks are queued: they write themselves every 32 KiB, and the
// last of them goes out with Done. start resumes a migrated trace stream:
// the first start samples — which the peer already holds as complete
// chunks — are not re-sent. Because chunk boundaries depend only on the
// sample index, a chunk-aligned start reproduces the remaining frames
// byte-identically.
func (s *Server) streamTrace(p *wire.Peer, series *trace.Series, start int) error {
	samples := series.Samples
	pts := make([]wire.TracePoint, 0, chunkSamples)
	var (
		enc  tracecodec.Encoder
		blob []byte
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
		blob = enc.Encode(blob[:0], pts)
		n, err := p.Queue(&wire.TraceZ{Name: series.Name, Unit: series.Unit, Count: uint32(len(pts)), Data: blob})
		if err != nil {
			return err
		}
		s.c.traceBytes.Add(int64(n))
		s.c.traceSamples.Add(int64(len(pts)))
	}
	return nil
}

// streamWriter frames a session's output stream back to the client,
// coalescing small writes. Output is queued on the peer, to go out with
// the next frame, unless it passes flushThreshold while the simulation
// runs: then it is written at once, so long runs stream. A peer failure
// latches: the simulation keeps running to completion, later output is
// discarded, and the session ends with the connection torn down instead
// of a Done frame.
type streamWriter struct {
	s   *Server
	p   *wire.Peer
	buf []byte
	err error
}

// flushThreshold keeps frames reasonably sized without chattering a frame
// per fmt.Fprintf.
const flushThreshold = 4096

func (w *streamWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return len(p), nil // discard; the sim must still finish
	}
	w.buf = append(w.buf, p...)
	if len(w.buf) >= flushThreshold && w.queue() == nil {
		w.fail(w.p.Flush())
	}
	return len(p), nil
}

// queue moves the buffered output into one queued Output frame.
func (w *streamWriter) queue() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.p.Queue(&wire.Output{Data: w.buf}); err != nil {
		w.fail(err)
		return err
	}
	w.s.c.bytesStreamed.Add(int64(len(w.buf)))
	w.buf = w.buf[:0]
	return nil
}

func (w *streamWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}
