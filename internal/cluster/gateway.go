// Package cluster implements the edbd gateway tier: one endpoint that
// terminates client connections and routes each debugging session to a
// fleet of edbd backends.
//
// The paper's EDB is one board debugging one intermittent device (§4.2);
// edbd made that rig a network service; the gateway makes a *fleet* of
// such services look like one. Placement is a consistent-hash ring keyed
// by the session spec's template identity (scenario.SpecHash), so sessions
// of the same firmware family land where that family's warm-start template
// already lives, with load-aware overflow to the next ring candidate when
// the home backend is full, down, or draining.
//
// Sessions survive backend loss. The gateway keeps, per proxied session,
// a wire.SessResume: the journal of prompt answers it has relayed plus the
// output-byte and trace-sample offsets already delivered to the client. A
// draining backend hands its sessions
// back with SessMigrate frames; a crashed backend just drops the
// connection. Both paths converge on the same re-dispatch: pick the next
// ring candidate, replay via SessResume, and keep relaying. Because
// sessions are deterministic, the client's byte stream is identical to an
// unmigrated run — the client cannot tell a failover happened.
//
// Sessions also survive gateway loss, with no state shared between
// gateways. A reconnect-capable client keeps the same journal and offsets
// itself, so when its gateway dies it dials another gateway in front of the
// same backends and resumes there with its own SessResume, which this
// gateway routes like a fresh placement.
//
// Both tiers authenticate independently: Config.TLS/AuthToken gate the
// client side exactly like a plain edbd, and Config.BackendTLS/BackendToken
// secure the gateway→backend hop, so a fleet can require mTLS internally
// while serving token-authenticated clients externally.
package cluster

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
	"repro/internal/wire"
)

// ErrGatewayClosed is returned by Serve after Shutdown begins.
var ErrGatewayClosed = errors.New("cluster: gateway closed")

const (
	// vnodes is the number of virtual ring points per backend.
	vnodes = 64
	// readTimeout bounds the wait for a Stat probe's reply.
	readTimeout = 10 * time.Second
	// backendReadTimeout bounds the wait for each backend frame of a
	// session; it lies above the longest permitted simulation.
	backendReadTimeout = 90 * time.Second
	// dialTimeout bounds each backend dial, handshake included.
	dialTimeout = 5 * time.Second
	// writeTimeout bounds each outbound frame write's stall.
	writeTimeout = 10 * time.Second
)

// Config parameterizes the gateway.
type Config struct {
	// Name identifies the gateway in client handshakes (default
	// "edbd-gateway").
	Name string
	// Backends is the initial backend address list; more can join at
	// runtime via AddBackend or wire Join frames.
	Backends []string
	// MaxConns bounds simultaneously open client connections (default 256).
	MaxConns int
	// IdleTimeout reaps clients idling between requests or sitting on a
	// prompt (default 2m), mirroring the backend behavior.
	IdleTimeout time.Duration
	// HealthInterval is the backend Stat-probe period (default 2s).
	HealthInterval time.Duration
	// MaxDispatches bounds backend placements per session, counting the
	// first (default 6): a session that cannot be placed or keeps losing
	// backends is answered with Error{CodeRunFailed} instead of looping.
	MaxDispatches int
	// DefaultBackendSessions is the per-backend session capacity assumed
	// until the first Stat probe reports the real one (default 128).
	DefaultBackendSessions int
	// TLS, when set, wraps the client-facing listener.
	TLS *tls.Config
	// AuthToken arms client-tier token authentication, exactly like
	// server.Config.AuthToken.
	AuthToken string
	// RequireAuth rejects unauthenticated client handshakes.
	RequireAuth bool
	// BackendTLS, when set, dials backends over TLS (set ServerName or
	// InsecureSkipVerify appropriately; Certificates for mTLS).
	BackendTLS *tls.Config
	// BackendToken, when non-empty, authenticates the gateway to its
	// backends via FlagAuth.
	BackendToken string
	// Logf, when set, receives one line per connection-level event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "edbd-gateway"
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.MaxDispatches <= 0 {
		c.MaxDispatches = 6
	}
	if c.DefaultBackendSessions <= 0 {
		c.DefaultBackendSessions = 128
	}
	return c
}

// backendState is the gateway's view of one backend.
type backendState struct {
	addr        string
	inflight    atomic.Int64
	total       atomic.Int64
	maxSessions atomic.Int64
	down        atomic.Bool
	draining    atomic.Bool
	// epoch counts the backend's lives: it advances when a backend this
	// gateway believed dead re-joins. Per-session failure marks record the
	// epoch they were made in, so a restarted backend sheds the blacklists
	// its previous life earned.
	epoch atomic.Int64
}

// Gateway is one gateway instance.
type Gateway struct {
	cfg    Config
	c      counters
	hs     wire.Acceptor // the client-facing handshake
	dialer wire.Dialer   // the gateway→backend handshake
	lat    latencyRing

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	backends map[string]*backendState
	ring     *hashRing
	draining bool

	stopHealth chan struct{}
	wg         sync.WaitGroup
}

// New builds a gateway; zero-valued config fields take their defaults.
func New(cfg Config) *Gateway {
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg: cfg,
		hs: wire.Acceptor{Name: cfg.Name, Token: cfg.AuthToken, RequireAuth: cfg.RequireAuth,
			WriteTimeout: writeTimeout, Logf: cfg.Logf},
		dialer:     wire.Dialer{Timeout: dialTimeout, TLS: cfg.BackendTLS, Name: cfg.Name, Token: cfg.BackendToken},
		conns:      make(map[net.Conn]struct{}),
		backends:   make(map[string]*backendState),
		stopHealth: make(chan struct{}),
	}
	for _, a := range g.cfg.Backends {
		g.addBackendLocked(a)
	}
	g.rebuildRingLocked()
	return g
}

func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

func (g *Gateway) addBackendLocked(addr string) *backendState {
	if b, ok := g.backends[addr]; ok {
		return b
	}
	b := &backendState{addr: addr}
	b.maxSessions.Store(int64(g.cfg.DefaultBackendSessions))
	g.backends[addr] = b
	return b
}

func (g *Gateway) rebuildRingLocked() {
	addrs := make([]string, 0, len(g.backends))
	for a := range g.backends {
		addrs = append(addrs, a)
	}
	g.ring = buildRing(addrs, vnodes)
}

// AddBackend registers a backend address at runtime (idempotent). The ring
// is rebuilt; existing sessions keep their placement. A Join for a backend
// this gateway believed dead proves a restart: the backend comes back up
// and its epoch advances, so per-session failure marks from its previous
// life stop blacklisting it.
func (g *Gateway) AddBackend(addr string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.backends[addr]; !ok {
		g.addBackendLocked(addr)
		g.rebuildRingLocked()
		g.logf("backend %s: joined (%d backends)", addr, len(g.backends))
	} else if b := g.backends[addr]; b.down.Swap(false) {
		b.epoch.Add(1)
		g.logf("backend %s: re-joined; session blacklists cleared", addr)
	}
}

func (g *Gateway) backend(addr string) *backendState {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.backends[addr]
}

// ListenAndServe listens on addr and serves until Shutdown.
func (g *Gateway) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return g.Serve(lis)
}

// Addr returns the listener's address (nil before Serve).
func (g *Gateway) Addr() net.Addr {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.lis == nil {
		return nil
	}
	return g.lis.Addr()
}

// Serve accepts client connections on lis until Shutdown closes it, then
// returns ErrGatewayClosed. Config.TLS wraps the listener when set.
func (g *Gateway) Serve(lis net.Listener) error {
	if g.cfg.TLS != nil {
		lis = tls.NewListener(lis, g.cfg.TLS)
	}
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		lis.Close()
		return ErrGatewayClosed
	}
	g.lis = lis
	g.mu.Unlock()

	g.wg.Add(1)
	go g.healthLoop()

	for {
		conn, err := lis.Accept()
		if err != nil {
			g.mu.Lock()
			draining := g.draining
			g.mu.Unlock()
			if draining {
				return ErrGatewayClosed
			}
			return err
		}
		g.mu.Lock()
		if g.draining {
			g.mu.Unlock()
			conn.Close()
			return ErrGatewayClosed
		}
		g.conns[conn] = struct{}{}
		g.wg.Add(1)
		g.mu.Unlock()
		go g.handle(conn)
	}
}

// Shutdown stops the gateway: the listener closes and open client
// connections are cut. Sessions in flight are abandoned client-side — the
// *backends* keep their state, and a reconnect-capable client that redials
// a recovered gateway resumes from its own journal. If ctx expires before
// the handlers drain, Shutdown returns ctx.Err().
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	if !g.draining {
		g.draining = true
		close(g.stopHealth)
	}
	lis := g.lis
	for c := range g.conns {
		c.Close()
	}
	g.mu.Unlock()
	if lis != nil {
		lis.Close()
	}

	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// healthLoop Stat-probes every backend on HealthInterval, keeping the
// down/draining/capacity view current so placement avoids dead or
// departing backends before a session has to find out the hard way.
func (g *Gateway) healthLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stopHealth:
			return
		case <-t.C:
		}
		g.mu.Lock()
		bs := make([]*backendState, 0, len(g.backends))
		for _, b := range g.backends {
			bs = append(bs, b)
		}
		g.mu.Unlock()
		for _, b := range bs {
			g.probe(b)
		}
	}
}

// probe runs one Stat round-trip against a backend and folds the result
// into its state.
func (g *Gateway) probe(b *backendState) {
	conn, err := g.dialBackend(b.addr, 0)
	if err != nil {
		if !b.down.Swap(true) {
			g.logf("backend %s: down (%v)", b.addr, err)
		}
		return
	}
	defer conn.Close()
	if err := wire.SendMsg(conn, &wire.Stat{}, 0, writeTimeout); err != nil {
		b.down.Store(true)
		return
	}
	m, _, err := wire.RecvMsg(conn, readTimeout)
	if err != nil {
		b.down.Store(true)
		return
	}
	st, ok := m.(*wire.StatReply)
	if !ok {
		b.down.Store(true)
		return
	}
	if b.down.Swap(false) {
		g.logf("backend %s: up (%d/%d sessions, draining=%v)", b.addr, st.Sessions, st.MaxSessions, st.Draining)
	}
	b.maxSessions.Store(int64(st.MaxSessions))
	b.draining.Store(st.Draining)
}

// dialBackend opens a cluster connection to a backend, negotiating
// FlagCluster plus the client's FlagTraceZ from caps (a proxied session's
// byte stream is relayed verbatim and must match what the client
// negotiated with the gateway; a client without the bit gets the backend's
// refusal of a traced session, relayed unchanged). A backend that refuses
// any required bit is an error, not a downgrade.
func (g *Gateway) dialBackend(addr string, caps byte) (net.Conn, error) {
	want := caps&wire.FlagTraceZ | wire.FlagCluster
	conn, _, granted, err := g.dialer.Dial(context.Background(), addr, want)
	if err != nil {
		return nil, fmt.Errorf("cluster: backend %s: %w", addr, err)
	}
	if granted&want != want {
		conn.Close()
		return nil, fmt.Errorf("cluster: backend %s granted caps %#02x, need %#02x", addr, granted, want)
	}
	return conn, nil
}

// handle owns one client connection: handshake, then a loop of proxied
// requests.
func (g *Gateway) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
		g.c.connsOpen.Add(-1)
		g.wg.Done()
	}()
	g.c.connsTotal.Add(1)
	if open := g.c.connsOpen.Add(1); open > int64(g.cfg.MaxConns) {
		g.c.connsRejected.Add(1)
		wire.SendMsg(conn, &wire.Error{Code: wire.CodeBusy, Text: "connection limit reached"}, 0, writeTimeout)
		return
	}

	caps, err := g.hs.Accept(conn)
	if err != nil {
		return
	}
	cluster := caps&wire.FlagCluster != 0

	p := wire.NewPeer(conn, writeTimeout)
	for {
		m, err := p.Recv(g.cfg.IdleTimeout)
		if err != nil {
			switch {
			case wire.IsTimeout(err):
				p.Send(&wire.Error{Code: wire.CodeIdle, Text: "idle timeout: connection reaped"})
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
			g.c.statProbes.Add(1)
			if err := p.Send(g.aggregateStat()); err != nil {
				return
			}
		case *wire.Join:
			if !cluster {
				p.Send(&wire.Error{Code: wire.CodeBadRequest,
					Text: "cluster capability was not negotiated"})
				return
			}
			if req.Addr == "" {
				p.Send(&wire.Error{Code: wire.CodeBadRequest, Text: "join with empty address"})
				return
			}
			g.c.joins.Add(1)
			g.AddBackend(req.Addr)
			// Ack with the aggregate view so the joiner sees the fleet it
			// joined.
			if err := p.Send(g.aggregateStat()); err != nil {
				return
			}
		case *wire.Run:
			sess := &sessState{rec: req.Seed()}
			if err := g.proxySession(p, caps, sess); err != nil {
				return
			}
		case *wire.SessResume:
			// A reconnect-capable client resuming through the gateway (after
			// a gateway restart, or the death of another gateway in front of
			// the same backends): seed the proxy state from the client's own
			// journal and route it like a fresh placement.
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
			sess := &sessState{rec: *req, resumed: true}
			if err := g.proxySession(p, caps, sess); err != nil {
				return
			}
		default:
			p.Send(&wire.Error{Code: wire.CodeBadRequest,
				Text: fmt.Sprintf("unexpected message type %#02x", m.Type())})
			return
		}
	}
}

func (g *Gateway) aggregateStat() *wire.StatReply {
	g.mu.Lock()
	defer g.mu.Unlock()
	var sessions, max int64
	for _, b := range g.backends {
		if b.down.Load() {
			continue
		}
		sessions += b.inflight.Load()
		max += b.maxSessions.Load()
	}
	return &wire.StatReply{
		Sessions:    uint32(sessions),
		MaxSessions: uint32(max),
		Draining:    g.draining,
	}
}

// sessState is everything the gateway must remember to move one proxied
// session to another backend mid-run.
type sessState struct {
	// rec is the session's progress record: its spec, the prompt answers
	// already relayed (the replay journal), and how many output bytes and
	// trace samples the client already holds (the skip offsets).
	rec     wire.SessResume
	resumed bool // dispatch rec as a SessResume instead of a Run

	// failed maps a backend that failed this session to the backend epoch
	// the failure was observed in; the mark expires when the backend
	// re-joins (its epoch advances).
	failed map[string]int64
	// redispatchStart stamps the moment a hand-off or failure was detected;
	// the next successful dispatch closes the migration-latency sample.
	redispatchStart time.Time
}

// failedNow reports whether b is blacklisted for this session *in its
// current life* — a mark made before the backend re-joined does not count.
func (sess *sessState) failedNow(b *backendState) bool {
	ep, ok := sess.failed[b.addr]
	return ok && ep == b.epoch.Load()
}

// place picks a backend for the session: walk the ring from the spec's
// home point, skipping backends that are down, draining, at capacity, or
// already failed for this session — each live-but-skipped candidate counts
// as a placement miss. If that leaves nothing, previously failed backends
// get a second chance (a restarted backend is better than a dead session);
// if the fleet is saturated, the least-loaded live backend takes the
// overflow.
func (g *Gateway) place(sess *sessState) (*backendState, error) {
	g.mu.Lock()
	ring := g.ring
	g.mu.Unlock()
	order := ring.order(sess.rec.SpecHash)
	if len(order) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	var fallback *backendState // least-loaded live backend, ignoring capacity
	for i, addr := range order {
		b := g.backend(addr)
		if b == nil {
			continue
		}
		if b.down.Load() || sess.failedNow(b) {
			continue
		}
		if fallback == nil || b.inflight.Load() < fallback.inflight.Load() {
			fallback = b
		}
		if b.draining.Load() || b.inflight.Load() >= b.maxSessions.Load() {
			g.c.placementMisses.Add(1)
			continue
		}
		if i > 0 {
			// Home backend unavailable; this session overflowed down-ring.
			g.c.placementMisses.Add(1)
		}
		return b, nil
	}
	if fallback != nil {
		return fallback, nil
	}
	// Everything is down or already failed: retry failed backends rather
	// than give up — a crashed backend may have restarted.
	for _, addr := range order {
		if b := g.backend(addr); b != nil && sess.failedNow(b) && !b.down.Load() {
			return b, nil
		}
	}
	return nil, errors.New("cluster: no live backend available")
}

// dispatch places the session on a backend and starts (or resumes) it
// there, returning the open backend connection.
func (g *Gateway) dispatch(sess *sessState, caps byte) (*wire.Peer, *backendState, error) {
	b, err := g.place(sess)
	if err != nil {
		return nil, nil, err
	}
	g.c.dispatches.Add(1)
	conn, err := g.dialBackend(b.addr, caps)
	if err != nil {
		g.c.dialErrors.Add(1)
		b.down.Store(true)
		g.markFailed(sess, b.addr)
		return nil, nil, err
	}
	var req wire.Msg = &sess.rec
	if !sess.resumed {
		req = &wire.Run{Spec: sess.rec.Spec, StreamTrace: sess.rec.StreamTrace}
	}
	bp := wire.NewPeer(conn, writeTimeout)
	if err := bp.Send(req); err != nil {
		conn.Close()
		g.markFailed(sess, b.addr)
		return nil, nil, err
	}
	if !sess.redispatchStart.IsZero() {
		g.lat.record(time.Since(sess.redispatchStart))
		sess.redispatchStart = time.Time{}
	}
	b.inflight.Add(1)
	b.total.Add(1)
	return bp, b, nil
}

func (g *Gateway) markFailed(sess *sessState, addr string) {
	if sess.failed == nil {
		sess.failed = make(map[string]int64)
	}
	var ep int64
	if b := g.backend(addr); b != nil {
		ep = b.epoch.Load()
	}
	sess.failed[addr] = ep
}

// proxySession relays one session between the client and a backend,
// re-dispatching on SessMigrate hand-offs and backend connection loss. It
// returns nil when the session concluded and the client connection may
// serve another request, or an error when the client connection itself is
// no longer usable.
func (g *Gateway) proxySession(cp *wire.Peer, caps byte, sess *sessState) error {
	g.c.sessionsTotal.Add(1)
	g.c.sessionsActive.Add(1)
	defer g.c.sessionsActive.Add(-1)

	var lastErr error
	for attempt := 0; attempt < g.cfg.MaxDispatches; attempt++ {
		bp, b, err := g.dispatch(sess, caps)
		if err != nil {
			lastErr = err
			g.logf("session %s: dispatch failed (attempt %d): %v", cp.RemoteAddr(), attempt+1, err)
			continue
		}
		// pump frees the leg's slot on b before it relays the backend's
		// Done or Error: the backend has freed its own by then, and a
		// client may start its next session the moment it reads that
		// frame, so placement must already see b free. Every other way
		// out frees it here, once the leg is closed.
		freed := false
		free := func() {
			if !freed {
				freed = true
				b.inflight.Add(-1)
			}
		}
		done, err := g.pump(cp, bp, b, sess, free)
		bp.Close()
		free()
		if done {
			return err
		}
		// The backend was lost or handed the session away. What the lost
		// leg relayed goes to the client before the next leg starts, so the
		// offsets the re-dispatch sends count only bytes the client holds.
		if ferr := cp.Flush(); ferr != nil {
			return ferr
		}
		lastErr = err
		sess.resumed = true
	}
	err := fmt.Errorf("cluster: session failed after %d dispatch attempts: %v", g.cfg.MaxDispatches, lastErr)
	g.logf("session %s: %v", cp.RemoteAddr(), err)
	cp.Send(&wire.Error{Code: wire.CodeRunFailed, Text: err.Error()})
	return err
}

// pump relays frames for one backend leg of a session. It returns
// done=true when the session is over (cleanly, with the backend's Done or
// Error relayed, or because the *client* side failed or the gateway
// refused it — err non-nil then), and done=false when the session should
// be re-dispatched to another backend (hand-off or backend failure), with
// relayed frames possibly still queued on cp. free gives back the leg's
// slot on b; pump calls it before relaying a frame with which the backend
// ended the session.
//
// Output and trace frames are queued on cp and written once bp holds no
// further backend bytes, so the frames one backend write carried leave in
// one client write, and output is never held while the gateway waits on
// the backend. A Prompt, Done or Error writes at once.
func (g *Gateway) pump(cp, bp *wire.Peer, b *backendState, sess *sessState, free func()) (done bool, err error) {
	relay := func(m wire.Msg) error {
		g.c.framesRelayed.Add(1)
		if _, err := cp.Queue(m); err != nil {
			return err
		}
		if bp.Buffered() > 0 {
			return nil // the next backend frame is already in hand
		}
		return cp.Flush()
	}
	for {
		m, rerr := bp.Recv(backendReadTimeout)
		if rerr != nil {
			g.noteLeave(sess, b, true, rerr.Error())
			return false, rerr
		}
		switch t := m.(type) {
		case *wire.Output:
			sess.rec.SkipOutput += uint64(len(t.Data))
			g.c.bytesRelayed.Add(int64(len(t.Data)))
			if err := relay(t); err != nil {
				return true, err
			}
		case *wire.TraceZ:
			sess.rec.SkipTraceSamples += uint64(t.Count)
			if err := relay(t); err != nil {
				return true, err
			}
		case *wire.Prompt:
			g.c.framesRelayed.Add(1)
			if err := cp.Send(t); err != nil {
				return true, err
			}
			am, aerr := cp.Recv(g.cfg.IdleTimeout)
			if aerr != nil && !wire.IsBadFrame(aerr) {
				if wire.IsTimeout(aerr) {
					free()
					cp.Send(&wire.Error{Code: wire.CodeIdle, Text: "idle timeout: session reaped"})
				}
				return true, aerr
			}
			a, ok := am.(*wire.Command)
			if !ok {
				err := fmt.Errorf("cluster: unexpected prompt answer %T", am)
				if aerr != nil {
					err = fmt.Errorf("cluster: bad prompt answer: %w", aerr)
				}
				free()
				cp.Send(&wire.Error{Code: wire.CodeBadRequest, Text: err.Error()})
				return true, err
			}
			// Journal before forwarding: if the backend dies taking this
			// answer, the replay serves it instead of re-asking the client.
			sess.rec.Answered(a)
			g.c.answersRelayed.Add(1)
			if werr := bp.Send(a); werr != nil {
				g.noteLeave(sess, b, true, werr.Error())
				return false, werr
			}
		case *wire.SessMigrate:
			// The backend is draining: it already sent everything the
			// client is owed, so the journal + offsets resume elsewhere.
			g.noteLeave(sess, b, false, "drain hand-off")
			return false, nil
		case *wire.Done:
			g.c.framesRelayed.Add(1)
			free()
			if err := cp.Send(t); err != nil {
				return true, err
			}
			return true, nil
		case *wire.Error:
			if t.Code == wire.CodeBusy && sess.cleanLeg() {
				// The backend filled up between placement and admission and
				// nothing was relayed yet: treat like a failed placement and
				// overflow to the next candidate.
				g.noteLeave(sess, b, true, "backend busy")
				return false, t
			}
			// The backend ended the session with this Error and keeps its
			// connection for the next request, so the client keeps its own.
			free()
			if err := cp.Send(t); err != nil {
				return true, err
			}
			return true, nil
		default:
			err := fmt.Errorf("cluster: unexpected backend frame %T", m)
			cp.Send(&wire.Error{Code: wire.CodeRunFailed, Text: err.Error()})
			return true, err
		}
	}
}

// noteLeave records that the session is leaving backend b — a failover
// (the connection died) or a migration (a drain hand-off) — and stamps the
// re-dispatch start time for the latency histogram. A single dead session
// connection does not mark the backend down (that verdict belongs to the
// health prober and to dial failures, which are unambiguous); it only goes
// into this session's failed set so the re-dispatch prefers elsewhere.
func (g *Gateway) noteLeave(sess *sessState, b *backendState, failover bool, reason string) {
	g.markFailed(sess, b.addr)
	if failover {
		g.c.failovers.Add(1)
	} else {
		g.c.migrations.Add(1)
		b.draining.Store(true)
	}
	sess.redispatchStart = time.Now()
	g.logf("backend %s: session leaving (%s)", b.addr, reason)
}

func (sess *sessState) cleanLeg() bool {
	return sess.rec.SkipOutput == 0 && sess.rec.SkipTraceSamples == 0 && len(sess.rec.Journal) == 0
}
