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
// the journal of prompt answers it has relayed plus the output-byte and
// trace-sample offsets already delivered to the client — exactly the state
// internal/wire.SessResume carries. A draining backend hands its sessions
// back with SessMigrate frames (carrying its warm-start template image); a
// crashed backend just drops the connection. Both paths converge on the
// same re-dispatch: pick the next ring candidate, replay via SessResume,
// and keep relaying. Because sessions are deterministic, the client's byte
// stream is identical to an unmigrated run — the client cannot tell a
// failover happened.
//
// Both tiers authenticate independently: Config.TLS/AuthToken gate the
// client side exactly like a plain edbd, and Config.BackendTLS/BackendToken
// secure the gateway→backend hop, so a fleet can require mTLS internally
// while serving token-authenticated clients externally.
package cluster

import (
	"context"
	"crypto/subtle"
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

// Config parameterizes the gateway.
type Config struct {
	// Name identifies the gateway in client handshakes (default
	// "edbd-gateway").
	Name string
	// Backends is the initial backend address list; more can join at
	// runtime via AddBackend or wire Join frames.
	Backends []string
	// VNodes is the number of virtual ring points per backend (default 64).
	VNodes int
	// MaxConns bounds simultaneously open client connections (default 256).
	MaxConns int
	// IdleTimeout reaps clients idling between requests or sitting on a
	// prompt (default 2m), mirroring the backend behavior.
	IdleTimeout time.Duration
	// ReadTimeout bounds the client handshake read (default 10s).
	ReadTimeout time.Duration
	// WriteTimeout bounds each outbound frame write (default 10s).
	WriteTimeout time.Duration
	// BackendReadTimeout bounds the wait for each backend frame (default
	// 90s — above the longest permitted simulation).
	BackendReadTimeout time.Duration
	// DialTimeout bounds each backend dial (default 5s).
	DialTimeout time.Duration
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
	// ExploreShardStates overrides the frontier states per expand batch on
	// distributed explore runs (0 = the engine default). Smaller batches
	// pipeline waves across more backends at the cost of more round-trips.
	ExploreShardStates int
	// ExploreNetDelay injects a synthetic pause before every explore
	// executor round-trip — a benchmarking knob that models backend-link
	// latency on loopback fleets. Zero (the default) injects nothing.
	ExploreNetDelay time.Duration
	// Peer, when set, names the replica gateway this gateway streams its
	// fleet state to: backend join/leave, the template-image cache, and
	// per-session journals ride a FlagGossip connection so the peer can
	// resume every live session if this gateway dies. The peer dial
	// authenticates with AuthToken (the peer's client tier) and encrypts
	// with BackendTLS when set.
	Peer string
	// PeerRetry is the redial backoff after a failed or lost peer
	// connection (default 1s).
	PeerRetry time.Duration
	// PeerHeartbeat is the keepalive period on an idle peer stream; the
	// receiving side reaps a peer silent for several heartbeats (default 2s).
	PeerHeartbeat time.Duration
	// Logf, when set, receives one line per connection-level event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "edbd-gateway"
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 10 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.BackendReadTimeout <= 0 {
		c.BackendReadTimeout = 90 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
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
	if c.PeerRetry <= 0 {
		c.PeerRetry = time.Second
	}
	if c.PeerHeartbeat <= 0 {
		c.PeerHeartbeat = 2 * time.Second
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
	cfg Config
	c   counters
	lat latencyRing

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	backends map[string]*backendState
	ring     *hashRing
	draining bool

	// images caches warm-start template images observed in SessMigrate
	// frames (or gossiped by the peer gateway), keyed by scenario.SpecHash,
	// so a later failover of the same firmware family can ship a warm start
	// even if its own hand-off carried none. Entries are LRU-evicted past
	// imageCacheCap.
	imgMu    sync.Mutex
	images   map[uint64]*imageEntry
	imgClock int64

	// repl streams this gateway's fleet state to Config.Peer; nil when no
	// peer is configured (every hook then short-circuits).
	repl *replicator

	// replica mirrors the peer gateway's live sessions, applied from its
	// inbound gossip stream; a client that loses the peer and re-dials here
	// reclaims its session from this store.
	replicaMu sync.Mutex
	replica   map[uint64]*replSess

	sessSeq    atomic.Uint64
	stopHealth chan struct{}
	wg         sync.WaitGroup
}

// imageEntry is one cached template image plus its last-use stamp.
type imageEntry struct {
	data []byte
	use  int64
}

// imageCacheCap bounds the template-image cache; the least-recently-used
// entry is evicted beyond it (the cache is an optimization, not a
// correctness requirement — a resume without an image cold-replays
// byte-identically).
const imageCacheCap = 16

// New builds a gateway; zero-valued config fields take their defaults.
func New(cfg Config) *Gateway {
	g := &Gateway{
		cfg:        cfg.withDefaults(),
		conns:      make(map[net.Conn]struct{}),
		backends:   make(map[string]*backendState),
		images:     make(map[uint64]*imageEntry),
		replica:    make(map[uint64]*replSess),
		stopHealth: make(chan struct{}),
	}
	for _, a := range g.cfg.Backends {
		g.addBackendLocked(a)
	}
	g.rebuildRingLocked()
	if g.cfg.Peer != "" {
		g.repl = newReplicator(g)
	}
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
	g.ring = buildRing(addrs, g.cfg.VNodes)
}

// AddBackend registers a backend address at runtime (idempotent). The ring
// is rebuilt; existing sessions keep their placement. A Join for a backend
// this gateway believed dead proves a restart: the backend comes back up
// and its epoch advances, so per-session failure marks from its previous
// life stop blacklisting it.
func (g *Gateway) AddBackend(addr string) {
	g.addBackend(addr, true)
}

func (g *Gateway) addBackend(addr string, gossip bool) {
	g.mu.Lock()
	announce := false
	if _, ok := g.backends[addr]; !ok {
		g.addBackendLocked(addr)
		g.rebuildRingLocked()
		announce = true
		g.logf("backend %s: joined (%d backends)", addr, len(g.backends))
	} else if b := g.backends[addr]; b.down.Swap(false) {
		b.epoch.Add(1)
		announce = true
		g.logf("backend %s: re-joined; session blacklists cleared", addr)
	}
	g.mu.Unlock()
	if announce && gossip {
		g.replBackend(addr, true)
	}
}

// RemoveBackend drops a backend from the placement ring. Sessions in
// flight on it keep running until their leg ends; new placements skip it.
func (g *Gateway) RemoveBackend(addr string) {
	g.removeBackend(addr, true)
}

func (g *Gateway) removeBackend(addr string, gossip bool) {
	g.mu.Lock()
	_, ok := g.backends[addr]
	if ok {
		delete(g.backends, addr)
		g.rebuildRingLocked()
		g.logf("backend %s: left (%d backends)", addr, len(g.backends))
	}
	g.mu.Unlock()
	if ok && gossip {
		g.replBackend(addr, false)
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
	if g.repl != nil {
		g.wg.Add(1)
		go g.repl.loop()
	}

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
	if err := g.sendBackend(conn, &wire.Stat{}); err != nil {
		b.down.Store(true)
		return
	}
	m, err := g.recvBackend(conn, g.cfg.ReadTimeout)
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

type deadlineWriter struct {
	conn net.Conn
	d    time.Duration
}

// writeChunk bounds the bytes a deadlineWriter sends under one deadline
// arm. A whole wire frame can be ~1 MiB (a SessResume template image, a
// gossip snapshot); arming one absolute deadline for the full frame would
// cut off a slow-but-draining peer that simply needs longer than d in
// aggregate. Chunking re-arms per 64 KiB, so the deadline bounds *stall*,
// not total transfer time.
const writeChunk = 64 << 10

func (w *deadlineWriter) Write(p []byte) (int, error) {
	if len(p) <= writeChunk {
		w.conn.SetWriteDeadline(time.Now().Add(w.d))
		return w.conn.Write(p)
	}
	total := 0
	for len(p) > 0 {
		c := p
		if len(c) > writeChunk {
			c = c[:writeChunk]
		}
		w.conn.SetWriteDeadline(time.Now().Add(w.d))
		n, err := w.conn.Write(c)
		total += n
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	// Clear the last chunk's deadline: frames written after this one may
	// be preceded by arbitrary idle time, and a stale absolute deadline
	// would fail them spuriously (the PR 5 class of bug).
	w.conn.SetWriteDeadline(time.Time{})
	return total, nil
}

func (g *Gateway) send(conn net.Conn, m wire.Msg) error {
	return g.sendf(conn, m, 0)
}

func (g *Gateway) sendf(conn net.Conn, m wire.Msg, flags byte) error {
	return wire.WriteMsgFlags(&deadlineWriter{conn: conn, d: g.cfg.WriteTimeout}, m, flags)
}

func (g *Gateway) recvf(conn net.Conn, d time.Duration) (wire.Msg, byte, error) {
	conn.SetReadDeadline(time.Now().Add(d))
	return wire.ReadMsgFlags(conn)
}

func (g *Gateway) recv(conn net.Conn, d time.Duration) (wire.Msg, error) {
	m, _, err := g.recvf(conn, d)
	return m, err
}

func (g *Gateway) sendBackend(conn net.Conn, m wire.Msg) error {
	return g.send(conn, m)
}

func (g *Gateway) recvBackend(conn net.Conn, d time.Duration) (wire.Msg, error) {
	return g.recv(conn, d)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// dialRaw opens a TCP connection to an intra-fleet address (a backend or
// the peer gateway), wrapping it in BackendTLS when configured.
func (g *Gateway) dialRaw(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, g.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	if g.cfg.BackendTLS != nil {
		cfg := g.cfg.BackendTLS
		if cfg.ServerName == "" && !cfg.InsecureSkipVerify {
			if host, _, err := net.SplitHostPort(addr); err == nil {
				cfg = cfg.Clone()
				cfg.ServerName = host
			}
		}
		tc := tls.Client(conn, cfg)
		ctx, cancel := context.WithTimeout(context.Background(), g.cfg.DialTimeout)
		err := tc.HandshakeContext(ctx)
		cancel()
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("cluster: %s tls: %w", addr, err)
		}
		conn = tc
	}
	return conn, nil
}

// dialBackend opens an authenticated cluster connection to a backend,
// negotiating FlagCluster plus exactly the capabilities in caps
// (FlagTraceZ/FlagSnap for proxied sessions, whose byte stream is relayed
// verbatim and must match what the client negotiated with the gateway;
// FlagExplore for executor sessions). A backend that refuses any required
// bit is an error, not a downgrade.
func (g *Gateway) dialBackend(addr string, caps byte) (net.Conn, error) {
	conn, err := g.dialRaw(addr)
	if err != nil {
		return nil, err
	}
	want := (caps & (wire.FlagTraceZ | wire.FlagSnap | wire.FlagExplore)) | wire.FlagCluster
	hello := &wire.Hello{Version: wire.Version, Client: g.cfg.Name}
	offer := want
	if g.cfg.BackendToken != "" {
		offer |= wire.FlagAuth
		hello.Token = g.cfg.BackendToken
	}
	if err := g.sendf(conn, hello, offer); err != nil {
		conn.Close()
		return nil, err
	}
	m, flags, err := g.recvf(conn, g.cfg.ReadTimeout)
	if err != nil {
		conn.Close()
		return nil, err
	}
	switch w := m.(type) {
	case *wire.Welcome:
		if flags&want != want {
			conn.Close()
			return nil, fmt.Errorf("cluster: backend %s granted caps %#02x, need %#02x", addr, flags, want)
		}
		return conn, nil
	case *wire.Error:
		conn.Close()
		return nil, fmt.Errorf("cluster: backend %s: %w", addr, w)
	default:
		conn.Close()
		return nil, fmt.Errorf("cluster: backend %s: unexpected handshake reply %T", addr, m)
	}
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
		g.send(conn, &wire.Error{Code: wire.CodeBusy, Text: "connection limit reached"})
		return
	}

	if tc, ok := conn.(*tls.Conn); ok {
		ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ReadTimeout)
		err := tc.HandshakeContext(ctx)
		cancel()
		if err != nil {
			g.logf("conn %s: tls handshake failed: %v", conn.RemoteAddr(), err)
			return
		}
	}

	m, helloFlags, err := g.recvf(conn, g.cfg.ReadTimeout)
	if err != nil {
		return
	}
	hello, ok := m.(*wire.Hello)
	if !ok {
		g.send(conn, &wire.Error{Code: wire.CodeBadRequest, Text: "expected Hello"})
		return
	}
	if hello.Version != wire.Version {
		g.send(conn, &wire.Error{Code: wire.CodeVersion,
			Text: fmt.Sprintf("gateway speaks protocol version %d, client sent %d", wire.Version, hello.Version)})
		return
	}
	caps := helloFlags & wire.KnownCaps
	// The gateway serves no raw Explore frames on the client tier — the
	// console's `explore backends=N` rides the prompt relay instead — so the
	// capability is never granted to clients (and thus never demanded from
	// session backends on dispatch).
	caps &^= wire.FlagExplore
	offeredAuth := caps&wire.FlagAuth != 0
	caps &^= wire.FlagAuth
	switch {
	case offeredAuth && g.cfg.AuthToken != "":
		if subtle.ConstantTimeCompare([]byte(hello.Token), []byte(g.cfg.AuthToken)) != 1 {
			g.c.authFailures.Add(1)
			g.send(conn, &wire.Error{Code: wire.CodeAuth, Text: "authentication failed: bad token"})
			return
		}
		caps |= wire.FlagAuth
	case g.cfg.RequireAuth:
		g.c.authFailures.Add(1)
		g.send(conn, &wire.Error{Code: wire.CodeAuth, Text: "authentication required: offer FlagAuth with a token"})
		return
	}
	if err := g.sendf(conn, &wire.Welcome{Version: wire.Version, Server: g.cfg.Name}, caps); err != nil {
		return
	}
	cluster := caps&wire.FlagCluster != 0
	g.logf("conn %s: handshake ok (%s, caps %#02x)", conn.RemoteAddr(), hello.Client, caps)

	if caps&wire.FlagGossip != 0 {
		// A peer gateway's replication stream: nothing but Gossip frames
		// rides this connection from here on.
		g.servePeer(conn)
		return
	}

	for {
		m, err := g.recv(conn, g.cfg.IdleTimeout)
		if err != nil {
			if isTimeout(err) {
				g.send(conn, &wire.Error{Code: wire.CodeIdle, Text: "idle timeout: connection reaped"})
			}
			return
		}
		switch req := m.(type) {
		case *wire.Ping:
			if err := g.send(conn, &wire.Pong{Token: req.Token}); err != nil {
				return
			}
		case *wire.Stat:
			if !cluster {
				g.send(conn, &wire.Error{Code: wire.CodeBadRequest,
					Text: "cluster capability was not negotiated"})
				return
			}
			g.c.statProbes.Add(1)
			if err := g.send(conn, g.aggregateStat()); err != nil {
				return
			}
		case *wire.Join:
			if !cluster {
				g.send(conn, &wire.Error{Code: wire.CodeBadRequest,
					Text: "cluster capability was not negotiated"})
				return
			}
			if req.Addr == "" {
				g.send(conn, &wire.Error{Code: wire.CodeBadRequest, Text: "join with empty address"})
				return
			}
			g.c.joins.Add(1)
			g.AddBackend(req.Addr)
			// Ack with the aggregate view so the joiner sees the fleet it
			// joined.
			if err := g.send(conn, g.aggregateStat()); err != nil {
				return
			}
		case *wire.Run:
			sess := &sessState{spec: req.Spec, streamTrace: req.StreamTrace}
			if err := g.proxySession(conn, caps, sess); err != nil {
				return
			}
		case *wire.SessResume:
			// A reconnect-capable client resuming through the gateway (e.g.
			// after a gateway restart): seed the proxy state from the
			// client's own journal and route it like a fresh placement.
			if !cluster {
				g.send(conn, &wire.Error{Code: wire.CodeBadRequest,
					Text: "cluster capability was not negotiated"})
				return
			}
			if req.SpecHash != scenario.SpecHash(req.Spec) {
				g.send(conn, &wire.Error{Code: wire.CodeBadRequest,
					Text: "resume spec hash does not match its spec"})
				return
			}
			sess := &sessState{
				spec:         req.Spec,
				streamTrace:  req.StreamTrace,
				journal:      req.Journal,
				outputBytes:  req.SkipOutput,
				traceSamples: req.SkipTraceSamples,
				image:        req.Image,
				resumed:      true,
			}
			// If the peer gateway replicated this session to us before it
			// died, reclaim the replica: it confirms the hand-off (and
			// feeds the sessions-lost accounting) and can fill a warm-start
			// image the client doesn't carry.
			g.reclaimReplica(sess)
			if err := g.proxySession(conn, caps, sess); err != nil {
				return
			}
		default:
			g.send(conn, &wire.Error{Code: wire.CodeBadRequest,
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
// session to another backend mid-run: the session request, the prompt
// answers already relayed (the replay journal), and how many output bytes
// and trace samples the client already holds (the skip offsets).
type sessState struct {
	spec         scenario.Spec
	streamTrace  bool
	journal      []wire.JournalEntry
	outputBytes  uint64
	traceSamples uint64
	image        []byte
	resumed      bool // dispatch as SessResume instead of Run

	// id names this session on the replication stream; assigned by
	// replOpen, zero on non-replicated gateways.
	id uint64
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
	order := ring.order(scenario.SpecHash(sess.spec))
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
func (g *Gateway) dispatch(sess *sessState, caps byte) (net.Conn, *backendState, error) {
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
	var req wire.Msg
	if sess.resumed {
		if sess.image == nil {
			sess.image = g.cachedImage(scenario.SpecHash(sess.spec))
		}
		req = &wire.SessResume{
			Spec:             sess.spec,
			StreamTrace:      sess.streamTrace,
			SpecHash:         scenario.SpecHash(sess.spec),
			SkipOutput:       sess.outputBytes,
			SkipTraceSamples: sess.traceSamples,
			Journal:          sess.journal,
			Image:            sess.image,
		}
		g.c.migrateBytes.Add(int64(len(sess.image)))
	} else {
		req = &wire.Run{Spec: sess.spec, StreamTrace: sess.streamTrace}
	}
	if err := g.sendBackend(conn, req); err != nil {
		conn.Close()
		g.markFailed(sess, b.addr)
		return nil, nil, err
	}
	if sess.resumed {
		sess.image = nil // delivered; don't re-ship on a later re-dispatch
	}
	if !sess.redispatchStart.IsZero() {
		g.lat.record(time.Since(sess.redispatchStart))
		sess.redispatchStart = time.Time{}
	}
	b.inflight.Add(1)
	b.total.Add(1)
	return conn, b, nil
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

func (g *Gateway) cachedImage(specHash uint64) []byte {
	g.imgMu.Lock()
	defer g.imgMu.Unlock()
	e := g.images[specHash]
	if e == nil {
		return nil
	}
	g.imgClock++
	e.use = g.imgClock
	return e.data
}

// cacheImage stores a template image, LRU-evicting beyond imageCacheCap,
// and gossips new entries to the peer gateway.
func (g *Gateway) cacheImage(specHash uint64, img []byte) {
	g.storeImage(specHash, img, true)
}

func (g *Gateway) storeImage(specHash uint64, img []byte, gossip bool) {
	if len(img) == 0 {
		return
	}
	g.imgMu.Lock()
	e, ok := g.images[specHash]
	if !ok {
		if len(g.images) >= imageCacheCap {
			var lruKey uint64
			var lru *imageEntry
			for k, v := range g.images {
				if lru == nil || v.use < lru.use {
					lruKey, lru = k, v
				}
			}
			delete(g.images, lruKey)
			g.c.imageEvictions.Add(1)
		}
		e = &imageEntry{}
		g.images[specHash] = e
	}
	e.data = img
	g.imgClock++
	e.use = g.imgClock
	g.imgMu.Unlock()
	if !ok && gossip {
		g.replImage(specHash, img)
	}
}

// proxySession relays one session between the client and a backend,
// re-dispatching on SessMigrate hand-offs and backend connection loss. It
// returns nil when the session concluded and the client connection may
// serve another request, or an error when the client connection itself is
// no longer usable.
func (g *Gateway) proxySession(clientConn net.Conn, caps byte, sess *sessState) error {
	g.c.sessionsTotal.Add(1)
	g.c.sessionsActive.Add(1)
	defer g.c.sessionsActive.Add(-1)
	g.replOpen(sess)
	defer g.replClose(sess)

	var lastErr error
	for attempt := 0; attempt < g.cfg.MaxDispatches; attempt++ {
		bconn, b, err := g.dispatch(sess, caps)
		if err != nil {
			lastErr = err
			g.logf("session %s: dispatch failed (attempt %d): %v", clientConn.RemoteAddr(), attempt+1, err)
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
		done, err := g.pump(clientConn, bconn, b, sess, free)
		bconn.Close()
		free()
		if done {
			return err
		}
		// The backend was lost or handed the session away; re-dispatch.
		lastErr = err
		sess.resumed = true
	}
	err := fmt.Errorf("cluster: session failed after %d dispatch attempts: %v", g.cfg.MaxDispatches, lastErr)
	g.logf("session %s: %v", clientConn.RemoteAddr(), err)
	g.send(clientConn, &wire.Error{Code: wire.CodeRunFailed, Text: err.Error()})
	return err
}

// pump relays frames for one backend leg of a session. It returns
// done=true when the session is over (cleanly, or because the *client*
// side failed — err non-nil then), and done=false when the session should
// be re-dispatched to another backend (hand-off or backend failure). free
// gives back the leg's slot on b; pump calls it before relaying a frame
// with which the backend ended the session.
func (g *Gateway) pump(clientConn, bconn net.Conn, b *backendState, sess *sessState, free func()) (done bool, err error) {
	for {
		m, rerr := g.recvBackend(bconn, g.cfg.BackendReadTimeout)
		if rerr != nil {
			g.noteLeave(sess, b, true, rerr.Error())
			return false, rerr
		}
		switch t := m.(type) {
		case *wire.Output:
			sess.outputBytes += uint64(len(t.Data))
			g.c.bytesRelayed.Add(int64(len(t.Data)))
			g.c.framesRelayed.Add(1)
			if err := g.send(clientConn, t); err != nil {
				return true, err
			}
		case *wire.Trace:
			sess.traceSamples += uint64(len(t.Samples))
			g.c.framesRelayed.Add(1)
			if err := g.send(clientConn, t); err != nil {
				return true, err
			}
		case *wire.TraceZ:
			sess.traceSamples += uint64(t.Count)
			g.c.framesRelayed.Add(1)
			if err := g.send(clientConn, t); err != nil {
				return true, err
			}
		case *wire.Prompt:
			g.c.framesRelayed.Add(1)
			if err := g.send(clientConn, t); err != nil {
				return true, err
			}
			// The backend's prompt may be answered by several client commands
			// when the gateway intercepts distributed-exploration lines: each
			// intercepted line is served by the gateway (which re-prompts),
			// and only the first non-intercepted answer reaches the backend.
			for {
				am, aerr := g.recv(clientConn, g.cfg.IdleTimeout)
				if aerr != nil {
					if isTimeout(aerr) {
						g.send(clientConn, &wire.Error{Code: wire.CodeIdle, Text: "idle timeout: session reaped"})
					}
					return true, aerr
				}
				var entry wire.JournalEntry
				switch a := am.(type) {
				case *wire.Command:
					if a.EOF {
						entry = wire.JournalEntry{Kind: wire.JournalEOF}
					} else {
						if handled, herr := g.interceptExplore(clientConn, sess, a.Line); handled {
							if herr != nil {
								return true, herr
							}
							continue
						}
						entry = wire.JournalEntry{Kind: wire.JournalLine, Line: a.Line}
					}
				case *wire.SnapSave:
					entry = wire.JournalEntry{Kind: wire.JournalSnapSave}
				case *wire.SnapRestore:
					entry = wire.JournalEntry{Kind: wire.JournalSnapRestore}
				default:
					err := fmt.Errorf("cluster: unexpected prompt answer %T", am)
					g.send(clientConn, &wire.Error{Code: wire.CodeBadRequest, Text: err.Error()})
					return true, err
				}
				// Journal before forwarding: if the backend dies taking this
				// answer, the replay serves it instead of re-asking the client.
				// The replication hook rides the same ordering, so the peer's
				// copy is never ahead of what the client was asked.
				sess.journal = append(sess.journal, entry)
				g.replAppend(sess)
				g.c.answersRelayed.Add(1)
				if werr := g.send(bconn, am); werr != nil {
					g.noteLeave(sess, b, true, werr.Error())
					return false, werr
				}
				break
			}
		case *wire.SessMigrate:
			// The backend is draining: it already flushed everything the
			// client is owed, so the journal + offsets resume elsewhere.
			g.cacheImage(t.SpecHash, t.Image)
			if len(t.Image) > 0 {
				sess.image = t.Image
			}
			g.noteLeave(sess, b, false, "drain hand-off")
			return false, nil
		case *wire.Done:
			g.c.framesRelayed.Add(1)
			free()
			if err := g.send(clientConn, t); err != nil {
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
			free()
			g.send(clientConn, t)
			return true, t
		default:
			err := fmt.Errorf("cluster: unexpected backend frame %T", m)
			g.send(clientConn, &wire.Error{Code: wire.CodeRunFailed, Text: err.Error()})
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
	return sess.outputBytes == 0 && sess.traceSamples == 0 && len(sess.journal) == 0
}
