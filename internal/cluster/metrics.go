package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// counters is the gateway's hot-path instrumentation; atomics only, so
// session-proxy goroutines never contend on a lock to count.
type counters struct {
	connsTotal    atomic.Int64
	connsOpen     atomic.Int64
	connsRejected atomic.Int64

	sessionsTotal  atomic.Int64
	sessionsActive atomic.Int64

	dispatches      atomic.Int64
	failovers       atomic.Int64
	migrations      atomic.Int64
	placementMisses atomic.Int64
	dialErrors      atomic.Int64
	migrateBytes    atomic.Int64

	framesRelayed  atomic.Int64
	bytesRelayed   atomic.Int64
	answersRelayed atomic.Int64

	statProbes   atomic.Int64
	joins        atomic.Int64
	authFailures atomic.Int64

	imageEvictions atomic.Int64

	gossipConnects   atomic.Int64
	gossipDialErrors atomic.Int64
	gossipOverflows  atomic.Int64
	gossipFramesOut  atomic.Int64
	gossipFramesIn   atomic.Int64
	replicaReclaims  atomic.Int64
}

// BackendMetrics is one backend's view in a metrics snapshot.
type BackendMetrics struct {
	Addr        string
	Inflight    int64 // sessions this gateway currently has placed there
	Total       int64 // sessions ever dispatched there by this gateway
	MaxSessions int64 // backend-reported capacity (from Stat probes)
	Down        bool  // last probe or dial failed
	Draining    bool  // backend announced a drain (probe or SessMigrate)
}

// Metrics is a point-in-time snapshot of the gateway's counters; it
// marshals cleanly through expvar.Func.
type Metrics struct {
	ConnsTotal    int64 // client connections accepted since start
	ConnsOpen     int64 // client connections currently open
	ConnsRejected int64 // client connections refused by MaxConns

	SessionsTotal  int64 // proxied sessions started since start
	SessionsActive int64 // proxied sessions currently live

	Dispatches      int64 // backend dispatch attempts (first placements + re-dispatches)
	Failovers       int64 // re-dispatches after a backend connection died
	Migrations      int64 // re-dispatches after a SessMigrate hand-off
	PlacementMisses int64 // ring-preferred backends skipped for load or drain
	DialErrors      int64 // backend dials that failed
	MigrateBytes    int64 // template-image bytes carried across re-dispatches

	FramesRelayed  int64 // backend frames forwarded to clients
	BytesRelayed   int64 // session output bytes forwarded to clients
	AnswersRelayed int64 // prompt answers journaled and forwarded to backends

	StatProbes   int64 // Stat requests answered on the client tier
	Joins        int64 // Join registrations accepted
	AuthFailures int64 // client handshakes rejected with Error{CodeAuth}

	ImageEvictions int64 // template images LRU-evicted from the cache

	// Gateway-replication counters (all zero without Config.Peer and with
	// no peer streaming in).
	GossipConnects   int64 // outbound peer connections established
	GossipDialErrors int64 // outbound peer dials that failed
	GossipOverflows  int64 // peer connections dropped for outbound backlog
	GossipFramesOut  int64 // gossip frames streamed to the peer
	GossipFramesIn   int64 // gossip frames applied from the peer
	ReplicaSessions  int64 // peer sessions currently mirrored here
	ReplicaReclaims  int64 // client resumes matched to a mirrored peer session

	// Migration-latency distribution: wall time from deciding to move a
	// session (hand-off frame or dead connection) to its SessResume being
	// accepted by the destination backend.
	MigrationCount int64
	MigrationP50   time.Duration
	MigrationP99   time.Duration

	Backends []BackendMetrics
}

// latencyRing records migration latencies in a fixed window so quantiles
// stay O(window) regardless of uptime.
type latencyRing struct {
	mu  sync.Mutex
	buf [512]time.Duration
	n   int64 // total recorded; buf index wraps
}

func (l *latencyRing) record(d time.Duration) {
	l.mu.Lock()
	l.buf[l.n%int64(len(l.buf))] = d
	l.n++
	l.mu.Unlock()
}

// quantiles returns the count plus p50/p99 over the recorded window.
func (l *latencyRing) quantiles() (n int64, p50, p99 time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return 0, 0, 0
	}
	window := int(l.n)
	if window > len(l.buf) {
		window = len(l.buf)
	}
	s := make([]time.Duration, window)
	copy(s, l.buf[:window])
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := func(q float64) time.Duration {
		i := int(q * float64(window-1))
		return s[i]
	}
	return l.n, idx(0.50), idx(0.99)
}

// Metrics returns a snapshot of the gateway's counters and per-backend
// state.
func (g *Gateway) Metrics() Metrics {
	m := Metrics{
		ConnsTotal:    g.c.connsTotal.Load(),
		ConnsOpen:     g.c.connsOpen.Load(),
		ConnsRejected: g.c.connsRejected.Load(),

		SessionsTotal:  g.c.sessionsTotal.Load(),
		SessionsActive: g.c.sessionsActive.Load(),

		Dispatches:      g.c.dispatches.Load(),
		Failovers:       g.c.failovers.Load(),
		Migrations:      g.c.migrations.Load(),
		PlacementMisses: g.c.placementMisses.Load(),
		DialErrors:      g.c.dialErrors.Load(),
		MigrateBytes:    g.c.migrateBytes.Load(),

		FramesRelayed:  g.c.framesRelayed.Load(),
		BytesRelayed:   g.c.bytesRelayed.Load(),
		AnswersRelayed: g.c.answersRelayed.Load(),

		StatProbes:   g.c.statProbes.Load(),
		Joins:        g.c.joins.Load(),
		AuthFailures: g.c.authFailures.Load(),

		ImageEvictions: g.c.imageEvictions.Load(),

		GossipConnects:   g.c.gossipConnects.Load(),
		GossipDialErrors: g.c.gossipDialErrors.Load(),
		GossipOverflows:  g.c.gossipOverflows.Load(),
		GossipFramesOut:  g.c.gossipFramesOut.Load(),
		GossipFramesIn:   g.c.gossipFramesIn.Load(),
		ReplicaReclaims:  g.c.replicaReclaims.Load(),
	}
	g.replicaMu.Lock()
	m.ReplicaSessions = int64(len(g.replica))
	g.replicaMu.Unlock()
	m.MigrationCount, m.MigrationP50, m.MigrationP99 = g.lat.quantiles()

	g.mu.Lock()
	addrs := make([]string, 0, len(g.backends))
	for a := range g.backends {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	for _, a := range addrs {
		b := g.backends[a]
		m.Backends = append(m.Backends, BackendMetrics{
			Addr:        a,
			Inflight:    b.inflight.Load(),
			Total:       b.total.Load(),
			MaxSessions: b.maxSessions.Load(),
			Down:        b.down.Load(),
			Draining:    b.draining.Load(),
		})
	}
	g.mu.Unlock()
	return m
}
