package server

import (
	"sync/atomic"

	"repro/internal/wire"
)

// counters is the server's hot-path instrumentation; every field is an
// atomic so session goroutines never contend on a lock to count.
type counters struct {
	connsOpen        atomic.Int64
	connsTotal       atomic.Int64
	connsRejected    atomic.Int64
	sessionsOpen     atomic.Int64
	sessionsTotal    atomic.Int64
	sessionsRejected atomic.Int64
	commandsServed   atomic.Int64
	bytesStreamed    atomic.Int64
	simCycles        atomic.Int64
	scriptErrors     atomic.Int64
	idleReaped       atomic.Int64
	traceBytes       atomic.Int64
	traceSamples     atomic.Int64

	sessionsMigrated   atomic.Int64
	sessionsResumed    atomic.Int64
	resumeSkippedBytes atomic.Int64
	statProbes         atomic.Int64
}

// Metrics is a point-in-time snapshot of the daemon's counters; it
// marshals cleanly through expvar.Func for the /debug/vars endpoint.
type Metrics struct {
	ConnsOpen        int64 // connections currently open
	ConnsTotal       int64 // connections accepted since start
	ConnsRejected    int64 // connections refused by the MaxConns limit
	SessionsOpen     int64 // scenario sessions currently running
	SessionsTotal    int64 // sessions served since start
	SessionsRejected int64 // sessions refused by the MaxSessions limit
	CommandsServed   int64 // console commands executed across all sessions
	BytesStreamed    int64 // output bytes framed back to clients
	SimCycles        int64 // simulated target cycles executed
	ScriptErrors     int64 // scripted console commands that returned errors
	IdleReaped       int64 // sessions closed by the idle timeout
	TraceBytes       int64 // TraceZ frame bytes sent to clients
	TraceSamples     int64 // trace samples streamed to clients

	wire.HandshakeMetrics // auth, TLS and unknown-capability handshake counters

	// Cluster counters (all zero off-cluster).
	SessionsMigrated   int64 // sessions handed off to a peer during a drain
	SessionsResumed    int64 // migrated sessions replayed to their live point here
	ResumeSkippedBytes int64 // replayed output bytes suppressed because the peer had them
	StatProbes         int64 // load/drain probes answered

	// Warm-start pool counters (scenario.PoolMetrics).
	WarmForks      int64 // sessions served by forking a pre-warmed template
	ColdBoots      int64 // sessions simulated from cycle 0
	TemplatesBuilt int64 // firmware templates recorded during cold sessions
	Evictions      int64 // templates let go: pushed out of the pool's budget, or too big to keep
	TemplateBytes  int64 // bytes the held templates pin, at most the pool's 64 MiB budget
	// SparePops is always zero: the pool keeps no pre-forked rigs. It
	// stays because the benchmark harness (perfbench) still reads it.
	SparePops int64
}

// Metrics returns a snapshot of the server's counters.
func (s *Server) Metrics() Metrics {
	pm := s.pool.Metrics()
	return Metrics{
		ConnsOpen:        s.c.connsOpen.Load(),
		ConnsTotal:       s.c.connsTotal.Load(),
		ConnsRejected:    s.c.connsRejected.Load(),
		SessionsOpen:     s.c.sessionsOpen.Load(),
		SessionsTotal:    s.c.sessionsTotal.Load(),
		SessionsRejected: s.c.sessionsRejected.Load(),
		CommandsServed:   s.c.commandsServed.Load(),
		BytesStreamed:    s.c.bytesStreamed.Load(),
		SimCycles:        s.c.simCycles.Load(),
		ScriptErrors:     s.c.scriptErrors.Load(),
		IdleReaped:       s.c.idleReaped.Load(),
		TraceBytes:       s.c.traceBytes.Load(),
		TraceSamples:     s.c.traceSamples.Load(),

		HandshakeMetrics: s.hs.Metrics(),

		SessionsMigrated:   s.c.sessionsMigrated.Load(),
		SessionsResumed:    s.c.sessionsResumed.Load(),
		ResumeSkippedBytes: s.c.resumeSkippedBytes.Load(),
		StatProbes:         s.c.statProbes.Load(),

		WarmForks:      int64(pm.WarmForks),
		ColdBoots:      int64(pm.ColdBoots),
		TemplatesBuilt: int64(pm.TemplatesBuilt),
		Evictions:      int64(pm.Evictions),
		TemplateBytes:  pm.TemplateBytes,
	}
}
