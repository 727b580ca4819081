package server

import "sync/atomic"

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

	authHandshakes       atomic.Int64
	authFailures         atomic.Int64
	tlsHandshakeFailures atomic.Int64
	unknownCapHellos     atomic.Int64

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
	TraceBytes       int64 // trace-stream frame bytes (raw or compressed) sent to clients
	TraceSamples     int64 // trace samples streamed to clients

	AuthHandshakes       int64 // handshakes that authenticated with a valid token
	AuthFailures         int64 // handshakes rejected with Error{CodeAuth}
	TLSHandshakeFailures int64 // TLS handshakes that never reached the protocol
	UnknownCapHellos     int64 // Hellos advertising capability bits this build ignores

	// Cluster counters (all zero off-cluster).
	SessionsMigrated   int64 // sessions handed off to a peer during a drain
	SessionsResumed    int64 // migrated sessions replayed to their live point here
	ResumeSkippedBytes int64 // replayed output bytes suppressed because the peer had them
	StatProbes         int64 // load/drain probes answered

	// Warm-start pool counters (all zero when pooling is disabled).
	WarmForks      int64 // sessions served by forking a pre-warmed template
	ColdBoots      int64 // sessions simulated from cycle 0
	TemplatesBuilt int64 // firmware templates recorded during cold sessions
	Untemplatable  int64 // spec families the pool gave up templating
	// SparePops is always zero: the pool keeps no pre-forked rigs. It
	// stays because the benchmark harness (perfbench) still reads it.
	SparePops int64
}

// Metrics returns a snapshot of the server's counters.
func (s *Server) Metrics() Metrics {
	m := Metrics{
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

		AuthHandshakes:       s.c.authHandshakes.Load(),
		AuthFailures:         s.c.authFailures.Load(),
		TLSHandshakeFailures: s.c.tlsHandshakeFailures.Load(),
		UnknownCapHellos:     s.c.unknownCapHellos.Load(),

		SessionsMigrated:   s.c.sessionsMigrated.Load(),
		SessionsResumed:    s.c.sessionsResumed.Load(),
		ResumeSkippedBytes: s.c.resumeSkippedBytes.Load(),
		StatProbes:         s.c.statProbes.Load(),
	}
	if s.pool != nil {
		pm := s.pool.Metrics()
		m.WarmForks = int64(pm.WarmForks)
		m.ColdBoots = int64(pm.ColdBoots)
		m.TemplatesBuilt = int64(pm.TemplatesBuilt)
		m.Untemplatable = int64(pm.Untemplatable)
	}
	return m
}
