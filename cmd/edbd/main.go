// Command edbd is the networked debug daemon: it hosts a fleet of
// independent simulated target+EDB rigs behind the internal/wire protocol
// so many edb clients (or the internal/client library) can debug many
// independent targets concurrently.
//
//	edbd -addr 127.0.0.1:3490 -metrics 127.0.0.1:3491
//
// For anything beyond loopback use, secure the listener: -tls-cert/-tls-key
// serve TLS (generate a keypair with `go run ./scripts/gencert`),
// -tls-client-ca additionally requires and verifies client certificates
// (mTLS), and the EDBD_AUTH_TOKEN environment variable arms token
// authentication — with -require-auth, token-less clients are rejected
// outright:
//
//	EDBD_AUTH_TOKEN=s3cret edbd -tls-cert cert.pem -tls-key key.pem -require-auth
//
// Tokens are read from the environment only, never from flags: the
// command line is public, on the host and on the -metrics pages.
//
// # Cluster mode
//
// -gateway turns the process into a session router instead of a backend:
// it terminates client connections and places each debugging session on
// one of the backends listed in -backends (or registered at runtime via
// Join frames), keyed by the session spec's firmware family so warm-start
// templates stay hot. Draining backends hand their live sessions back with
// SessMigrate frames and the gateway resumes them elsewhere from its
// journal — clients never notice.
//
//	edbd -gateway -backends 10.0.0.1:3490,10.0.0.2:3490
//
// A backend started with -join registers itself with a gateway and
// re-registers periodically as a heartbeat; -advertise overrides the
// address it registers (defaults to -addr). -join takes several gateway
// addresses (comma-separated) and the heartbeat fans out to each:
//
//	edbd -addr 10.0.0.3:3490 -join 10.0.0.100:3490,10.0.0.101:3490 -advertise 10.0.0.3:3490
//
// Two gateways in front of the same backends share no state, yet either
// one can take over the other's live sessions: clients dial both
// (edb -connect gw1:3490,gw2:3490) and, if their gateway dies, resume on
// the other from their own journal, byte-identically:
//
//	edbd -gateway -addr 10.0.0.100:3490
//	edbd -gateway -addr 10.0.0.101:3490
//
// The gateway→backend hop can be secured independently of the client tier:
// the EDBD_BACKEND_TOKEN environment variable authenticates the gateway to
// its backends (and a -join backend to its gateways), and -backend-tls-ca
// (plus -backend-tls-cert/-backend-tls-key for mTLS) encrypts the hop.
//
// A backend forks each session from its spec family's template, recorded
// by the family's first session, and keeps at most 64 MiB of templates,
// least recently used out first. Output is the same as a cold run's.
//
// The -metrics listener serves Go's expvar page at /debug/vars — an "edbd"
// map for a backend (sessions, commands, bytes, migration counters, pool
// counters) or an "edbd_gateway" map for a gateway (per-backend
// session counts, migrations and failovers, migration latency p50/p99,
// placement misses) — and Go's net/http/pprof profiler at /debug/pprof/,
// both without authentication, so bind it to a trusted address:
//
//	edbd -metrics 127.0.0.1:3491 &
//	go tool pprof http://127.0.0.1:3491/debug/pprof/profile?seconds=10
//
// SIGINT/SIGTERM starts a graceful drain: the listener closes, in-flight
// sessions finish — on a cluster backend they migrate out — bounded by
// -drain, and the process exits 0 on a clean drain.
package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"expvar"
	"flag"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/wire"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:3490", "listen address for the debug protocol")
		metricsAddr = flag.String("metrics", "", "optional listen address serving the expvar metrics (/debug/vars) and the pprof profiler (/debug/pprof/), unauthenticated")
		name        = flag.String("name", "", "server name reported in the handshake (default edbd, or edbd-gateway with -gateway)")
		maxConns    = flag.Int("max-conns", 256, "maximum simultaneous client connections")
		maxSessions = flag.Int("max-sessions", 128, "maximum simultaneous debug sessions")
		maxSimSecs  = flag.Float64("max-sim-seconds", 300, "maximum simulated duration per session")
		idle        = flag.Duration("idle", 2*time.Minute, "idle timeout before a quiet connection or session is reaped")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-drain budget after SIGTERM")
		noCluster   = flag.Bool("no-cluster", false, "refuse the cluster capability; no migration, no Stat probes")
		verbose     = flag.Bool("v", false, "log per-connection events")
		tlsCert     = flag.String("tls-cert", "", "PEM certificate; serve TLS (requires -tls-key)")
		tlsKey      = flag.String("tls-key", "", "PEM private key for -tls-cert")
		tlsClientCA = flag.String("tls-client-ca", "", "PEM CA bundle; require and verify client certificates against it (mTLS, requires -tls-cert)")
		requireAuth = flag.Bool("require-auth", false, "reject clients that do not authenticate with the $EDBD_AUTH_TOKEN token")

		// Cluster topology.
		gateway        = flag.Bool("gateway", false, "run as a gateway: route sessions to -backends instead of simulating locally")
		backends       = flag.String("backends", "", "comma-separated backend addresses for -gateway")
		joinAddr       = flag.String("join", "", "gateway address(es) this backend registers itself with, comma-separated (heartbeat re-registration)")
		advertise      = flag.String("advertise", "", "address to advertise when joining a gateway (default -addr)")
		joinEvery      = flag.Duration("join-every", 10*time.Second, "re-registration period for -join")
		backendTLSCA   = flag.String("backend-tls-ca", "", "PEM CA bundle; dial backends (or the -join gateway) over TLS verified against it")
		backendTLSCert = flag.String("backend-tls-cert", "", "PEM client certificate for the backend hop (mTLS, requires -backend-tls-key)")
		backendTLSKey  = flag.String("backend-tls-key", "", "PEM private key for -backend-tls-cert")
	)
	flag.Parse()
	// The tokens come from the environment, not flags: expvar's cmdline
	// and /debug/pprof/cmdline publish the command line on -metrics.
	authToken := os.Getenv("EDBD_AUTH_TOKEN")
	backendToken := os.Getenv("EDBD_BACKEND_TOKEN")

	if *requireAuth && authToken == "" {
		log.Fatal("edbd: -require-auth needs a token in EDBD_AUTH_TOKEN")
	}
	listenTLS := loadListenerTLS(*tlsCert, *tlsKey, *tlsClientCA)
	backendTLS := loadBackendTLS(*backendTLSCA, *backendTLSCert, *backendTLSKey)

	if *gateway {
		if *joinAddr != "" {
			log.Fatal("edbd: -join is for backends; a gateway takes -backends")
		}
		runGateway(gatewayArgs{
			addr: *addr, metricsAddr: *metricsAddr,
			name: *name, backends: *backends, maxConns: *maxConns,
			idle: *idle, drain: *drain, verbose: *verbose,
			tls: listenTLS, authToken: authToken, requireAuth: *requireAuth,
			backendTLS: backendTLS, backendToken: backendToken,
		})
		return
	}

	cfg := server.Config{
		Name:           *name,
		MaxConns:       *maxConns,
		MaxSessions:    *maxSessions,
		MaxSimSeconds:  *maxSimSecs,
		IdleTimeout:    *idle,
		DisableCluster: *noCluster,
		TLS:            listenTLS,
		AuthToken:      authToken,
		RequireAuth:    *requireAuth,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	srv := server.New(cfg)

	expvar.Publish("edbd", expvar.Func(func() any { return srv.Metrics() }))
	serveHTTP(*metricsAddr)

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("edbd: %v", err)
	}
	log.Printf("edbd: listening on %s (%s)", lis.Addr(), securityMode(cfg.TLS, cfg.AuthToken))

	if *joinAddr != "" {
		adv := *advertise
		if adv == "" {
			adv = lis.Addr().String()
		}
		d := &wire.Dialer{Timeout: joinTimeout, TLS: backendTLS, Name: "edbd-join", Token: backendToken}
		// One heartbeat loop per gateway: each gateway of a pair learns the
		// fleet first-hand, so either can place sessions here.
		for _, gw := range strings.Split(*joinAddr, ",") {
			if gw = strings.TrimSpace(gw); gw != "" {
				go joinLoop(d, gw, adv, *joinEvery)
			}
		}
	}

	drained := make(chan error, 1)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		log.Printf("edbd: %s received; draining (budget %s)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		drained <- srv.Shutdown(ctx)
	}()

	if err := srv.Serve(lis); !errors.Is(err, server.ErrServerClosed) {
		log.Fatalf("edbd: serve: %v", err)
	}
	if err := <-drained; err != nil {
		log.Fatalf("edbd: drain incomplete: %v", err)
	}
	log.Printf("edbd: drained cleanly")
}

type gatewayArgs struct {
	addr, metricsAddr string
	name, backends    string
	maxConns          int
	idle, drain       time.Duration
	verbose           bool
	tls               *tls.Config
	authToken         string
	requireAuth       bool
	backendTLS        *tls.Config
	backendToken      string
}

func runGateway(a gatewayArgs) {
	var addrs []string
	for _, b := range strings.Split(a.backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			addrs = append(addrs, b)
		}
	}
	cfg := cluster.Config{
		Name:         a.name,
		Backends:     addrs,
		MaxConns:     a.maxConns,
		IdleTimeout:  a.idle,
		TLS:          a.tls,
		AuthToken:    a.authToken,
		RequireAuth:  a.requireAuth,
		BackendTLS:   a.backendTLS,
		BackendToken: a.backendToken,
	}
	if a.verbose {
		cfg.Logf = log.Printf
	}
	gw := cluster.New(cfg)

	expvar.Publish("edbd_gateway", expvar.Func(func() any { return gw.Metrics() }))
	serveHTTP(a.metricsAddr)

	lis, err := net.Listen("tcp", a.addr)
	if err != nil {
		log.Fatalf("edbd: %v", err)
	}
	log.Printf("edbd: gateway listening on %s (%s, %d backends)",
		lis.Addr(), securityMode(a.tls, a.authToken), len(addrs))

	drained := make(chan error, 1)
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		log.Printf("edbd: %s received; stopping gateway (budget %s)", sig, a.drain)
		ctx, cancel := context.WithTimeout(context.Background(), a.drain)
		defer cancel()
		drained <- gw.Shutdown(ctx)
	}()

	if err := gw.Serve(lis); !errors.Is(err, cluster.ErrGatewayClosed) {
		log.Fatalf("edbd: gateway serve: %v", err)
	}
	if err := <-drained; err != nil {
		log.Fatalf("edbd: gateway stop incomplete: %v", err)
	}
	log.Printf("edbd: gateway stopped cleanly")
}

// joinTimeout bounds a Join's dial and handshake, and then each frame of
// the registration.
const joinTimeout = 10 * time.Second

// joinLoop registers this backend with a gateway and re-registers every
// period as a liveness heartbeat, logging only on state changes so a down
// gateway does not flood the log.
func joinLoop(d *wire.Dialer, gateway, advertise string, every time.Duration) {
	ok := false
	for {
		err := joinOnce(d, gateway, advertise)
		switch {
		case err == nil && !ok:
			log.Printf("edbd: registered with gateway %s as %s", gateway, advertise)
			ok = true
		case err != nil && ok:
			log.Printf("edbd: gateway %s registration failed: %v", gateway, err)
			ok = false
		}
		time.Sleep(every)
	}
}

func joinOnce(d *wire.Dialer, gateway, advertise string) error {
	conn, _, granted, err := d.Dial(context.Background(), gateway, wire.FlagCluster)
	if err != nil {
		return err
	}
	defer conn.Close()
	if granted&wire.FlagCluster == 0 {
		return errors.New("gateway did not grant the cluster capability")
	}
	if err := wire.SendMsg(conn, &wire.Join{Addr: advertise}, 0, joinTimeout); err != nil {
		return err
	}
	m, _, err := wire.RecvMsg(conn, joinTimeout)
	if err != nil {
		return err
	}
	if e, ok := m.(*wire.Error); ok {
		return e
	}
	return nil
}

// loadListenerTLS builds the serving TLS config from -tls-cert/-tls-key
// and the optional mTLS client CA. Returns nil when TLS is off.
func loadListenerTLS(cert, key, clientCA string) *tls.Config {
	if (key == "") != (cert == "") {
		log.Fatal("edbd: -tls-cert and -tls-key must be set together")
	}
	if clientCA != "" && cert == "" {
		log.Fatal("edbd: -tls-client-ca needs -tls-cert/-tls-key")
	}
	if cert == "" {
		return nil
	}
	pair, err := tls.LoadX509KeyPair(cert, key)
	if err != nil {
		log.Fatalf("edbd: load TLS keypair: %v", err)
	}
	cfg := &tls.Config{Certificates: []tls.Certificate{pair}}
	if clientCA != "" {
		pemCA, err := os.ReadFile(clientCA)
		if err != nil {
			log.Fatalf("edbd: read client CA: %v", err)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pemCA) {
			log.Fatalf("edbd: no certificates in %s", clientCA)
		}
		cfg.ClientCAs = pool
		cfg.ClientAuth = tls.RequireAndVerifyClientCert
	}
	return cfg
}

// loadBackendTLS builds the dialing TLS config for the gateway→backend hop
// (and for -join): a CA to verify the peer, plus an optional client
// keypair for mTLS. Returns nil when the hop is plaintext.
func loadBackendTLS(ca, cert, key string) *tls.Config {
	if (key == "") != (cert == "") {
		log.Fatal("edbd: -backend-tls-cert and -backend-tls-key must be set together")
	}
	if ca == "" && cert == "" {
		return nil
	}
	cfg := &tls.Config{}
	if ca != "" {
		pemCA, err := os.ReadFile(ca)
		if err != nil {
			log.Fatalf("edbd: read backend CA: %v", err)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pemCA) {
			log.Fatalf("edbd: no certificates in %s", ca)
		}
		cfg.RootCAs = pool
	}
	if cert != "" {
		pair, err := tls.LoadX509KeyPair(cert, key)
		if err != nil {
			log.Fatalf("edbd: load backend TLS keypair: %v", err)
		}
		cfg.Certificates = []tls.Certificate{pair}
	}
	return cfg
}

// serveHTTP serves the default mux on addr, when one is given. expvar
// registers /debug/vars there and net/http/pprof /debug/pprof/, so this
// one listener serves both, without authentication. It logs the bound
// address, which names the port when addr asks for any (":0"). An address
// it cannot bind ends the start with exit 1, before the daemon listens:
// a daemon asked for an endpoint must not run without it.
func serveHTTP(addr string) {
	if addr == "" {
		return
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("edbd: metrics endpoint: %v", err)
	}
	log.Printf("edbd: metrics and profiler at http://%s/debug/", lis.Addr())
	go func() {
		if err := http.Serve(lis, nil); err != nil {
			log.Printf("edbd: metrics endpoint: %v", err)
		}
	}()
}

func securityMode(tlsCfg *tls.Config, token string) string {
	mode := "plaintext"
	if tlsCfg != nil {
		mode = "tls"
		if tlsCfg.ClientAuth == tls.RequireAndVerifyClientCert {
			mode = "mtls"
		}
	}
	if token != "" {
		mode += "+token"
	}
	return mode
}
