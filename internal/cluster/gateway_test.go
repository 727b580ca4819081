package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/wiretest"
)

func startBackend(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	})
	return srv, lis.Addr().String()
}

func startGateway(t *testing.T, cfg cluster.Config) (*cluster.Gateway, string) {
	t.Helper()
	gw := cluster.New(cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
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

func scriptedSpec() scenario.Spec {
	return scenario.Spec{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42,
		Script: "vcap;status;halt"}
}

func interactiveSpec() scenario.Spec {
	return scenario.Spec{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42,
		Interactive: true}
}

func localGolden(t *testing.T, spec scenario.Spec, cmds []string) string {
	t.Helper()
	var buf bytes.Buffer
	i := 0
	var prompt scenario.PromptFunc
	if spec.Interactive && spec.Script == "" {
		prompt = func() (string, bool) {
			if i < len(cmds) {
				i++
				return cmds[i-1], true
			}
			return "", false
		}
	}
	if _, err := scenario.Run(spec, &buf, prompt); err != nil {
		t.Fatalf("local golden run: %v", err)
	}
	return buf.String()
}

// servingBackend returns the backend address currently holding exactly one
// in-flight session.
func servingBackend(t *testing.T, gw *cluster.Gateway) string {
	t.Helper()
	for _, b := range gw.Metrics().Backends {
		if b.Inflight == 1 {
			return b.Addr
		}
	}
	t.Fatal("no backend holds an in-flight session")
	return ""
}

// TestGatewayScriptedSessionMatchesLocal: the baseline proxy path — a
// scripted session through the gateway produces byte-identical output to a
// local run, and the gateway accounts it. The second script's explore
// lines are forwarded to the backend like any other command, and its
// unknown option fails there exactly as it does locally.
func TestGatewayScriptedSessionMatchesLocal(t *testing.T) {
	_, addrA := startBackend(t, server.Config{})
	_, addrB := startBackend(t, server.Config{})
	gw, gwAddr := startGateway(t, cluster.Config{Backends: []string{addrA, addrB}})

	var relayed int64
	for i, tc := range []struct {
		script             string
		exit, scriptErrors int
	}{
		{"vcap;status;halt", 0, 0},
		{"vcap;explore depth=2 writes=8 states=64;explore depth=2 backends=2;halt", 1, 1},
	} {
		spec := scriptedSpec()
		spec.Script = tc.script
		golden := localGolden(t, spec, nil)

		cl, err := client.Dial(gwAddr, client.Options{})
		if err != nil {
			t.Fatalf("dial gateway: %v", err)
		}
		var out bytes.Buffer
		st, err := cl.Run(spec, &out, nil)
		cl.Close()
		if err != nil {
			t.Fatalf("%q: run via gateway: %v", tc.script, err)
		}
		if out.String() != golden {
			t.Fatalf("%q: gateway output differs from local run:\n--- local ---\n%s\n--- gateway ---\n%s", tc.script, golden, out.String())
		}
		if st.Exit != tc.exit || st.ScriptErrors != tc.scriptErrors {
			t.Fatalf("%q: unexpected status %+v", tc.script, st)
		}
		relayed += int64(len(golden))
		m := gw.Metrics()
		if m.SessionsTotal != int64(i+1) || m.Dispatches != int64(i+1) || m.Failovers != 0 {
			t.Fatalf("%q: unexpected gateway metrics %+v", tc.script, m)
		}
		if m.BytesRelayed != relayed {
			t.Fatalf("%q: BytesRelayed = %d, want %d", tc.script, m.BytesRelayed, relayed)
		}
	}
}

// TestGatewayExploreMatrixMatchesLocal: a console `explore … mode=M
// workers=W` line is forwarded to the session's backend like any other
// answer, and the session's output is byte-identical to a single-process
// local run of the same line with no workers option, for every cell of
// mode {write,page} × workers {1,4}.
func TestGatewayExploreMatrixMatchesLocal(t *testing.T) {
	_, addrA := startBackend(t, server.Config{})
	_, addrB := startBackend(t, server.Config{})
	gw, gwAddr := startGateway(t, cluster.Config{Backends: []string{addrA, addrB}})

	const exploreOpts = "depth=2 writes=6 states=48"
	var sessions, relayed int64
	for _, mode := range []string{"write", "page"} {
		golden := localGolden(t, interactiveSpec(), []string{fmt.Sprintf("explore %s mode=%s", exploreOpts, mode), "halt"})
		if !strings.Contains(golden, "explore: mode="+mode+"\n") {
			t.Fatalf("mode=%s: local run printed no explore report:\n%s", mode, golden)
		}
		for _, workers := range []int{1, 4} {
			cmds := []string{fmt.Sprintf("explore %s mode=%s workers=%d", exploreOpts, mode, workers), "halt"}
			cl, err := client.Dial(gwAddr, client.Options{})
			if err != nil {
				t.Fatalf("dial gateway: %v", err)
			}
			i := 0
			var out bytes.Buffer
			st, err := cl.Run(interactiveSpec(), &out, func() (string, bool) {
				if i < len(cmds) {
					i++
					return cmds[i-1], true
				}
				return "", false
			})
			cl.Close()
			if err != nil {
				t.Fatalf("mode=%s workers=%d: run via gateway: %v", mode, workers, err)
			}
			if st.Exit != 0 {
				t.Fatalf("mode=%s workers=%d: unexpected status %+v", mode, workers, st)
			}
			if out.String() != golden {
				t.Fatalf("mode=%s workers=%d: session output differs from single-process run:\n--- local ---\n%s\n--- gateway ---\n%s",
					mode, workers, golden, out.String())
			}
			sessions++
			relayed += int64(len(golden))
		}
	}
	m := gw.Metrics()
	if m.SessionsTotal != sessions || m.Failovers != 0 {
		t.Fatalf("unexpected gateway metrics %+v", m)
	}
	if m.AnswersRelayed != 2*sessions {
		t.Fatalf("AnswersRelayed = %d, want %d (each explore and halt line forwarded once)", m.AnswersRelayed, 2*sessions)
	}
	if m.BytesRelayed != relayed {
		t.Fatalf("BytesRelayed = %d, want %d", m.BytesRelayed, relayed)
	}
}

// TestGatewaySpreadsSpecFamilies: distinct spec families (different seeds)
// hash to distinct ring arcs, so a batch of sessions lands on both
// backends while identical specs always land together.
func TestGatewaySpreadsSpecFamilies(t *testing.T) {
	_, addrA := startBackend(t, server.Config{})
	_, addrB := startBackend(t, server.Config{})
	gw, gwAddr := startGateway(t, cluster.Config{Backends: []string{addrA, addrB}})

	cl, err := client.Dial(gwAddr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Each seed is its own firmware family and hashes independently; the
	// ring is keyed on the backends' ephemeral ports, so any fixed small
	// seed set can collide onto one backend in an unlucky run. Keep
	// opening new families until both backends have served — placement
	// that truly never spreads will still exhaust all 32.
	const maxFamilies = 32
	spread := func() bool {
		for _, b := range gw.Metrics().Backends {
			if b.Total == 0 {
				return false
			}
		}
		return true
	}
	var ran int64
	for seed := int64(1); seed <= maxFamilies && !spread(); seed++ {
		spec := scriptedSpec()
		spec.Seed = seed
		if _, err := cl.Run(spec, nil, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ran++
	}
	m := gw.Metrics()
	if !spread() {
		t.Fatalf("one backend served no sessions across %d spec families — placement is not spreading: %+v", ran, m.Backends)
	}
	var total int64
	for _, b := range m.Backends {
		total += b.Total
	}
	if total != ran {
		t.Fatalf("backends served %d sessions, want %d", total, ran)
	}
}

// TestGatewayDrainMigratesSession: draining the serving backend mid-session
// hands the session to the other backend via SessMigrate + SessResume; the
// client sees one uninterrupted byte-identical session, the drained backend
// shuts down cleanly (zero sessions lost), and the gateway records the
// migration.
func TestGatewayDrainMigratesSession(t *testing.T) {
	srvA, addrA := startBackend(t, server.Config{})
	srvB, addrB := startBackend(t, server.Config{})
	servers := map[string]*server.Server{addrA: srvA, addrB: srvB}
	gw, gwAddr := startGateway(t, cluster.Config{Backends: []string{addrA, addrB}})

	cmds := []string{"vcap", "status", "halt"}
	golden := localGolden(t, interactiveSpec(), cmds)

	cl, err := client.Dial(gwAddr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var (
		drained   *server.Server
		other     *server.Server
		drainDone = make(chan error, 1)
	)
	var out bytes.Buffer
	i := 0
	st, err := cl.Run(interactiveSpec(), &out, func() (string, bool) {
		if i == 0 {
			// First prompt: the session is placed. Drain its backend, then
			// answer — the next prompt server-side becomes a SessMigrate.
			addr := servingBackend(t, gw)
			drained = servers[addr]
			for a, s := range servers {
				if a != addr {
					other = s
				}
			}
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				drainDone <- drained.Shutdown(ctx)
			}()
			time.Sleep(200 * time.Millisecond) // let the drain flag latch
		}
		if i < len(cmds) {
			i++
			return cmds[i-1], true
		}
		return "", false
	})
	if err != nil {
		t.Fatalf("run via gateway: %v", err)
	}
	if out.String() != golden {
		t.Fatalf("migrated session output differs from local run:\n--- local ---\n%s\n--- migrated ---\n%s", golden, out.String())
	}
	if st.Exit != 0 {
		t.Fatalf("unexpected status %+v", st)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drained backend did not shut down cleanly: %v", err)
	}
	if got := drained.Metrics().SessionsMigrated; got != 1 {
		t.Fatalf("drained backend SessionsMigrated = %d, want 1", got)
	}
	if got := other.Metrics().SessionsResumed; got != 1 {
		t.Fatalf("destination backend SessionsResumed = %d, want 1", got)
	}
	m := gw.Metrics()
	if m.Migrations != 1 {
		t.Fatalf("gateway Migrations = %d, want 1 (%+v)", m.Migrations, m)
	}
	if m.MigrationCount != 1 || m.MigrationP99 <= 0 {
		t.Fatalf("migration latency not recorded: count=%d p99=%v", m.MigrationCount, m.MigrationP99)
	}
}

// TestGatewayBackendCrashFailover: killing the serving backend outright
// (force shutdown, connections cut, no hand-off frame) loses nothing — the
// gateway replays its own journal on the surviving backend and the client's
// byte stream is identical to an undisturbed run. The time-travel case
// crashes after the write and before restore, so the surviving backend
// must rebuild the snapshot from the journal for restore to find it.
func TestGatewayBackendCrashFailover(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cmds  []string
		crash int // the prompt at which the serving backend dies
	}{
		{"console", []string{"vcap", "status", "halt"}, 1},
		{"time-travel", []string{"snap", "write 0x4400 0xBEEF", "read 0x4400", "restore", "read 0x4400", "halt"}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srvA, addrA := startBackend(t, server.Config{})
			srvB, addrB := startBackend(t, server.Config{})
			servers := map[string]*server.Server{addrA: srvA, addrB: srvB}
			gw, gwAddr := startGateway(t, cluster.Config{Backends: []string{addrA, addrB}})

			cmds := tc.cmds
			golden := localGolden(t, interactiveSpec(), cmds)

			cl, err := client.Dial(gwAddr, client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			var other *server.Server
			var out bytes.Buffer
			i := 0
			st, err := cl.Run(interactiveSpec(), &out, func() (string, bool) {
				if i == tc.crash {
					// Crash the serving backend. An already-expired context
					// makes Shutdown cut every connection immediately — the
					// closest a test gets to kill -9.
					addr := servingBackend(t, gw)
					for a, s := range servers {
						if a != addr {
							other = s
						}
					}
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					crashed := make(chan struct{})
					go func() {
						servers[addr].Shutdown(ctx)
						close(crashed)
					}()
					<-crashed
				}
				if i < len(cmds) {
					i++
					return cmds[i-1], true
				}
				return "", false
			})
			if err != nil {
				t.Fatalf("run via gateway: %v", err)
			}
			if out.String() != golden {
				t.Fatalf("failed-over session output differs from local run:\n--- local ---\n%s\n--- failover ---\n%s", golden, out.String())
			}
			if st.Exit != 0 {
				t.Fatalf("unexpected status %+v", st)
			}
			if got := gw.Metrics().Failovers; got < 1 {
				t.Fatalf("gateway Failovers = %d, want >= 1", got)
			}
			if got := other.Metrics().SessionsResumed; got != 1 {
				t.Fatalf("surviving backend SessionsResumed = %d, want 1", got)
			}
		})
	}
}

// rawDial opens a bare wire connection and completes the handshake,
// returning the conn and the granted capability bits.
func rawDial(t *testing.T, addr string, caps byte) (net.Conn, byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := wire.WriteMsgFlags(conn, &wire.Hello{Version: wire.Version, Client: "gwtest"}, caps); err != nil {
		t.Fatal(err)
	}
	m, flags, err := wire.ReadMsgFlags(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*wire.Welcome); !ok {
		t.Fatalf("handshake reply %T (%v)", m, m)
	}
	return conn, flags
}

// collectSession reads one session's frames off conn: concatenated output,
// the exact re-encoded bytes of every trace frame, and the Done frame.
func collectSession(t *testing.T, conn net.Conn) (output []byte, traceFrames [][]byte, done *wire.Done) {
	t.Helper()
	for {
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		m, err := wire.ReadMsg(conn)
		if err != nil {
			t.Fatalf("session read: %v", err)
		}
		switch f := m.(type) {
		case *wire.Output:
			output = append(output, f.Data...)
		case *wire.TraceZ:
			b, err := wire.EncodeMsg(m)
			if err != nil {
				t.Fatal(err)
			}
			traceFrames = append(traceFrames, b)
		case *wire.Done:
			return output, traceFrames, f
		case *wire.Error:
			t.Fatalf("session error frame: %v", f)
		default:
			t.Fatalf("unexpected session frame %T", m)
		}
	}
}

// TestGatewayMidTraceStreamFailover: the backend connection dies partway
// through a trace frame — after whole chunks were already relayed — and
// the resumed stream's remaining frames are byte-identical to an
// undisturbed run's. The cut frame is found in a recording pass, so the
// failure lands deterministically inside the final trace frame.
func TestGatewayMidTraceStreamFailover(t *testing.T) {
	_, backendAddr := startBackend(t, server.Config{})
	proxy := wiretest.NewProxy(t, backendAddr)
	// One backend, reached only through the proxy; health probes are
	// parked so the session connections are the only proxied streams.
	gw, gwAddr := startGateway(t, cluster.Config{
		Backends:       []string{proxy.Addr()},
		HealthInterval: time.Hour,
	})

	spec := scriptedSpec()
	spec.Trace = true

	runOnce := func() ([]byte, [][]byte, *wire.Done) {
		conn, flags := rawDial(t, gwAddr, wire.FlagTraceZ)
		defer conn.Close()
		if flags&wire.FlagTraceZ == 0 {
			t.Fatal("gateway did not grant TraceZ")
		}
		if err := wire.WriteMsg(conn, &wire.Run{Spec: spec, StreamTrace: true}); err != nil {
			t.Fatal(err)
		}
		return collectSession(t, conn)
	}

	// Recording pass: learn the golden frame bytes of an undisturbed
	// proxied session and the number of its final backend→gateway trace
	// frame.
	goldenOut, goldenFrames, goldenDone := runOnce()
	if len(goldenFrames) < 2 {
		t.Fatalf("need >= 2 trace frames to cut between chunks, got %d", len(goldenFrames))
	}
	last := proxy.LastFrame(0, wire.TypeTraceZ)
	if last < 0 {
		t.Fatal("recording pass relayed no trace frame")
	}

	// Cut halfway through the final trace frame: every earlier frame is
	// relayed whole, the last one dies mid-read, and the resume offset is
	// a whole number of chunks.
	proxy.CutInFrame(last)

	out, frames, done := runOnce()
	if !bytes.Equal(out, goldenOut) {
		t.Fatalf("failed-over output differs from recording pass:\n--- golden ---\n%s\n--- failover ---\n%s", goldenOut, out)
	}
	if len(frames) != len(goldenFrames) {
		t.Fatalf("failed-over stream has %d trace frames, want %d", len(frames), len(goldenFrames))
	}
	for i := range frames {
		if !bytes.Equal(frames[i], goldenFrames[i]) {
			t.Fatalf("trace frame %d differs after mid-stream failover", i)
		}
	}
	if *done != *goldenDone {
		t.Fatalf("Done differs: %+v vs %+v", done, goldenDone)
	}
	if !proxy.Severed(1) {
		t.Fatal("the armed cut never fired on the failover pass's backend leg")
	}
	if got := gw.Metrics().Failovers; got != 1 {
		t.Fatalf("gateway Failovers = %d, want 1", got)
	}
}

// TestGatewayStatAndJoin: the gateway's own cluster surface — Stat
// aggregates fleet capacity, Join registers a new backend at runtime and
// subsequent sessions can land there.
func TestGatewayStatAndJoin(t *testing.T) {
	_, addrA := startBackend(t, server.Config{})
	gw, gwAddr := startGateway(t, cluster.Config{Backends: []string{addrA}})

	conn, flags := rawDial(t, gwAddr, wire.FlagCluster)
	if flags&wire.FlagCluster == 0 {
		t.Fatal("gateway did not grant the cluster capability")
	}
	if err := wire.WriteMsg(conn, &wire.Stat{}); err != nil {
		t.Fatal(err)
	}
	m, err := wire.ReadMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := m.(*wire.StatReply)
	if !ok {
		t.Fatalf("stat reply %T", m)
	}
	if st.MaxSessions == 0 || st.Draining {
		t.Fatalf("unexpected aggregate stat %+v", st)
	}

	_, addrB := startBackend(t, server.Config{})
	if err := wire.WriteMsg(conn, &wire.Join{Addr: addrB}); err != nil {
		t.Fatal(err)
	}
	m, err = wire.ReadMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*wire.StatReply); !ok {
		t.Fatalf("join ack %T", m)
	}
	mm := gw.Metrics()
	if len(mm.Backends) != 2 || mm.Joins != 1 {
		t.Fatalf("join not registered: %+v", mm)
	}
}

// TestGatewayTwoTierAuth: clients authenticate to the gateway with one
// token while the gateway authenticates to the backends with another; a
// client with no token is rejected before any backend is touched.
func TestGatewayTwoTierAuth(t *testing.T) {
	_, addrA := startBackend(t, server.Config{AuthToken: "backend-secret", RequireAuth: true})
	gw, gwAddr := startGateway(t, cluster.Config{
		Backends:     []string{addrA},
		AuthToken:    "client-secret",
		RequireAuth:  true,
		BackendToken: "backend-secret",
	})

	if _, err := client.Dial(gwAddr, client.Options{}); err == nil {
		t.Fatal("unauthenticated client accepted by RequireAuth gateway")
	}

	cl, err := client.Dial(gwAddr, client.Options{AuthToken: "client-secret"})
	if err != nil {
		t.Fatalf("authenticated dial: %v", err)
	}
	defer cl.Close()
	if !cl.Authenticated() {
		t.Fatal("client token was not verified")
	}
	golden := localGolden(t, scriptedSpec(), nil)
	var out bytes.Buffer
	if _, err := cl.Run(scriptedSpec(), &out, nil); err != nil {
		t.Fatalf("run through two authenticated tiers: %v", err)
	}
	if out.String() != golden {
		t.Fatal("authenticated proxied output differs from local run")
	}
	if gw.Metrics().AuthFailures != 1 {
		t.Fatalf("AuthFailures = %d, want 1", gw.Metrics().AuthFailures)
	}
}

// TestGatewayFollowUpSessionStaysHome: a client that starts its next
// session the moment it reads Done must find its home backend free, at the
// gateway as well as at the backend. With one session per backend, a slot
// still counted after Done was relayed overflows the follow-up down-ring
// (or gets it refused as busy), which shows as a placement miss.
func TestGatewayFollowUpSessionStaysHome(t *testing.T) {
	_, addrA := startBackend(t, server.Config{MaxSessions: 1})
	_, addrB := startBackend(t, server.Config{MaxSessions: 1})
	gw, gwAddr := startGateway(t, cluster.Config{Backends: []string{addrA, addrB}, DefaultBackendSessions: 1})
	var cls [2]*client.Client
	for i := range cls {
		cl, err := client.Dial(gwAddr, client.Options{})
		if err != nil {
			t.Fatalf("dial gateway: %v", err)
		}
		defer cl.Close()
		cls[i] = cl
	}
	const rounds = 20
	spec := scriptedSpec()
	for i := 0; i < rounds; i++ {
		for _, cl := range cls {
			if _, err := cl.Run(spec, io.Discard, nil); err != nil {
				t.Fatalf("round %d: %v", i, err)
			}
		}
	}
	m := gw.Metrics()
	if m.PlacementMisses != 0 {
		t.Fatalf("%d of %d back-to-back sessions left their home backend", m.PlacementMisses, 2*rounds)
	}
	for _, b := range m.Backends {
		if b.Total != 0 && b.Total != 2*rounds {
			t.Fatalf("backend %s served %d of %d sessions", b.Addr, b.Total, 2*rounds)
		}
	}
}
