package cluster_test

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/wire"
)

// startPeeredGateways starts two gateways replicating to each other over
// the FlagGossip stream, both fronting the same backends.
func startPeeredGateways(t *testing.T, backends []string) (gwA, gwB *cluster.Gateway, addrA, addrB string) {
	t.Helper()
	// B first, so A can be born knowing its peer address; B learns A's via
	// the same flag (its outbound stream just dials A).
	gwB, addrB = startGateway(t, cluster.Config{Backends: backends})
	gwA, addrA = startGateway(t, cluster.Config{Backends: backends, Peer: addrB,
		PeerRetry: 50 * time.Millisecond, PeerHeartbeat: 100 * time.Millisecond})
	return gwA, gwB, addrA, addrB
}

// waitUntil polls cond for up to 10s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// crashGateway is kill -9 as seen from every connection: an
// already-cancelled context makes Shutdown cut the listener and all open
// conns immediately, and no close/hand-off frames are sent — the peer's
// replica store must survive untouched.
func crashGateway(gw *cluster.Gateway) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gw.Shutdown(ctx)
}

// TestGossipNotOfferedNotGranted: a client that does not offer FlagGossip
// must never be granted it — non-replicated handshakes stay byte-identical
// to the pre-replication protocol even on a replicated gateway.
func TestGossipNotOfferedNotGranted(t *testing.T) {
	_, addr := startBackend(t, server.Config{})
	_, gwB, _, gwAddrB := startPeeredGateways(t, []string{addr})
	_ = gwB
	conn, flags := rawDial(t, gwAddrB, wire.FlagTraceZ|wire.FlagSnap|wire.FlagCluster)
	defer conn.Close()
	if flags&wire.FlagGossip != 0 {
		t.Fatalf("gateway granted FlagGossip unasked (caps %#02x)", flags)
	}
}

// TestPeerReplicatesFleetState: the replication stream carries the backend
// registry and per-session journals — a gateway configured with only a
// peer (no backends of its own) learns the whole fleet, mirrors live
// sessions while they run, and drops the mirror when they conclude.
func TestPeerReplicatesFleetState(t *testing.T) {
	_, addrX := startBackend(t, server.Config{})
	_, addrY := startBackend(t, server.Config{})

	gwB, gwBAddr := startGateway(t, cluster.Config{}) // knows nothing
	_, gwAAddr := startGateway(t, cluster.Config{Backends: []string{addrX, addrY}, Peer: gwBAddr,
		PeerRetry: 50 * time.Millisecond, PeerHeartbeat: 100 * time.Millisecond})

	waitUntil(t, "backend registry to gossip over", func() bool {
		return len(gwB.Metrics().Backends) == 2
	})

	cl, err := client.Dial(gwAAddr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	release := make(chan struct{})
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		i := 0
		_, err := cl.Run(interactiveSpec(), &out, func() (string, bool) {
			if i == 0 {
				i++
				<-release
				return "vcap", true
			}
			return "", false
		})
		done <- err
	}()

	// While the session is parked at its first prompt, the peer must hold
	// its replica (spec and journal mirrored as they grow).
	waitUntil(t, "session replica on the peer", func() bool {
		return gwB.Metrics().ReplicaSessions == 1
	})
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	// Conclusion gossips a close; the replica must not leak.
	waitUntil(t, "session replica release", func() bool {
		return gwB.Metrics().ReplicaSessions == 0
	})
	if in := gwB.Metrics().GossipFramesIn; in == 0 {
		t.Fatal("peer applied no gossip frames")
	}
}

// TestGatewayCrashFailoverReclaimsReplica: kill the gateway serving a live
// session; the client re-dials the peer from its dial list and resumes.
// The peer matches the resume against the replica the dead gateway
// streamed to it (the sessions-lost accounting), and the client's byte
// stream is identical to an undisturbed run.
func TestGatewayCrashFailoverReclaimsReplica(t *testing.T) {
	_, addr := startBackend(t, server.Config{})
	gwA, gwB, gwAAddr, gwBAddr := startPeeredGateways(t, []string{addr})

	cmds := []string{"vcap", "status", "halt"}
	golden := localGolden(t, interactiveSpec(), cmds)

	cl, err := client.Dial(strings.Join([]string{gwAAddr, gwBAddr}, ","), client.Options{
		Reconnect: true,
		Attempts:  10,
		Backoff:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var out bytes.Buffer
	i := 0
	st, err := cl.Run(interactiveSpec(), &out, func() (string, bool) {
		if i == 1 {
			// The first answer is journaled on gwA and gossiped. Wait for
			// the replica, then kill gwA: the next send fails and the
			// client must land on gwB.
			waitUntil(t, "replica before the crash", func() bool {
				return gwB.Metrics().ReplicaSessions == 1
			})
			crashGateway(gwA)
		}
		if i < len(cmds) {
			i++
			return cmds[i-1], true
		}
		return "", false
	})
	if err != nil {
		t.Fatalf("run across gateway crash: %v", err)
	}
	if out.String() != golden {
		t.Fatalf("failed-over session differs from undisturbed run:\n--- golden ---\n%s\n--- failover ---\n%s", golden, out.String())
	}
	if st.Exit != 0 {
		t.Fatalf("unexpected status %+v", st)
	}
	m := gwB.Metrics()
	if m.ReplicaReclaims != 1 {
		t.Fatalf("peer ReplicaReclaims = %d, want 1 (%+v)", m.ReplicaReclaims, m)
	}
	if m.ReplicaSessions != 0 {
		t.Fatalf("replica leaked after reclaim: %d live", m.ReplicaSessions)
	}
	if m.SessionsTotal != 1 {
		t.Fatalf("peer served %d sessions, want 1", m.SessionsTotal)
	}
}

// TestGatewayKillMidTraceFrameFailover is the tentpole byte-stream
// guarantee one tier up from PR 7: the *gateway* dies partway through a
// TraceZ frame — after whole frames were already delivered — and the
// session resumed on its replica peer delivers output and trace samples
// byte-identical to an unmigrated run. The cut frame is found in a
// recording pass, so the failure lands deterministically inside the final
// trace frame.
func TestGatewayKillMidTraceFrameFailover(t *testing.T) {
	_, backendAddr := startBackend(t, server.Config{})
	gwB, gwBAddr := startGateway(t, cluster.Config{Backends: []string{backendAddr}})
	_, gwAAddr := startGateway(t, cluster.Config{Backends: []string{backendAddr}, Peer: gwBAddr,
		PeerRetry: 50 * time.Millisecond, PeerHeartbeat: 100 * time.Millisecond})
	// The client reaches gwA only through a frame-cutting proxy: cutting
	// the gateway→client stream mid-frame is exactly what a SIGKILLed
	// gateway looks like from the wire.
	proxy := newLimitProxy(t, gwAAddr)

	spec := scriptedSpec()
	spec.Trace = true

	// A raw golden session against gwB: the same spec yields the same
	// frame bytes on either gateway.
	conn, flags := rawDial(t, gwBAddr, wire.FlagTraceZ)
	if flags&wire.FlagTraceZ == 0 {
		t.Fatal("gateway did not grant TraceZ")
	}
	if err := wire.WriteMsg(conn, &wire.Run{Spec: spec, StreamTrace: true}); err != nil {
		t.Fatal(err)
	}
	goldenOut, goldenFrames, _ := collectSession(t, conn)
	conn.Close()
	if len(goldenFrames) < 2 {
		t.Fatalf("need >= 2 trace frames to cut between chunks, got %d", len(goldenFrames))
	}

	runViaClient := func(addr string) ([]byte, []wire.TracePoint, client.Status) {
		cl, err := client.Dial(addr, client.Options{
			Reconnect: true,
			Attempts:  10,
			Backoff:   50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		var samples []wire.TracePoint
		cl.OnTrace = func(tr *wire.Trace) { samples = append(samples, tr.Samples...) }
		var out bytes.Buffer
		st, err := cl.Run(spec, &out, nil)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.Bytes(), samples, st
	}

	// Recording pass through the proxy, uncut: learn the number of the
	// final trace frame on the gateway→client stream of a full client
	// session.
	recOut, recSamples, recSt := runViaClient(proxy.addr())
	last := proxy.lastFrame(0, wire.TypeTrace, wire.TypeTraceZ)
	if last < 0 {
		t.Fatal("recording pass relayed no trace frame")
	}

	// Cut the next session halfway through that frame.
	proxy.armFrameCut(last)

	// Failover pass: dial list is the (doomed) proxy first, the replica
	// second. The mid-frame cut must be invisible in the byte stream.
	out, samples, st := runViaClient(proxy.addr() + "," + gwBAddr)
	if !bytes.Equal(out, recOut) {
		t.Fatalf("failed-over output differs from unmigrated run:\n--- unmigrated ---\n%s\n--- failover ---\n%s", recOut, out)
	}
	if !bytes.Equal(goldenOut, recOut) {
		t.Fatalf("recording pass output differs from raw golden session")
	}
	if len(samples) != len(recSamples) {
		t.Fatalf("failed-over stream carried %d trace samples, want %d", len(samples), len(recSamples))
	}
	for i := range samples {
		if samples[i] != recSamples[i] {
			t.Fatalf("trace sample %d differs after mid-frame gateway loss", i)
		}
	}
	if st != recSt {
		t.Fatalf("status differs: %+v vs %+v", st, recSt)
	}
	if !proxy.cutFired(1) {
		t.Fatal("the armed cut never fired on the failover pass")
	}
	if got := gwB.Metrics().SessionsTotal; got != 2 {
		t.Fatalf("replica gateway served %d sessions, want 2 (golden + failover)", got)
	}
}

// TestRejoinedBackendPlaceable is the blacklist-expiry regression test at
// the protocol level: a session's sole backend crashes (blacklisting it
// for the session), restarts on the same address, and re-registers via a
// Join frame. The Join must clear the per-session blacklist — before the
// fix the re-dispatch loop could never place the session again even though
// its only backend was back.
func TestRejoinedBackendPlaceable(t *testing.T) {
	// A backend on a fixed port we can resurrect at the same address.
	srv, addr := startBackend(t, server.Config{})
	gw, gwAddr := startGateway(t, cluster.Config{
		Backends:       []string{addr},
		HealthInterval: time.Hour, // only Join traffic may revive it
		MaxDispatches:  12,
	})

	cmds := []string{"vcap", "status", "halt"}
	golden := localGolden(t, interactiveSpec(), cmds)

	cl, err := client.Dial(gwAddr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var out bytes.Buffer
	i := 0
	st, err := cl.Run(interactiveSpec(), &out, func() (string, bool) {
		if i == 1 {
			// Crash the only backend: the session's next answer fails, the
			// backend lands on the session blacklist, and every re-dispatch
			// finds nothing — until a new server on the same address joins.
			crashed := make(chan struct{})
			go func() {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				srv.Shutdown(ctx)
				close(crashed)
			}()
			<-crashed
			srv2 := server.New(server.Config{})
			lis, err := net.Listen("tcp", addr)
			if err != nil {
				t.Errorf("rebind %s: %v", addr, err)
				return "", false
			}
			go srv2.Serve(lis)
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				srv2.Shutdown(ctx)
			})
			gw.AddBackend(addr) // what a Join frame does
		}
		if i < len(cmds) {
			i++
			return cmds[i-1], true
		}
		return "", false
	})
	if err != nil {
		t.Fatalf("run across backend restart: %v", err)
	}
	if out.String() != golden {
		t.Fatalf("session after rejoin differs from undisturbed run:\n--- golden ---\n%s\n--- rejoined ---\n%s", golden, out.String())
	}
	if st.Exit != 0 {
		t.Fatalf("unexpected status %+v", st)
	}
}
