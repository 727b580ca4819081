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
	"repro/internal/wiretest"
)

// startGatewayPair starts two gateways in front of the same backends.
// They share no state: each learns the fleet from its own config, and a
// client that loses one resumes on the other from its own journal.
func startGatewayPair(t *testing.T, backends []string) (gwA, gwB *cluster.Gateway, addrA, addrB string) {
	t.Helper()
	gwA, addrA = startGateway(t, cluster.Config{Backends: backends})
	gwB, addrB = startGateway(t, cluster.Config{Backends: backends})
	return gwA, gwB, addrA, addrB
}

// crashGateway is kill -9 as seen from every connection: an
// already-cancelled context makes Shutdown cut the listener and all open
// conns immediately, and no close/hand-off frames are sent.
func crashGateway(gw *cluster.Gateway) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gw.Shutdown(ctx)
}

// TestGatewayCrashFailoverReclaimsReplica: kill the gateway serving a live
// session. The client re-dials the other gateway of the replicated pair
// from its dial list, and that replica reclaims the session from the
// client's own journal: it holds no copy of its own. The client's byte
// stream is identical to an undisturbed run.
func TestGatewayCrashFailoverReclaimsReplica(t *testing.T) {
	_, addr := startBackend(t, server.Config{})
	gwA, gwB, gwAAddr, gwBAddr := startGatewayPair(t, []string{addr})

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
			// The first answer went through gwA. Kill it: the next send
			// fails and the client must land on gwB.
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
	if got := gwB.Metrics().SessionsTotal; got != 1 {
		t.Fatalf("surviving gateway served %d sessions, want 1 (the resume)", got)
	}
}

// TestGatewayKillMidTraceFrameFailover is the byte-stream guarantee one
// tier up from the backend: the *gateway* dies partway through a TraceZ
// frame — after whole frames were already delivered — and the session,
// resumed from the client's journal on the other gateway of the pair,
// delivers output and trace samples byte-identical to an unmigrated run.
// The cut frame is found in a recording pass, so the failure lands
// deterministically inside the final trace frame.
func TestGatewayKillMidTraceFrameFailover(t *testing.T) {
	_, backendAddr := startBackend(t, server.Config{})
	_, gwB, gwAAddr, gwBAddr := startGatewayPair(t, []string{backendAddr})
	// The client reaches gwA only through a frame-cutting proxy: cutting
	// the gateway→client stream mid-frame is exactly what a SIGKILLed
	// gateway looks like from the wire.
	proxy := wiretest.NewProxy(t, gwAAddr)

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
	recOut, recSamples, recSt := runViaClient(proxy.Addr())
	last := proxy.LastFrame(0, wire.TypeTraceZ)
	if last < 0 {
		t.Fatal("recording pass relayed no trace frame")
	}

	// Cut the next session halfway through that frame.
	proxy.CutInFrame(last)

	// Failover pass: dial list is the (doomed) proxy first, the other
	// gateway second. The mid-frame cut must be invisible in the byte
	// stream.
	out, samples, st := runViaClient(proxy.Addr() + "," + gwBAddr)
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
	if !proxy.Severed(1) {
		t.Fatal("the armed cut never fired on the failover pass")
	}
	if got := gwB.Metrics().SessionsTotal; got != 2 {
		t.Fatalf("surviving gateway served %d sessions, want 2 (golden + failover)", got)
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
