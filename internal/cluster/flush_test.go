package cluster_test

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/wire"
)

// countingListener counts the Write calls on every connection it accepts.
type countingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, writes: &l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countedFleet serves one backend and a gateway in front of it, each on a
// countingListener. Health probes are parked, so the backend's writes are
// the session legs' alone.
func countedFleet(t testing.TB) (backend, gateway *countingListener, gwAddr string) {
	t.Helper()
	listen := func() *countingListener {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return &countingListener{Listener: lis}
	}
	backend, gateway = listen(), listen()
	srv := server.New(server.Config{})
	gw := cluster.New(cluster.Config{Backends: []string{backend.Addr().String()}, HealthInterval: time.Hour})
	done := make(chan error, 2)
	go func() { done <- srv.Serve(backend) }()
	go func() { done <- gw.Serve(gateway) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		gw.Shutdown(ctx)
		srv.Shutdown(ctx)
		<-done
		<-done
	})
	return backend, gateway, gateway.Addr().String()
}

// TestOneWritePerPromptTurn pins the flush rules by counting writes. In
// an interactive traced session of k prompts through a gateway, the
// backend writes the Welcome of the gateway's leg, one buffer per prompt
// (the output owed, then the Prompt) and one at the end (the last output,
// the trace chunks and Done): k+2 writes. After its own Welcome, the
// gateway writes the client the same k+1 buffers.
func TestOneWritePerPromptTurn(t *testing.T) {
	backend, gateway, gwAddr := countedFleet(t)
	spec := interactiveSpec()
	spec.Trace = true
	cmds := []string{"vcap", "read 0x4408", "status", "snap", "read 0x4400", "halt"}

	session := func() (prompts int, bw, gw int64) {
		cl, err := client.Dial(gwAddr, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		b0, g0 := backend.writes.Load(), gateway.writes.Load()
		traced := 0
		cl.OnTrace = func(tr *wire.Trace) { traced += len(tr.Samples) }
		if _, err := cl.Run(spec, nil, func() (string, bool) {
			prompts++
			if prompts > len(cmds) {
				return "", false
			}
			return cmds[prompts-1], true
		}); err != nil {
			t.Fatal(err)
		}
		if traced == 0 {
			t.Fatal("the session streamed no trace")
		}
		return prompts, backend.writes.Load() - b0, gateway.writes.Load() - g0
	}
	// The first session of the family runs cold and records the template;
	// the second forks from it, as every later session does.
	session()
	k, bw, gw := session()
	if k != len(cmds) {
		t.Fatalf("session asked %d prompts, want %d", k, len(cmds))
	}
	if bw != int64(k+2) || gw != int64(k+1) {
		t.Fatalf("%d prompts cost %d backend and %d gateway writes, want %d and %d", k, bw, gw, k+2, k+1)
	}
}

// TestGatewayRelaysOutputBeforeBackendWaits: the gateway holds a relayed
// frame only while the next backend frame is already in hand. A fake
// backend sends Output, then waits to send Done until the client's Run has
// written those bytes; a gateway that held the output for the next frame
// would stall the two for the backend's 5 s patience.
func TestGatewayRelaysOutputBeforeBackendWaits(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	seen, backendDone := make(chan struct{}), make(chan struct{})
	defer func() {
		lis.Close()
		<-backendDone
	}()
	go func() {
		defer close(backendDone)
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		a := wire.Acceptor{WriteTimeout: 5 * time.Second}
		if _, err := a.Accept(conn); err != nil {
			t.Errorf("fake backend handshake: %v", err)
			return
		}
		if m, _, err := wire.RecvMsg(conn, 5*time.Second); err != nil {
			t.Errorf("fake backend: no Run: %v", err)
			return
		} else if _, ok := m.(*wire.Run); !ok {
			t.Errorf("fake backend: got %T, want Run", m)
			return
		}
		if err := wire.SendMsg(conn, &wire.Output{Data: []byte("first\n")}, 0, 5*time.Second); err != nil {
			t.Errorf("fake backend: %v", err)
			return
		}
		select {
		case <-seen:
		case <-time.After(5 * time.Second):
			t.Error("the client never got the Output while the backend waited: the gateway held it")
		}
		if err := wire.SendMsg(conn, &wire.Done{}, 0, 5*time.Second); err != nil {
			t.Errorf("fake backend: %v", err)
		}
	}()
	_, gwAddr := startGateway(t, cluster.Config{Backends: []string{lis.Addr().String()}, HealthInterval: time.Hour})
	cl, err := client.Dial(gwAddr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	out := writerFunc(func(p []byte) (int, error) {
		if string(p) == "first\n" {
			close(seen)
		}
		return len(p), nil
	})
	if _, err := cl.Run(scriptedSpec(), out, nil); err != nil {
		t.Fatal(err)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// BenchmarkPromptTurn times one prompt turn of a long interactive session
// through a gateway over loopback: a `read` answer goes to the backend,
// and its output and the next Prompt come back. It reports the writes a
// turn costs the backend and the gateway's client side.
func BenchmarkPromptTurn(b *testing.B) {
	backend, gateway, gwAddr := countedFleet(b)
	cl, err := client.Dial(gwAddr, client.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	// Each read takes simulated time; 300 s, the server's limit, lasts
	// about 240k turns.
	spec := interactiveSpec()
	spec.Seconds = 300
	var b0, g0, bw, gw int64
	turns := 0
	_, err = cl.Run(spec, nil, func() (string, bool) {
		if turns == 0 {
			b0, g0 = backend.writes.Load(), gateway.writes.Load()
			b.ResetTimer()
		}
		if turns == b.N {
			b.StopTimer()
			bw, gw = backend.writes.Load()-b0, gateway.writes.Load()-g0
			return "halt", true
		}
		turns++
		return "read 0x4408", true
	})
	if err != nil {
		b.Fatal(err)
	}
	if turns != b.N {
		b.Fatalf("the session ended after %d of %d turns", turns, b.N)
	}
	b.ReportMetric(float64(bw)/float64(b.N), "backend-writes/turn")
	b.ReportMetric(float64(gw)/float64(b.N), "gateway-writes/turn")
}
