package server_test

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestOldClientNoSnapCompat is the backwards-compatibility guarantee for
// the snapshot capability: a client that never offers FlagSnap (one built
// before it existed) negotiates zero capabilities and receives a transcript
// byte-identical to a local run — the new server bits are invisible to it.
func TestOldClientNoSnapCompat(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	spec := testSpec(42)
	golden, _ := localGolden(t, spec)

	cl, err := client.Dial(addr, client.Options{NoSnap: true, RawTrace: true})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if cl.Snap() || cl.TraceZ() {
		t.Fatalf("client advertised nothing but negotiated snap=%v tracez=%v", cl.Snap(), cl.TraceZ())
	}
	// Two sessions: the first may cold-boot while the pool warms a
	// template, the second may be served from a fork — both must match the
	// local golden byte-for-byte.
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		if _, err := cl.Run(spec, &buf, nil); err != nil {
			t.Fatalf("remote run %d: %v", i, err)
		}
		if buf.String() != golden {
			t.Fatalf("run %d: old-client transcript differs from local:\n--- local ---\n%s\n--- remote ---\n%s",
				i, golden, buf.String())
		}
	}
	_ = srv
}

// TestSnapFrameWithoutCapabilityRejected: answering a prompt with SnapSave
// when FlagSnap was never negotiated is a protocol error, not silent
// time-travel.
func TestSnapFrameWithoutCapabilityRejected(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))

	if err := wire.WriteMsg(conn, &wire.Hello{Version: wire.Version, Client: "edb/v-old"}); err != nil {
		t.Fatal(err)
	}
	if m, err := wire.ReadMsg(conn); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(*wire.Welcome); !ok {
		t.Fatalf("want Welcome, got %T", m)
	}

	spec := testSpec(42)
	spec.Script = ""
	spec.Interactive = true
	if err := wire.WriteMsg(conn, &wire.Run{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	sawError := false
loop:
	for {
		m, err := wire.ReadMsg(conn)
		if err != nil {
			break
		}
		switch m.(type) {
		case *wire.Output:
		case *wire.Prompt:
			if err := wire.WriteMsg(conn, &wire.SnapSave{}); err != nil {
				t.Fatal(err)
			}
		case *wire.Error:
			sawError = true
			break loop
		case *wire.Done:
			break loop
		}
	}
	if !sawError {
		t.Fatal("server accepted SnapSave without the capability")
	}
}

// TestRemoteSnapRestore drives remote time-travel end to end: arm a
// snapshot, mutate target memory through the console, revert, and observe
// the memory read back at its snapshotted value.
func TestRemoteSnapRestore(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if !cl.Snap() {
		t.Fatal("snapshot capability must negotiate by default")
	}

	spec := testSpec(42)
	spec.Script = ""
	var banner bytes.Buffer
	sess, err := cl.Start(spec, &banner)
	if err != nil {
		t.Fatalf("start: %v", err)
	}

	o, err := sess.SnapSave()
	if err != nil {
		t.Fatalf("snap: %v", err)
	}
	if !strings.Contains(o, "snapshot armed") {
		t.Fatalf("snap output: %q", o)
	}
	before, err := sess.Exec("read 0x4400")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("write 0x4400 0xBEEF"); err != nil {
		t.Fatal(err)
	}
	after, err := sess.Exec("read 0x4400")
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Fatal("write must change the read-back")
	}
	o, err = sess.SnapRestore()
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !strings.Contains(o, "restored") {
		t.Fatalf("restore output: %q", o)
	}
	reverted, err := sess.Exec("read 0x4400")
	if err != nil {
		t.Fatal(err)
	}
	if reverted != before {
		t.Fatalf("time-travel failed:\nbefore  %q\nafter   %q\nrevert  %q", before, after, reverted)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestServerDisableSnap: the server-side kill switch wins negotiation.
func TestServerDisableSnap(t *testing.T) {
	_, addr := startServer(t, server.Config{DisableSnap: true})
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if cl.Snap() {
		t.Fatal("server must refuse the snap capability when disabled")
	}
}

// TestPoolWarmSessionsMatchCold: the daemon's warm-start pool serves later
// sessions from template forks with byte-identical output, and the metrics
// record the split.
func TestPoolWarmSessionsMatchCold(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	spec := testSpec(42)
	golden, _ := localGolden(t, spec)

	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()

	var first bytes.Buffer
	if _, err := cl.Run(spec, &first, nil); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if first.String() != golden {
		t.Fatal("first (cold) session differs from local golden")
	}
	// The first session recorded the template and published it before
	// its Done frame.
	if n := srv.Metrics().TemplatesBuilt; n != 1 {
		t.Fatalf("templates built after the first session: %d, want 1", n)
	}

	var second bytes.Buffer
	if _, err := cl.Run(spec, &second, nil); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if second.String() != golden {
		t.Fatal("warm session differs from local golden")
	}
	m := srv.Metrics()
	if m.ColdBoots != 1 || m.WarmForks != 1 {
		t.Fatalf("pool metrics: cold=%d warm=%d (want 1/1); %+v", m.ColdBoots, m.WarmForks, m)
	}
}

// TestPoolDisabled: with pooling off every session cold-boots and output
// is unchanged.
func TestPoolDisabled(t *testing.T) {
	srv, addr := startServer(t, server.Config{DisablePool: true})
	spec := testSpec(42)
	golden, _ := localGolden(t, spec)
	cl, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		if _, err := cl.Run(spec, &buf, nil); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if buf.String() != golden {
			t.Fatalf("run %d differs from golden", i)
		}
	}
	if m := srv.Metrics(); m.WarmForks != 0 || m.TemplatesBuilt != 0 {
		t.Fatalf("pool must be inert when disabled: %+v", m)
	}
}
