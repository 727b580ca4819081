package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/wire"
)

// interactiveSpec is the interactive scenario the migration tests drive.
func interactiveSpec() scenario.Spec {
	return scenario.Spec{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42, Interactive: true}
}

// interactiveGolden runs the spec locally, answering prompts from cmds and
// EOF after, returning the byte-exact output a remote session must match.
func interactiveGolden(t *testing.T, spec scenario.Spec, cmds []string) string {
	t.Helper()
	var buf bytes.Buffer
	i := 0
	_, err := scenario.Run(spec, &buf, func() (string, bool) {
		if i < len(cmds) {
			i++
			return cmds[i-1], true
		}
		return "", false
	})
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	return buf.String()
}

// dialCluster opens a raw wire connection negotiating the given caps.
func dialCluster(t *testing.T, addr string, caps byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	if err := wire.WriteMsgFlags(conn, &wire.Hello{Version: wire.Version, Client: "edbd-gw/test"}, caps); err != nil {
		t.Fatalf("hello: %v", err)
	}
	m, flags, err := wire.ReadMsgFlags(conn)
	if err != nil {
		t.Fatalf("welcome: %v", err)
	}
	if _, ok := m.(*wire.Welcome); !ok {
		t.Fatalf("want Welcome, got %T", m)
	}
	if flags&caps != caps {
		t.Fatalf("server granted caps %#02x, offered %#02x", flags, caps)
	}
	return conn
}

// driveUntilPrompt reads frames into out until a Prompt arrives; any other
// terminal frame fails the test.
func driveUntilPrompt(t *testing.T, conn net.Conn, out *bytes.Buffer) {
	t.Helper()
	for {
		m, err := wire.ReadMsg(conn)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		switch fm := m.(type) {
		case *wire.Output:
			out.Write(fm.Data)
		case *wire.Prompt:
			return
		default:
			t.Fatalf("unexpected frame %T before prompt", m)
		}
	}
}

// finishSession answers remaining prompts from cmds (EOF after), reading
// output until Done.
func finishSession(t *testing.T, conn net.Conn, out *bytes.Buffer, cmds []string) *wire.Done {
	t.Helper()
	i := 0
	for {
		m, err := wire.ReadMsg(conn)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		switch fm := m.(type) {
		case *wire.Output:
			out.Write(fm.Data)
		case *wire.Prompt:
			var answer wire.Msg = &wire.Command{EOF: true}
			if i < len(cmds) {
				answer = &wire.Command{Line: cmds[i]}
				i++
			}
			if err := wire.WriteMsg(conn, answer); err != nil {
				t.Fatalf("answer: %v", err)
			}
		case *wire.Done:
			return fm
		default:
			t.Fatalf("unexpected frame %T", m)
		}
	}
}

// TestSessResumeFailoverMatchesLocal is the failover half of live
// migration: a session abandoned mid-script (its backend "died") is resumed
// on a fresh connection from its journal, and the concatenated output the
// two connections produced is byte-identical to an unmigrated local run.
func TestSessResumeFailoverMatchesLocal(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	spec := interactiveSpec()
	golden := interactiveGolden(t, spec, []string{"vcap", "status", "halt"})

	// Leg 1: answer the first prompt, abandon at the second.
	conn1 := dialCluster(t, addr, wire.FlagCluster)
	if err := wire.WriteMsg(conn1, &wire.Run{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	var buf1 bytes.Buffer
	driveUntilPrompt(t, conn1, &buf1)
	if err := wire.WriteMsg(conn1, &wire.Command{Line: "vcap"}); err != nil {
		t.Fatal(err)
	}
	driveUntilPrompt(t, conn1, &buf1)
	conn1.Close() // backend's client vanishes mid-session

	// Leg 2: re-dispatch from the journal; output before the cut is skipped.
	conn2 := dialCluster(t, addr, wire.FlagCluster)
	if err := wire.WriteMsg(conn2, &wire.SessResume{
		Spec:       spec,
		SpecHash:   scenario.SpecHash(spec),
		SkipOutput: uint64(buf1.Len()),
		Journal:    []wire.JournalEntry{{Kind: wire.JournalLine, Line: "vcap"}},
	}); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	finishSession(t, conn2, &buf2, []string{"status", "halt"})

	if got := buf1.String() + buf2.String(); got != golden {
		t.Fatalf("migrated output differs from local:\n--- local ---\n%s\n--- migrated ---\n%s", golden, got)
	}
	m := srv.Metrics()
	if m.SessionsResumed != 1 {
		t.Fatalf("want 1 resumed session, got %+v", m)
	}
	if m.ResumeSkippedBytes != int64(buf1.Len()) {
		t.Fatalf("want %d skipped bytes, got %d", buf1.Len(), m.ResumeSkippedBytes)
	}
}

// TestDrainMigratesSessionAcrossServers is the graceful half: a draining
// backend hands its interactive session off with SessMigrate between
// commands; replaying the journal on a second server, which has never seen
// the session's family, continues it with byte-identical output, and the
// drained backend shuts down losing nothing.
func TestDrainMigratesSessionAcrossServers(t *testing.T) {
	srvA, addrA := startServer(t, server.Config{})
	srvB, addrB := startServer(t, server.Config{})
	spec := interactiveSpec()
	golden := interactiveGolden(t, spec, []string{"vcap", "status", "halt"})

	conn1 := dialCluster(t, addrA, wire.FlagCluster)
	if err := wire.WriteMsg(conn1, &wire.Run{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	var buf1 bytes.Buffer
	driveUntilPrompt(t, conn1, &buf1)

	// Drain A while the client holds the prompt. The in-flight answer must
	// still be served; the hand-off replaces the *next* prompt.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- srvA.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond) // let the drain flag latch
	if err := wire.WriteMsg(conn1, &wire.Command{Line: "vcap"}); err != nil {
		t.Fatal(err)
	}

	var mig *wire.SessMigrate
	for mig == nil {
		m, err := wire.ReadMsg(conn1)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		switch fm := m.(type) {
		case *wire.Output:
			buf1.Write(fm.Data)
		case *wire.SessMigrate:
			mig = fm
		default:
			t.Fatalf("unexpected frame %T while draining", m)
		}
	}
	if mig.SpecHash != scenario.SpecHash(spec) {
		t.Fatalf("migrate hash %#x, want %#x", mig.SpecHash, scenario.SpecHash(spec))
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Kill the drained backend outright; the session must survive on B.
	conn2 := dialCluster(t, addrB, wire.FlagCluster)
	if err := wire.WriteMsg(conn2, &wire.SessResume{
		Spec:       spec,
		SpecHash:   scenario.SpecHash(spec),
		SkipOutput: uint64(buf1.Len()),
		Journal:    []wire.JournalEntry{{Kind: wire.JournalLine, Line: "vcap"}},
	}); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	finishSession(t, conn2, &buf2, []string{"status", "halt"})

	if got := buf1.String() + buf2.String(); got != golden {
		t.Fatalf("drained migration output differs from local:\n--- local ---\n%s\n--- migrated ---\n%s", golden, got)
	}
	if m := srvA.Metrics(); m.SessionsMigrated != 1 {
		t.Fatalf("origin: want 1 migrated session, got %+v", m)
	}
	if m := srvB.Metrics(); m.SessionsResumed != 1 {
		t.Fatalf("destination: want 1 resumed session, got %+v", m)
	}
}

// TestImageCarryingResumeRefused: a SessResume whose reserved last field
// is not empty, the slot that once carried a template image, does not
// decode: it is refused with Error{CodeBadRequest} and runs no session. A backend cannot check an image without re-simulating it, and
// an adopted image would serve every later session of its family: so after
// the refused resume, a plain Run of the same family from a second
// connection must still equal the local golden.
func TestImageCarryingResumeRefused(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	spec := scenario.Spec{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42, Script: "vcap;status;halt"}
	var golden bytes.Buffer
	if _, err := scenario.Run(spec, &golden, nil); err != nil {
		t.Fatal(err)
	}

	// Re-frame an encoded resume with bytes in its reserved slot.
	fr, err := wire.EncodeMsg(&wire.SessResume{Spec: spec, SpecHash: scenario.SpecHash(spec)})
	if err != nil {
		t.Fatal(err)
	}
	img := bytes.Repeat([]byte{0xA5}, 64)
	fr = binary.BigEndian.AppendUint32(fr[:len(fr)-4], uint32(len(img)))
	fr = append(fr, img...)
	binary.BigEndian.PutUint32(fr[2:6], uint32(len(fr)-6))

	conn := dialCluster(t, addr, wire.FlagCluster)
	if _, err := conn.Write(fr); err != nil {
		t.Fatal(err)
	}
	m, err := wire.ReadMsg(conn)
	if werr, ok := m.(*wire.Error); err != nil || !ok || werr.Code != wire.CodeBadRequest {
		t.Errorf("image-carrying resume was answered with %#v (%v), want Error{CodeBadRequest}", m, err)
	}
	if m, err := wire.ReadMsg(conn); err != io.EOF {
		t.Errorf("want the connection closed after the Error, got %T (%v)", m, err)
	}
	conn.Close()
	if n := srv.Metrics().SessionsTotal; n != 0 {
		t.Errorf("image-carrying resume ran %d sessions, want 0", n)
	}

	conn2 := dialCluster(t, addr, 0)
	if err := wire.WriteMsg(conn2, &wire.Run{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	finishSession(t, conn2, &out, nil)
	if out.String() != golden.String() {
		t.Fatalf("session after the refused resume differs from local:\n--- local ---\n%s\n--- remote ---\n%s",
			golden.String(), out.String())
	}
}

// TestSessResumeMidTraceStream resumes a session whose connection died in
// the middle of its TraceZ stream: the resumed connection re-streams from
// the first chunk the peer is missing, and every resumed frame is
// byte-identical to the frames of an unmigrated run.
func TestSessResumeMidTraceStream(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	spec := scenario.Spec{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42,
		Script: "vcap;status;halt", Trace: true}

	// Golden leg: one uninterrupted remote run, raw frame bytes recorded.
	conn := dialCluster(t, addr, wire.FlagCluster|wire.FlagTraceZ)
	if err := wire.WriteMsg(conn, &wire.Run{Spec: spec, StreamTrace: true}); err != nil {
		t.Fatal(err)
	}
	var goldenOut bytes.Buffer
	var goldenFrames [][]byte
	var goldenDone *wire.Done
	for goldenDone == nil {
		m, err := wire.ReadMsg(conn)
		if err != nil {
			t.Fatalf("golden read: %v", err)
		}
		switch fm := m.(type) {
		case *wire.Output:
			goldenOut.Write(fm.Data)
		case *wire.TraceZ:
			fr, err := wire.EncodeMsg(fm)
			if err != nil {
				t.Fatal(err)
			}
			goldenFrames = append(goldenFrames, fr)
		case *wire.Done:
			goldenDone = fm
		default:
			t.Fatalf("unexpected frame %T", m)
		}
	}
	if len(goldenFrames) < 2 {
		t.Fatalf("trace too short to cut mid-stream: %d frames", len(goldenFrames))
	}

	// Migrated leg 1: same run, connection cut after the first trace chunk.
	conn1 := dialCluster(t, addr, wire.FlagCluster|wire.FlagTraceZ)
	if err := wire.WriteMsg(conn1, &wire.Run{Spec: spec, StreamTrace: true}); err != nil {
		t.Fatal(err)
	}
	var out1 bytes.Buffer
	var gotFrames [][]byte
	var skipSamples uint64
	for len(gotFrames) == 0 {
		m, err := wire.ReadMsg(conn1)
		if err != nil {
			t.Fatalf("leg1 read: %v", err)
		}
		switch fm := m.(type) {
		case *wire.Output:
			out1.Write(fm.Data)
		case *wire.TraceZ:
			fr, err := wire.EncodeMsg(fm)
			if err != nil {
				t.Fatal(err)
			}
			gotFrames = append(gotFrames, fr)
			skipSamples += uint64(fm.Count)
		default:
			t.Fatalf("unexpected frame %T", m)
		}
	}
	conn1.Close()

	// Migrated leg 2: resume past the chunks the peer already holds.
	conn2 := dialCluster(t, addr, wire.FlagCluster|wire.FlagTraceZ)
	if err := wire.WriteMsg(conn2, &wire.SessResume{
		Spec:             spec,
		StreamTrace:      true,
		SpecHash:         scenario.SpecHash(spec),
		SkipOutput:       uint64(out1.Len()),
		SkipTraceSamples: skipSamples,
	}); err != nil {
		t.Fatal(err)
	}
	var out2 bytes.Buffer
	var done2 *wire.Done
	for done2 == nil {
		m, err := wire.ReadMsg(conn2)
		if err != nil {
			t.Fatalf("leg2 read: %v", err)
		}
		switch fm := m.(type) {
		case *wire.Output:
			out2.Write(fm.Data)
		case *wire.TraceZ:
			fr, err := wire.EncodeMsg(fm)
			if err != nil {
				t.Fatal(err)
			}
			gotFrames = append(gotFrames, fr)
		case *wire.Done:
			done2 = fm
		default:
			t.Fatalf("unexpected frame %T", m)
		}
	}

	if got := out1.String() + out2.String(); got != goldenOut.String() {
		t.Fatalf("resumed output differs:\n--- golden ---\n%s\n--- resumed ---\n%s", goldenOut.String(), got)
	}
	if len(gotFrames) != len(goldenFrames) {
		t.Fatalf("resumed stream has %d trace frames, golden %d", len(gotFrames), len(goldenFrames))
	}
	for i := range goldenFrames {
		if !bytes.Equal(gotFrames[i], goldenFrames[i]) {
			t.Fatalf("trace frame %d not byte-identical after resume", i)
		}
	}
	if *done2 != *goldenDone {
		t.Fatalf("done mismatch: golden %+v resumed %+v", goldenDone, done2)
	}
}

// TestSessResumeBadTraceOffset: a resume whose trace offset is neither a
// chunk boundary nor the end of the window, or lies past the window, is a
// bad request. The backend answers it with Error{CodeBadRequest}, behind
// the session's output and with the session's slot already free.
func TestSessResumeBadTraceOffset(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	spec := traceSpec(42)
	golden, _ := localGolden(t, spec)
	for _, row := range []struct {
		name string
		skip uint64
	}{{"7", 7}, {"2^40", 1 << 40}} {
		t.Run(row.name, func(t *testing.T) {
			conn := dialCluster(t, addr, wire.FlagCluster|wire.FlagTraceZ)
			if err := wire.WriteMsg(conn, &wire.SessResume{Spec: spec, StreamTrace: true,
				SpecHash: scenario.SpecHash(spec), SkipTraceSamples: row.skip}); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			for {
				m, err := wire.ReadMsg(conn)
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				if o, ok := m.(*wire.Output); ok {
					out.Write(o.Data)
					continue
				}
				if werr, ok := m.(*wire.Error); !ok || werr.Code != wire.CodeBadRequest {
					t.Fatalf("want Error{%d}, got %#v", wire.CodeBadRequest, m)
				}
				break
			}
			if n := srv.Metrics().SessionsOpen; n != 0 {
				t.Fatalf("%d session slots still held when the Error arrived", n)
			}
			if out.String() != golden {
				t.Fatalf("output ahead of the Error differs from local:\n--- local ---\n%s\n--- remote ---\n%s", golden, out.String())
			}
		})
	}
}

// TestDrainOrderDeterministic is the drain-order regression test: a drain
// must cut idle connections immediately while a busy connection — even one
// whose client is still composing the answer to an open prompt — is served
// to completion.
func TestDrainOrderDeterministic(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	spec := interactiveSpec()
	golden := interactiveGolden(t, spec, []string{"halt"})

	// Busy connection: no cluster capability, parked at its first prompt.
	busy := dialCluster(t, addr, 0)
	if err := wire.WriteMsg(busy, &wire.Run{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	driveUntilPrompt(t, busy, &out)

	// Idle connection: handshake done, no request in flight.
	idle := dialCluster(t, addr, 0)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- srv.Shutdown(ctx)
	}()

	// The idle connection dies promptly, well before the busy one finishes.
	idle.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := wire.ReadMsg(idle); err == nil {
		t.Fatal("idle connection survived the drain")
	}

	// The busy connection answers its open prompt and is served in full —
	// without cluster capability a drain never migrates, it waits.
	if err := wire.WriteMsg(busy, &wire.Command{Line: "halt"}); err != nil {
		t.Fatal(err)
	}
	finishSession(t, busy, &out, nil)
	if out.String() != golden {
		t.Fatalf("drained session output differs from local:\n--- local ---\n%s\n--- drained ---\n%s", golden, out.String())
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestStatProbe: cluster peers can probe load and drain state.
func TestStatProbe(t *testing.T) {
	srv, addr := startServer(t, server.Config{MaxSessions: 7})
	conn := dialCluster(t, addr, wire.FlagCluster)
	if err := wire.WriteMsg(conn, &wire.Stat{}); err != nil {
		t.Fatal(err)
	}
	m, err := wire.ReadMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	sr, ok := m.(*wire.StatReply)
	if !ok {
		t.Fatalf("want StatReply, got %T", m)
	}
	if sr.Sessions != 0 || sr.MaxSessions != 7 || sr.Draining {
		t.Fatalf("unexpected stat %+v", sr)
	}
	if srv.Metrics().StatProbes != 1 {
		t.Fatal("stat probe not counted")
	}
}

// TestClusterRefusedWithoutCap: Stat and SessResume require the negotiated
// capability; a DisableCluster server never grants it.
func TestClusterRefusedWithoutCap(t *testing.T) {
	_, addr := startServer(t, server.Config{DisableCluster: true})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if err := wire.WriteMsgFlags(conn, &wire.Hello{Version: wire.Version, Client: "edbd-gw/test"}, wire.FlagCluster); err != nil {
		t.Fatal(err)
	}
	_, flags, err := wire.ReadMsgFlags(conn)
	if err != nil {
		t.Fatal(err)
	}
	if flags&wire.FlagCluster != 0 {
		t.Fatal("DisableCluster server granted FlagCluster")
	}
	if err := wire.WriteMsg(conn, &wire.Stat{}); err != nil {
		t.Fatal(err)
	}
	m, err := wire.ReadMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := m.(*wire.Error); !ok || e.Code != wire.CodeBadRequest {
		t.Fatalf("want Error{CodeBadRequest}, got %#v", m)
	}
}
