package server_test

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestPreCodecClient is the guarantee for a client built before any
// capability existed: its Hello offers no bits, so it cannot decode the
// TraceZ frames that are the only trace encoding. Against a backend and
// through a gateway, its untraced sessions (the first cold, the second
// forked from the pool's template) match the local transcript byte for
// byte, and a traced Run is refused with Error{CodeBadRequest} before it
// simulates anything, every session slot free when the Error arrives. The
// refusal ends the request, not the connection: a Ping after it gets its
// Pong on both tiers.
func TestPreCodecClient(t *testing.T) {
	spec := testSpec(42)
	golden, _ := localGolden(t, spec)
	for _, via := range []string{"backend", "gateway"} {
		t.Run(via, func(t *testing.T) {
			srv, addr := startServer(t, server.Config{})
			slots := func() int64 { return srv.Metrics().SessionsOpen }
			if via == "gateway" {
				gw, gwAddr := startGateway(t, cluster.Config{Backends: []string{addr}, HealthInterval: time.Hour})
				addr = gwAddr
				slots = func() int64 { return srv.Metrics().SessionsOpen + gw.Metrics().Backends[0].Inflight }
			}
			conn := dialCluster(t, addr, 0)
			for i := 0; i < 2; i++ {
				if err := wire.WriteMsg(conn, &wire.Run{Spec: spec}); err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				finishSession(t, conn, &out, nil)
				if out.String() != golden {
					t.Fatalf("run %d: pre-codec transcript differs from local:\n--- local ---\n%s\n--- remote ---\n%s",
						i, golden, out.String())
				}
			}
			if m := srv.Metrics(); m.ColdBoots != 1 || m.WarmForks != 1 {
				t.Fatalf("pool metrics: cold=%d warm=%d, want 1/1", m.ColdBoots, m.WarmForks)
			}

			cycles := srv.Metrics().SimCycles
			if err := wire.WriteMsg(conn, &wire.Run{Spec: traceSpec(42), StreamTrace: true}); err != nil {
				t.Fatal(err)
			}
			m, err := wire.ReadMsg(conn)
			if werr, ok := m.(*wire.Error); err != nil || !ok || werr.Code != wire.CodeBadRequest {
				t.Fatalf("traced run: want Error{%d}, got %#v (%v)", wire.CodeBadRequest, m, err)
			}
			if n := slots(); n != 0 {
				t.Fatalf("%d session slots still held when the Error arrived", n)
			}
			if got := srv.Metrics().SimCycles; got != cycles {
				t.Fatalf("the refused run simulated %d cycles", got-cycles)
			}
			if err := wire.WriteMsg(conn, &wire.Ping{Token: 99}); err != nil {
				t.Fatal(err)
			}
			if m, err := wire.ReadMsg(conn); err != nil {
				t.Fatalf("ping after the refused run: %v", err)
			} else if pong, ok := m.(*wire.Pong); !ok || pong.Token != 99 {
				t.Fatalf("ping after the refused run: want Pong{99}, got %#v", m)
			}
		})
	}
}

// TestNoCommandEndsSession: a client that answers a prompt with anything
// but a Command gets no time-travel and no command. A retired snapshot
// frame (type 0x12 or 0x13) fails to decode as an unknown type; a Ping
// decodes but is no answer. Against a backend and through a gateway, each
// ends the session with Error{CodeBadRequest}, and a prompt left
// unanswered ends it with Error{CodeIdle}. The Error is sent after the
// session's slot is freed, so with one slot the next session is admitted,
// and then the connection closes. A retired frame sent in place of a
// request is refused the same way.
func TestNoCommandEndsSession(t *testing.T) {
	const idle = 200 * time.Millisecond
	srv, backend := startServer(t, server.Config{MaxSessions: 1, IdleTimeout: idle})
	gw, gateway := startGateway(t, cluster.Config{Backends: []string{backend}, IdleTimeout: idle, HealthInterval: time.Hour})
	spec := testSpec(42)
	spec.Script = ""
	spec.Interactive = true
	ping, err := wire.EncodeMsg(&wire.Ping{Token: 7})
	if err != nil {
		t.Fatal(err)
	}
	answers := []struct {
		name    string
		frame   []byte // nil for no answer
		request bool   // sent in place of the Run, not at a prompt
		code    uint16
	}{
		{"0x12", []byte{0x12, 0, 0, 0, 0, 0}, false, wire.CodeBadRequest},
		{"0x13", []byte{0x13, 0, 0, 0, 0, 0}, false, wire.CodeBadRequest},
		{"ping", ping, false, wire.CodeBadRequest},
		{"request-0x12", []byte{0x12, 0, 0, 0, 0, 0}, true, wire.CodeBadRequest},
		{"idle", nil, false, wire.CodeIdle},
	}
	tiers := []struct {
		name, addr string
		slots      func() int64 // session slots held where the frame ends the session
		open       func() int64 // sessions still open once the connection closed
	}{
		{"backend", backend, func() int64 { return srv.Metrics().SessionsOpen }, func() int64 { return srv.Metrics().SessionsOpen }},
		{"gateway", gateway, func() int64 { return gw.Metrics().Backends[0].Inflight }, func() int64 { return gw.Metrics().SessionsActive }},
	}
	for _, tier := range tiers {
		for _, a := range answers {
			t.Run(tier.name+"/"+a.name, func(t *testing.T) {
				conn := dialCluster(t, tier.addr, 0)
				if !a.request {
					if err := wire.WriteMsg(conn, &wire.Run{Spec: spec}); err != nil {
						t.Fatal(err)
					}
					var banner bytes.Buffer
					driveUntilPrompt(t, conn, &banner)
				}
				before := srv.Metrics()
				if _, err := conn.Write(a.frame); err != nil {
					t.Fatal(err)
				}
				m, err := wire.ReadMsg(conn)
				if werr, ok := m.(*wire.Error); err != nil || !ok || werr.Code != a.code {
					t.Fatalf("want Error{%d}, got %#v (%v)", a.code, m, err)
				}
				if n := tier.slots(); n != 0 {
					t.Fatalf("%d session slots still held when the Error arrived", n)
				}
				if m, err := wire.ReadMsg(conn); err != io.EOF {
					t.Fatalf("want EOF after the Error, got %T (%v)", m, err)
				}
				if n := tier.open(); n != 0 {
					t.Fatalf("%d sessions still open after the close", n)
				}
				// Through a gateway the backend's session ends when the
				// gateway hangs up on it.
				for deadline := time.Now().Add(10 * time.Second); srv.Metrics().SessionsOpen != 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("the backend session never ended")
					}
				}
				if after := srv.Metrics(); after.CommandsServed != before.CommandsServed {
					t.Fatalf("the answer ran %d commands", after.CommandsServed-before.CommandsServed)
				}
			})
		}
	}
}

// replies runs an interactive session on cl, answering its prompts with
// cmds in order and EOF after. replies[0] is the output before the first
// prompt, and replies[i] the output of cmds[i-1] up to the next prompt,
// without the prompt string.
func replies(t *testing.T, cl *client.Client, spec scenario.Spec, cmds []string) []string {
	t.Helper()
	var out bytes.Buffer
	var got []string
	mark := 0
	cut := func() {
		got = append(got, strings.TrimSuffix(out.String()[mark:], "(edb) "))
		mark = out.Len()
	}
	i := 0
	if _, err := cl.Run(spec, &out, func() (string, bool) {
		if len(got) <= len(cmds) {
			cut()
		}
		if i == len(cmds) {
			return "", false
		}
		i++
		return cmds[i-1], true
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(got) <= len(cmds) {
		cut()
	}
	return got
}

// TestRemoteSnapRestore drives remote time-travel end to end, against a
// backend and through a gateway: arm a snapshot, mutate target memory
// through the console, revert, and read the memory back at its
// snapshotted value. snap and restore are console lines like any other.
func TestRemoteSnapRestore(t *testing.T) {
	_, backend := startServer(t, server.Config{})
	_, gateway := startGateway(t, cluster.Config{Backends: []string{backend}})
	spec := testSpec(42)
	spec.Script = ""
	spec.Interactive = true
	cmds := []string{"snap", "read 0x4400", "write 0x4400 0xBEEF", "read 0x4400", "restore", "read 0x4400"}
	for via, addr := range map[string]string{"backend": backend, "gateway": gateway} {
		cl, err := client.Dial(addr, client.Options{})
		if err != nil {
			t.Fatalf("%s: dial: %v", via, err)
		}
		r := replies(t, cl, spec, cmds)
		cl.Close()
		if len(r) != len(cmds)+1 {
			t.Fatalf("%s: %d replies for %d commands", via, len(r)-1, len(cmds))
		}
		if !strings.Contains(r[1], "snapshot armed") {
			t.Fatalf("%s: snap output: %q", via, r[1])
		}
		before, after, reverted := r[2], r[4], r[6]
		if before == after {
			t.Fatalf("%s: write must change the read-back", via)
		}
		if !strings.Contains(r[5], "restored") {
			t.Fatalf("%s: restore output: %q", via, r[5])
		}
		if reverted != before {
			t.Fatalf("%s: time-travel failed:\nbefore  %q\nafter   %q\nrevert  %q", via, before, after, reverted)
		}
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
