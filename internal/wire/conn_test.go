package wire

import (
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/tlstest"
)

// The deadline tests run on a synchronous net.Pipe, where every Write
// blocks until the peer reads it: the deterministic stand-in for a TCP
// peer with full socket buffers.

// TestDeadlineWriterSlowReader: a reader that drains steadily but slowly
// is never cut off, even when the whole transfer takes longer than the
// write timeout. A single absolute deadline around a chunked send bounded
// the transfer instead of per-write progress.
func TestDeadlineWriterSlowReader(t *testing.T) {
	cw, cr := net.Pipe()
	defer cw.Close()
	defer cr.Close()

	const (
		chunks    = 8
		chunkSize = 1024
		deadline  = 500 * time.Millisecond
		drainGap  = 100 * time.Millisecond // per-chunk reader delay; 8x ≈ 800ms total
	)
	readerDone := make(chan error, 1)
	go func() {
		buf := make([]byte, chunkSize)
		for i := 0; i < chunks; i++ {
			time.Sleep(drainGap)
			if _, err := io.ReadFull(cr, buf); err != nil {
				readerDone <- err
				return
			}
		}
		readerDone <- nil
	}()

	w := &DeadlineWriter{Conn: cw, Timeout: deadline}
	start := time.Now()
	buf := make([]byte, chunkSize)
	for i := 0; i < chunks; i++ {
		if _, err := w.Write(buf); err != nil {
			t.Fatalf("write %d failed after %v: %v", i, time.Since(start), err)
		}
	}
	if err := <-readerDone; err != nil {
		t.Fatalf("reader: %v", err)
	}
	if elapsed := time.Since(start); elapsed <= deadline {
		t.Fatalf("transfer finished in %v <= %v; too fast to prove the per-write deadline mattered", elapsed, deadline)
	}
}

// TestDeadlineWriterChunkedSlowReader: one Write far larger than
// writeChunk, drained slowly but steadily, completes even though the
// transfer takes longer than the timeout: the deadline bounds the stall
// per chunk, not the whole frame.
func TestDeadlineWriterChunkedSlowReader(t *testing.T) {
	cw, cr := net.Pipe()
	defer cw.Close()
	defer cr.Close()

	const (
		deadline = 300 * time.Millisecond
		chunks   = 6
		drainGap = 100 * time.Millisecond // 6x ≈ 600ms total > deadline
	)
	big := make([]byte, chunks*writeChunk)

	readerDone := make(chan error, 1)
	go func() {
		buf := make([]byte, writeChunk)
		for read := 0; read < len(big); read += len(buf) {
			time.Sleep(drainGap)
			if _, err := io.ReadFull(cr, buf); err != nil {
				readerDone <- err
				return
			}
		}
		readerDone <- nil
	}()

	w := &DeadlineWriter{Conn: cw, Timeout: deadline}
	start := time.Now()
	if _, err := w.Write(big); err != nil {
		t.Fatalf("chunked write failed after %v: %v", time.Since(start), err)
	}
	if err := <-readerDone; err != nil {
		t.Fatalf("reader: %v", err)
	}
	if elapsed := time.Since(start); elapsed <= deadline {
		t.Fatalf("transfer finished in %v <= %v; too fast to prove per-chunk re-arming mattered", elapsed, deadline)
	}
}

// TestDeadlineWriterClearsStaleDeadline: after a multi-chunk send the
// connection may sit idle for longer than the timeout before the next
// frame. The writer clears its last deadline, or that idle time would fail
// the next raw write.
func TestDeadlineWriterClearsStaleDeadline(t *testing.T) {
	cw, cr := net.Pipe()
	defer cw.Close()
	defer cr.Close()

	const deadline = 150 * time.Millisecond
	go io.Copy(io.Discard, cr)

	w := &DeadlineWriter{Conn: cw, Timeout: deadline}
	if _, err := w.Write(make([]byte, 2*writeChunk+1)); err != nil {
		t.Fatalf("chunked write: %v", err)
	}

	// Idle past the deadline, then write on the bare conn: only a cleared
	// deadline lets this succeed.
	time.Sleep(2 * deadline)
	if _, err := cw.Write([]byte("after-idle")); err != nil {
		t.Fatalf("write after idle hit a stale deadline: %v", err)
	}
}

// TestDeadlineWriterStuckReader: a peer that stops reading fails the write
// within about one timeout, whether it never read at all or stalled in
// the middle of a multi-chunk frame: chunking extends patience for
// progress, never for a stall.
func TestDeadlineWriterStuckReader(t *testing.T) {
	const deadline = 150 * time.Millisecond
	for _, tc := range []struct {
		name    string
		size    int
		drained int // bytes the reader takes before it stops
	}{
		{"no-progress", 1, 0},
		{"mid-frame", 4 * writeChunk, writeChunk},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cw, cr := net.Pipe()
			defer cw.Close()
			defer cr.Close()
			go io.ReadFull(cr, make([]byte, tc.drained))

			w := &DeadlineWriter{Conn: cw, Timeout: deadline}
			start := time.Now()
			_, err := w.Write(make([]byte, tc.size))
			elapsed := time.Since(start)
			if !IsTimeout(err) {
				t.Fatalf("want a timeout error, got %v", err)
			}
			if elapsed > 5*deadline {
				t.Fatalf("stuck write took %v, want ~%v", elapsed, deadline)
			}
		})
	}
}

// TestAbsoluteDeadlineSpuriouslyFails documents the bug DeadlineWriter
// prevents: the slow-but-draining reader of TestDeadlineWriterSlowReader,
// against one absolute deadline, times out mid-transfer.
func TestAbsoluteDeadlineSpuriouslyFails(t *testing.T) {
	cw, cr := net.Pipe()
	defer cw.Close()
	defer cr.Close()

	const (
		chunks    = 8
		chunkSize = 1024
		deadline  = 300 * time.Millisecond
		drainGap  = 100 * time.Millisecond
	)
	go func() {
		buf := make([]byte, chunkSize)
		for i := 0; i < chunks; i++ {
			time.Sleep(drainGap)
			if _, err := io.ReadFull(cr, buf); err != nil {
				return
			}
		}
	}()

	cw.SetWriteDeadline(time.Now().Add(deadline))
	buf := make([]byte, chunkSize)
	var err error
	for i := 0; i < chunks && err == nil; i++ {
		_, err = cw.Write(buf)
	}
	if err == nil {
		t.Fatal("an absolute whole-transfer deadline should have cut the slow reader off")
	}
	if !IsTimeout(err) {
		t.Fatalf("want a timeout error, got %v", err)
	}
}

// TestRecvMsgRearmsPerFrame: each RecvMsg, and each Recv through a Peer's
// buffered reader, arms a fresh read deadline, so an idle gap longer than
// the timeout between two frames is fine; only a peer silent within one
// wait times out.
func TestRecvMsgRearmsPerFrame(t *testing.T) {
	for _, tc := range []struct {
		name string
		recv func(net.Conn) func(time.Duration) (Msg, error)
	}{
		{"RecvMsg", func(c net.Conn) func(time.Duration) (Msg, error) {
			return func(d time.Duration) (Msg, error) {
				m, _, err := RecvMsg(c, d)
				return m, err
			}
		}},
		{"Peer", func(c net.Conn) func(time.Duration) (Msg, error) { return NewPeer(c, time.Second).Recv }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cw, cr := net.Pipe()
			defer cw.Close()
			defer cr.Close()

			const deadline = 200 * time.Millisecond
			go func() {
				// net.Pipe is synchronous: each write parks until the reader
				// takes it, so frame 2 waits out the reader's idle gap on the
				// writer side.
				WriteMsg(cw, &Stat{})
				WriteMsg(cw, &Stat{})
			}()

			recv := tc.recv(cr)
			for i := 0; i < 2; i++ {
				if i > 0 {
					// Idle past the previous call's deadline: only a fresh
					// re-arm lets the next frame through.
					time.Sleep(3 * deadline / 2)
				}
				m, err := recv(deadline)
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if _, ok := m.(*Stat); !ok {
					t.Fatalf("frame %d: got %T", i, m)
				}
			}

			start := time.Now()
			if _, err := recv(deadline); !IsTimeout(err) {
				t.Fatalf("want a timeout from a silent peer, got %v", err)
			}
			if elapsed := time.Since(start); elapsed > 5*deadline {
				t.Fatalf("silent-peer read took %v, want ~%v", elapsed, deadline)
			}
		})
	}
}

// writeCounter is a net.Conn that records each Write as one buffer.
type writeCounter struct {
	net.Conn
	writes [][]byte
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (w *writeCounter) SetWriteDeadline(time.Time) error { return nil }

// TestPeerWritesQueuedFramesWithTheNext: queued frames leave in the write
// of the next Send, in order; held frames write themselves once they pass
// 32 KiB; Flush writes what is held and nothing when nothing is.
func TestPeerWritesQueuedFramesWithTheNext(t *testing.T) {
	conn := &writeCounter{}
	p := NewPeer(conn, time.Second)
	frames := func(b []byte) []Msg {
		t.Helper()
		var ms []Msg
		for r := bytes.NewReader(b); r.Len() > 0; {
			m, err := ReadMsg(r)
			if err != nil {
				t.Fatal(err)
			}
			ms = append(ms, m)
		}
		return ms
	}

	out := &Output{Data: []byte("(edb) ")}
	n, err := p.Queue(out)
	if err != nil || n != headerSize+4+len(out.Data) {
		t.Fatalf("Queue = %d, %v", n, err)
	}
	if len(conn.writes) != 0 {
		t.Fatal("Queue wrote a frame the peer need not act on yet")
	}
	if err := p.Send(&Prompt{}); err != nil {
		t.Fatal(err)
	}
	if len(conn.writes) != 1 {
		t.Fatalf("Output then Prompt took %d writes, want 1", len(conn.writes))
	}
	if got := frames(conn.writes[0]); !reflect.DeepEqual(got, []Msg{out, &Prompt{}}) {
		t.Fatalf("the write carried %#v", got)
	}

	if err := p.Flush(); err != nil || len(conn.writes) != 1 {
		t.Fatalf("an empty Flush wrote (%d writes, %v)", len(conn.writes), err)
	}
	big := &Output{Data: make([]byte, 20<<10)}
	for i := 1; i <= 2; i++ {
		if _, err := p.Queue(big); err != nil {
			t.Fatal(err)
		}
	}
	if len(conn.writes) != 2 || len(frames(conn.writes[1])) != 2 {
		t.Fatalf("two 20 KiB frames held: %d writes, want the second to write both", len(conn.writes))
	}
	if err := p.Flush(); err != nil || len(conn.writes) != 2 {
		t.Fatalf("Flush after a self-write wrote again (%d writes, %v)", len(conn.writes), err)
	}
}

// frameLoop is a net.Conn whose reads serve the same bytes over and over.
type frameLoop struct {
	net.Conn
	frames []byte
	off    int
}

func (c *frameLoop) Read(p []byte) (int, error) {
	n := copy(p, c.frames[c.off:])
	c.off = (c.off + n) % len(c.frames)
	return n, nil
}

func (c *frameLoop) SetReadDeadline(time.Time) error { return nil }

// TestPeerRecvAllocatesWhatTheMessageKeeps: a Peer reads every frame into
// one payload buffer with one decoder, so receiving an Output costs the
// message and its data, and receiving a Command the message and its line.
func TestPeerRecvAllocatesWhatTheMessageKeeps(t *testing.T) {
	for _, m := range []Msg{
		&Output{Data: []byte("list: node 7 appended\n")},
		&Command{Line: "read 0x4408"},
	} {
		f, err := EncodeMsg(m)
		if err != nil {
			t.Fatal(err)
		}
		p := NewPeer(&frameLoop{frames: f}, time.Second)
		var got Msg
		allocs := testing.AllocsPerRun(100, func() {
			if got, err = p.Recv(time.Second); err != nil {
				t.Fatal(err)
			}
		})
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("received %#v, sent %#v", got, m)
		}
		if allocs > 2 {
			t.Errorf("%T: Recv allocates %.1f times per frame, want at most 2", m, allocs)
		}
	}
}

// TestDecodedMessageOwnsItsBytes: a decoded message copies every byte it
// keeps. Overwriting the frame it was decoded from must leave it
// re-encoding to that frame, and a Peer that reuses its payload buffer
// must return every message of a stream intact after reading the rest.
func TestDecodedMessageOwnsItsBytes(t *testing.T) {
	msgs := sampleMsgs()
	var stream []byte
	for _, m := range msgs {
		f, err := EncodeMsg(m)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, f...)
		buf := bytes.Clone(f)
		got, err := DecodePayload(buf[0], buf[headerSize:])
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		for i := range buf {
			buf[i] = ^buf[i]
		}
		if re, err := EncodeMsg(got); err != nil || !bytes.Equal(re, f) {
			t.Errorf("%T: after the frame was overwritten the message re-encodes to %x (%v), want %x", m, re, err, f)
		}
	}
	p := NewPeer(&frameLoop{frames: stream}, time.Second)
	got := make([]Msg, len(msgs))
	for i := range got {
		var err error
		if got[i], err = p.Recv(time.Second); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(got, msgs) {
		t.Fatal("messages a Peer received changed as it read the frames after them")
	}
}

// TestDialSilentPeerTimesOut: a peer that accepts and never answers fails
// the dial within its timeout, over plaintext (no Welcome) and over TLS
// (no ServerHello). An unbounded TLS handshake once left a backend's Join
// heartbeat blocked for good on a silent gateway.
func TestDialSilentPeerTimesOut(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		var held []net.Conn // open, never read or written
		defer func() {
			for _, c := range held {
				c.Close()
			}
		}()
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			held = append(held, c)
		}
	}()
	certPEM, _, err := tlstest.GenerateKeypair([]string{"127.0.0.1"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cliTLS, err := tlstest.ClientConfig(certPEM, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	const timeout, slack = 300 * time.Millisecond, time.Second
	for _, tc := range []struct {
		name string
		tls  *tls.Config
	}{{"plaintext", nil}, {"tls", cliTLS}} {
		t.Run(tc.name, func(t *testing.T) {
			d := Dialer{Timeout: timeout, TLS: tc.tls, Name: "silent-test"}
			start := time.Now()
			conn, _, _, err := d.Dial(context.Background(), lis.Addr().String(), 0)
			elapsed := time.Since(start)
			if err == nil {
				conn.Close()
				t.Fatal("dial to a silent peer succeeded")
			}
			if elapsed > timeout+slack {
				t.Fatalf("dial to a silent peer failed after %v, want within %v", elapsed, timeout)
			}
			if !errors.Is(err, ErrHandshake) {
				t.Fatalf("want ErrHandshake, got %v", err)
			}
		})
	}
}

// TestAcceptorCountsAndRateLimits: the accepting side of the handshake,
// which backends and gateways share, counts every outcome and logs
// failures at most once a second, reporting what it held back.
func TestAcceptorCountsAndRateLimits(t *testing.T) {
	certPEM, keyPEM, err := tlstest.GenerateKeypair([]string{"127.0.0.1"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	srvTLS, err := tlstest.ServerConfig(certPEM, keyPEM, nil)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	a := &Acceptor{Name: "edbd", Token: "tok", WriteTimeout: time.Second,
		Logf: func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }}
	// accept runs Accept on the test goroutine against a peer that sends
	// one Hello and reads the reply.
	accept := func(flags byte, token string) (byte, error) {
		srv, cli := net.Pipe()
		defer srv.Close()
		go func() {
			defer cli.Close()
			WriteMsgFlags(cli, &Hello{Version: Version, Client: "t", Token: token}, flags)
			ReadMsgFlags(cli)
		}()
		return a.Accept(srv)
	}

	for i := 0; i < 3; i++ {
		var werr *Error
		if _, err := accept(FlagAuth, "wrong"); !errors.As(err, &werr) || werr.Code != CodeAuth {
			t.Fatalf("bad token %d: want Error{CodeAuth}, got %v", i, err)
		}
	}
	caps, err := accept(0x80|FlagAuth|FlagTraceZ, "tok")
	if err != nil || caps != FlagAuth|FlagTraceZ {
		t.Fatalf("good token with an unknown bit: caps %#02x, err %v", caps, err)
	}
	srv, cli := net.Pipe()
	go func() {
		defer cli.Close()
		cli.Write([]byte("not a TLS ClientHello"))
		io.Copy(io.Discard, cli)
	}()
	if _, err := a.Accept(tls.Server(srv, srvTLS)); err == nil {
		t.Fatal("a garbage TLS handshake was accepted")
	}
	srv.Close()

	want := HandshakeMetrics{AuthHandshakes: 1, AuthFailures: 3, TLSHandshakeFailures: 1, UnknownCapHellos: 1}
	if got := a.Metrics(); got != want {
		t.Fatalf("counters %+v, want %+v", got, want)
	}
	// Five failures inside one second: the first is logged, four are held
	// back. The successful handshake is always logged.
	if len(lines) != 2 || !strings.Contains(lines[0], "bad token") || !strings.Contains(lines[1], "handshake ok") {
		t.Fatalf("log lines %q, want the first failure and the accepted handshake", lines)
	}
	a.lastLog = a.lastLog.Add(-time.Second)
	accept(FlagAuth, "wrong")
	if len(lines) != 3 || !strings.HasSuffix(lines[2], "(4 similar suppressed)") {
		t.Fatalf("log after the quiet second %q, want the count of suppressed lines", lines)
	}
}
