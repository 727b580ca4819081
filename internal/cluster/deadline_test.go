package cluster

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

// These tests pin the gateway deadlineWriter/recvf contract on a
// synchronous net.Pipe, where every Write blocks until the peer reads —
// the deterministic stand-in for a TCP peer with full socket buffers. The
// gateway's writer differs from the backend's: one wire frame can exceed
// 64 KiB (a large console output chunk, a SessResume carrying a long
// journal), so a single Write call is chunked internally with a fresh
// deadline per chunk, and the deadline is cleared afterwards so idle time
// before the next frame can't trip a stale absolute deadline.

// TestDeadlineWriterChunkedSlowReader: one Write far larger than
// writeChunk, drained slowly but steadily, must complete even though the
// total transfer takes longer than the write deadline — the deadline
// bounds per-chunk stall, not the whole frame.
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

	w := &deadlineWriter{conn: cw, d: deadline}
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

// TestDeadlineWriterClearsStaleDeadline: after a multi-chunk send, the
// connection may sit idle for longer than the write deadline before the
// next frame. The chunked path must clear its last deadline, or that idle
// time fails the next raw write spuriously.
func TestDeadlineWriterClearsStaleDeadline(t *testing.T) {
	cw, cr := net.Pipe()
	defer cw.Close()
	defer cr.Close()

	const deadline = 150 * time.Millisecond
	go func() {
		io.Copy(io.Discard, cr)
	}()

	w := &deadlineWriter{conn: cw, d: deadline}
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

// TestDeadlineWriterStuckReaderTimesOut: a peer that stops reading
// entirely must fail the chunked write in roughly one deadline — chunking
// extends patience for progress, never for a stall.
func TestDeadlineWriterStuckReaderTimesOut(t *testing.T) {
	cw, cr := net.Pipe()
	defer cw.Close()
	defer cr.Close()

	const deadline = 150 * time.Millisecond
	// Drain one chunk then stop: the stall is mid-frame, after progress.
	go func() {
		io.ReadFull(cr, make([]byte, writeChunk))
	}()

	w := &deadlineWriter{conn: cw, d: deadline}
	start := time.Now()
	_, err := w.Write(make([]byte, 4*writeChunk))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("write to a stuck reader succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want a timeout error, got %v", err)
	}
	if elapsed > 5*deadline {
		t.Fatalf("stuck write took %v, want ~%v", elapsed, deadline)
	}
}

// TestRecvfRearmsPerFrame: each recvf call arms a fresh read deadline, so
// an idle gap longer than the per-frame timeout between two frames is
// fine — only a silent peer within one frame times out.
func TestRecvfRearmsPerFrame(t *testing.T) {
	cw, cr := net.Pipe()
	defer cw.Close()
	defer cr.Close()

	const deadline = 200 * time.Millisecond
	g := New(Config{})
	go func() {
		// net.Pipe is synchronous: each write parks until the reader takes
		// it, so frame 2 waits out the reader's idle gap on the writer side.
		wire.WriteMsg(cw, &wire.Stat{})
		wire.WriteMsg(cw, &wire.Stat{})
	}()

	for i := 0; i < 2; i++ {
		if i > 0 {
			// Idle past the previous call's deadline: only a fresh re-arm
			// lets the next frame through.
			time.Sleep(3 * deadline / 2)
		}
		m, _, err := g.recvf(cr, deadline)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if _, ok := m.(*wire.Stat); !ok {
			t.Fatalf("frame %d: got %T", i, m)
		}
	}

	// And the timeout still bites when the peer goes silent mid-wait.
	start := time.Now()
	if _, _, err := g.recvf(cr, deadline); err == nil {
		t.Fatal("recvf with a silent peer returned a frame")
	} else if !isTimeout(err) {
		t.Fatalf("want timeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*deadline {
		t.Fatalf("silent-peer recvf took %v, want ~%v", elapsed, deadline)
	}
}
