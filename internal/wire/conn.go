package wire

import (
	"bufio"
	"context"
	"crypto/subtle"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// handshakeTimeout bounds the accepting side's TLS handshake and its wait
// for the Hello.
const handshakeTimeout = 10 * time.Second

// writeChunk bounds the bytes a DeadlineWriter sends under one deadline.
// A frame can be up to MaxFrame (a large Output chunk, a SessResume with a
// long journal); one deadline for all of it would cut off a peer that
// drains steadily but needs longer than the timeout in aggregate.
const writeChunk = 64 << 10

// pendingLimit is the size past which a Peer's queued frames write
// themselves.
const pendingLimit = 32 << 10

// ErrHandshake marks a dial that reached the peer but failed its TLS
// handshake or its Hello/Welcome exchange: a retry meets the same peer.
// One sentinel covers both because under TLS 1.3 a server's verdict on
// the client certificate arrives only with its first record, the Welcome.
var ErrHandshake = errors.New("wire: handshake")

// Dialer opens connections to an edbd peer and runs the dialing side of
// the handshake.
type Dialer struct {
	// Timeout bounds each Dial as a whole: the TCP connect, the TLS
	// handshake and the Hello/Welcome exchange.
	Timeout time.Duration
	// TLS, when set, runs TLS over the TCP connection. An empty ServerName
	// is filled from the dialed host unless verification is off.
	TLS *tls.Config
	// Name identifies the dialer in the Hello, for the peer's logs.
	Name string
	// Token, when non-empty, is offered with FlagAuth.
	Token string
}

// Dial connects to addr and offers caps in the Hello, plus FlagAuth when
// the Dialer has a token. It returns the connection with no deadline
// armed, the peer's Welcome, and the capability bits the peer granted
// among those offered. A refused handshake returns the peer's *Error, and
// any other failure after the connect an error wrapping ErrHandshake.
func (d *Dialer) Dial(ctx context.Context, addr string, caps byte) (net.Conn, *Welcome, byte, error) {
	ctx, cancel := context.WithTimeout(ctx, d.Timeout)
	defer cancel()
	conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, 0, err
	}
	// One deadline covers the rest of the handshake, so a peer that
	// accepts and then falls silent fails the dial within Timeout.
	deadline, _ := ctx.Deadline()
	conn.SetDeadline(deadline)
	if d.TLS != nil {
		cfg := d.TLS
		if cfg.ServerName == "" && !cfg.InsecureSkipVerify {
			if host, _, err := net.SplitHostPort(addr); err == nil {
				cfg = cfg.Clone()
				cfg.ServerName = host
			}
		}
		tc := tls.Client(conn, cfg)
		if err := tc.HandshakeContext(ctx); err != nil {
			conn.Close()
			return nil, nil, 0, fmt.Errorf("%w with %s: tls: %v", ErrHandshake, addr, err)
		}
		conn = tc
	}
	w, granted, err := d.hello(conn, addr, caps)
	if err != nil {
		conn.Close()
		return nil, nil, 0, err
	}
	conn.SetDeadline(time.Time{})
	return conn, w, granted, nil
}

func (d *Dialer) hello(conn net.Conn, addr string, caps byte) (*Welcome, byte, error) {
	hello := &Hello{Version: Version, Client: d.Name}
	if d.Token != "" {
		// Only a dialer with a token offers FlagAuth, so a token-less Hello
		// stays byte-identical to the pre-auth protocol.
		caps |= FlagAuth
		hello.Token = d.Token
	}
	if err := WriteMsgFlags(conn, hello, caps); err != nil {
		return nil, 0, fmt.Errorf("%w with %s: %w", ErrHandshake, addr, err)
	}
	m, flags, err := ReadMsgFlags(conn)
	if err != nil {
		return nil, 0, fmt.Errorf("%w with %s: %w", ErrHandshake, addr, err)
	}
	switch r := m.(type) {
	case *Welcome:
		if r.Version != Version {
			return nil, 0, fmt.Errorf("%w with %s: peer speaks protocol version %d, want %d", ErrHandshake, addr, r.Version, Version)
		}
		return r, flags & caps, nil
	case *Error:
		return nil, 0, r
	}
	return nil, 0, fmt.Errorf("%w with %s: unexpected reply %T", ErrHandshake, addr, m)
}

// HandshakeMetrics counts what an Acceptor saw. server.Metrics and
// cluster.Metrics embed it.
type HandshakeMetrics struct {
	AuthHandshakes       int64 // handshakes that authenticated with a valid token
	AuthFailures         int64 // handshakes rejected with Error{CodeAuth}
	TLSHandshakeFailures int64 // TLS handshakes that never reached the protocol
	UnknownCapHellos     int64 // Hellos advertising capability bits this build ignores
}

// Acceptor runs the accepting side of the handshake for one listener and
// counts what it sees. Set the exported fields before the first Accept.
type Acceptor struct {
	// Name identifies this side in the Welcome.
	Name string
	// Refuse holds the capability bits this listener never grants.
	Refuse byte
	// Token, when non-empty, is the token a Hello offering FlagAuth must
	// carry (compared in constant time).
	Token string
	// RequireAuth rejects every handshake that does not authenticate. With
	// no Token it fails closed: every handshake is rejected.
	RequireAuth bool
	// WriteTimeout bounds the write of the reply.
	WriteTimeout time.Duration
	// Logf, when set, receives one line per handshake.
	Logf func(format string, args ...any)

	authHandshakes, authFailures, tlsFailures, unknownCaps atomic.Int64

	logMu      sync.Mutex
	lastLog    time.Time
	suppressed int
}

// Accept runs the handshake on a newly accepted connection: the TLS
// handshake when conn is a *tls.Conn, then the Hello, the capability and
// token decisions, and the Welcome. It returns the granted capability
// bits. A refused handshake has already been answered with a typed Error
// frame; the caller only closes the connection.
func (a *Acceptor) Accept(conn net.Conn) (byte, error) {
	// Complete the TLS handshake explicitly (it would otherwise ride on the
	// first read), so certificate failures are counted and never reach the
	// protocol.
	if tc, ok := conn.(*tls.Conn); ok {
		ctx, cancel := context.WithTimeout(context.Background(), handshakeTimeout)
		err := tc.HandshakeContext(ctx)
		cancel()
		if err != nil {
			a.tlsFailures.Add(1)
			a.rlogf("conn %s: tls handshake failed: %v", conn.RemoteAddr(), err)
			return 0, err
		}
	}
	m, flags, err := RecvMsg(conn, handshakeTimeout)
	if err != nil {
		return 0, err
	}
	hello, ok := m.(*Hello)
	if !ok {
		return 0, a.reject(conn, CodeBadRequest, "expected Hello")
	}
	if hello.Version != Version {
		return 0, a.reject(conn, CodeVersion,
			fmt.Sprintf("server speaks protocol version %d, client sent %d", Version, hello.Version))
	}
	// Bits this build does not know are masked off: the peer is
	// down-negotiated, not disconnected, and counted so an operator can see
	// newer clients knocking.
	if unknown := flags &^ KnownCaps; unknown != 0 {
		a.unknownCaps.Add(1)
		a.rlogf("conn %s: hello advertised unknown capability bits %#02x (ignored)", conn.RemoteAddr(), unknown)
	}
	caps := flags & KnownCaps &^ a.Refuse &^ FlagAuth
	// The token is checked before the Welcome, so a rejected peer never
	// gets session state. FlagAuth is echoed only for a verified token.
	switch {
	case flags&FlagAuth != 0 && a.Token != "":
		if subtle.ConstantTimeCompare([]byte(hello.Token), []byte(a.Token)) != 1 {
			a.authFailures.Add(1)
			a.rlogf("conn %s: authentication failed (%s): bad token", conn.RemoteAddr(), hello.Client)
			return 0, a.reject(conn, CodeAuth, "authentication failed: bad token")
		}
		caps |= FlagAuth
		a.authHandshakes.Add(1)
	case a.RequireAuth:
		// No usable token: the client offered none, or none is configured
		// here. Fail closed either way.
		a.authFailures.Add(1)
		a.rlogf("conn %s: unauthenticated handshake rejected (%s)", conn.RemoteAddr(), hello.Client)
		text := "authentication required: offer FlagAuth with a token"
		if a.Token == "" {
			text = "authentication required but no token is configured server-side"
		}
		return 0, a.reject(conn, CodeAuth, text)
	}
	if err := SendMsg(conn, &Welcome{Version: Version, Server: a.Name}, caps, a.WriteTimeout); err != nil {
		return 0, err
	}
	if a.Logf != nil {
		a.Logf("conn %s: handshake ok (%s, caps %#02x)", conn.RemoteAddr(), hello.Client, caps)
	}
	return caps, nil
}

// reject answers a refused handshake with a typed Error and returns it.
func (a *Acceptor) reject(conn net.Conn, code uint16, text string) error {
	e := &Error{Code: code, Text: text}
	SendMsg(conn, e, 0, a.WriteTimeout)
	return e
}

// Metrics returns a snapshot of the handshake counters.
func (a *Acceptor) Metrics() HandshakeMetrics {
	return HandshakeMetrics{
		AuthHandshakes:       a.authHandshakes.Load(),
		AuthFailures:         a.authFailures.Load(),
		TLSHandshakeFailures: a.tlsFailures.Load(),
		UnknownCapHellos:     a.unknownCaps.Load(),
	}
}

// rlogf logs a handshake failure through Logf, at most once per second,
// counting what it suppressed in between: hostile peers control how often
// handshakes fail, so they must not control the log volume.
func (a *Acceptor) rlogf(format string, args ...any) {
	if a.Logf == nil {
		return
	}
	a.logMu.Lock()
	now := time.Now()
	if now.Sub(a.lastLog) < time.Second {
		a.suppressed++
		a.logMu.Unlock()
		return
	}
	suppressed := a.suppressed
	a.lastLog, a.suppressed = now, 0
	a.logMu.Unlock()
	if suppressed > 0 {
		format += fmt.Sprintf(" (%d similar suppressed)", suppressed)
	}
	a.Logf(format, args...)
}

// DeadlineWriter writes to Conn under a fresh write deadline of Timeout
// per 64 KiB, so the timeout bounds a stall, not a transfer: a reader that
// drains slowly but steadily is never cut, and one that stops reading
// fails the write within about one Timeout. After a write of more than one
// chunk it clears the deadline, so idle time before the next frame cannot
// trip a stale one.
type DeadlineWriter struct {
	Conn    net.Conn
	Timeout time.Duration
}

func (w *DeadlineWriter) Write(p []byte) (int, error) {
	if len(p) <= writeChunk {
		w.Conn.SetWriteDeadline(time.Now().Add(w.Timeout))
		return w.Conn.Write(p)
	}
	total := 0
	for len(p) > 0 {
		w.Conn.SetWriteDeadline(time.Now().Add(w.Timeout))
		n, err := w.Conn.Write(p[:min(len(p), writeChunk)])
		total += n
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	w.Conn.SetWriteDeadline(time.Time{})
	return total, nil
}

// SendMsg writes one frame carrying flags to conn through a DeadlineWriter
// with the given timeout. It serves the one-frame exchanges outside a
// request loop: the handshake, a connection-limit reject, a Stat probe and
// a Join. A request loop uses a Peer.
func SendMsg(conn net.Conn, m Msg, flags byte, timeout time.Duration) error {
	return WriteMsgFlags(&DeadlineWriter{Conn: conn, Timeout: timeout}, m, flags)
}

// RecvMsg reads one frame and its flags from conn under a fresh read
// deadline of timeout, so the timeout bounds the wait for this frame alone.
// It reads no byte past the frame, so a Peer can take the connection over.
func RecvMsg(conn net.Conn, timeout time.Duration) (Msg, byte, error) {
	conn.SetReadDeadline(time.Now().Add(timeout))
	return ReadMsgFlags(conn)
}

// Peer is one connection's frame I/O after the handshake. Reads go through
// a buffer, so the frames one peer write carried cost one read. Writes
// leave from a pending buffer: Queue holds a frame the peer need not act
// on yet, and Send writes everything held together with the frame that
// follows, in one DeadlineWriter write. Held frames write themselves once
// they pass 32 KiB. A Peer is not safe for concurrent use.
type Peer struct {
	conn net.Conn
	r    *bufio.Reader
	in   frameReader
	w    DeadlineWriter
	out  []byte
}

// NewPeer wraps a connection whose handshake is done; writeTimeout bounds
// each write's stall.
func NewPeer(conn net.Conn, writeTimeout time.Duration) *Peer {
	return &Peer{conn: conn, r: bufio.NewReader(conn), w: DeadlineWriter{Conn: conn, Timeout: writeTimeout}}
}

// Recv reads one frame under a fresh read deadline of timeout, as RecvMsg
// does. It reads every frame into one payload buffer with one decoder, so
// a frame costs only the allocations of the message it returns.
func (p *Peer) Recv(timeout time.Duration) (Msg, error) {
	p.conn.SetReadDeadline(time.Now().Add(timeout))
	m, _, err := p.in.read(p.r)
	return m, err
}

// RemoteAddr returns the peer's network address.
func (p *Peer) RemoteAddr() net.Addr { return p.conn.RemoteAddr() }

// Close closes the connection; held frames are dropped.
func (p *Peer) Close() error { return p.conn.Close() }

// Buffered returns the number of bytes already read from the connection
// that no Recv has consumed yet.
func (p *Peer) Buffered() int { return p.r.Buffered() }

// Queue appends m's frame to the pending buffer and returns the frame's
// size. It writes the buffer once that passes 32 KiB.
func (p *Peer) Queue(m Msg) (n int, err error) {
	n = len(p.out)
	if p.out, err = AppendMsg(p.out, m, 0); err != nil {
		return 0, err
	}
	n = len(p.out) - n
	if len(p.out) > pendingLimit {
		err = p.Flush()
	}
	return n, err
}

// Send queues m and writes everything pending.
func (p *Peer) Send(m Msg) error {
	if _, err := p.Queue(m); err != nil {
		return err
	}
	return p.Flush()
}

// Flush writes everything pending in one DeadlineWriter write.
func (p *Peer) Flush() error {
	if len(p.out) == 0 {
		return nil
	}
	_, err := p.w.Write(p.out)
	p.out = p.out[:0]
	return err
}

// IsBadFrame reports whether a read error rejects what the peer sent (a
// header or payload that does not decode) rather than the connection (an
// EOF, a reset, a closed connection, an expired deadline). A peer that sent
// a bad frame is still there to be told so.
func IsBadFrame(err error) bool {
	var ne net.Error
	return err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.As(err, &ne)
}

// IsTimeout reports whether err is a network timeout, such as an expired
// deadline.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
