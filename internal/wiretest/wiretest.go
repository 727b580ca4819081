// Package wiretest is the fault-injection proxy of the network tests. A
// Proxy stands between a client and one edbd address (a backend or a
// gateway) and cuts connections on a protocol event: on demand, from a
// prompt callback say, or halfway through a chosen frame. Each cut is
// recorded, so a test can prove that its fault fired.
package wiretest

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
)

// A Proxy relays every connection it accepts to its target: client bytes
// as they come, target bytes whole frame by whole frame. It records the
// type of each frame it relays to the client.
type Proxy struct {
	lis    net.Listener
	target string

	mu    sync.Mutex
	armed int // frame to cut inside on the next connection; -1 for none
	conns []*conn
}

// conn is one accepted connection and what befell it.
type conn struct {
	client, target net.Conn
	types          []byte // type of each target→client frame, in order
	live           bool   // both legs still open
	cut            bool   // a cut severed it while live
}

// NewProxy starts a proxy to target on a loopback port. It closes when
// the test ends.
func NewProxy(t testing.TB, target string) *Proxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &Proxy{lis: lis, target: target, armed: -1}
	t.Cleanup(func() {
		lis.Close()
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, c := range p.conns {
			c.close()
		}
	})
	go p.serve()
	return p
}

// Addr is the address clients dial.
func (p *Proxy) Addr() string { return p.lis.Addr().String() }

// Conns is the number of connections accepted so far.
func (p *Proxy) Conns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// Cut closes every live connection at once, as a crash of the target
// would, and reports whether there was one to sever.
func (p *Proxy) Cut() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	severed := false
	for _, c := range p.conns {
		if c.live {
			c.cut, severed = true, true
			c.close()
		}
	}
	return severed
}

// CutInFrame arms a cut of the next accepted connection: its target→client
// stream stops halfway through frame n, counting the handshake reply as
// frame 0, and both legs close.
func (p *Proxy) CutInFrame(n int) {
	p.mu.Lock()
	p.armed = n
	p.mu.Unlock()
}

// LastFrame returns the number of the last frame of one of the given types
// relayed on accepted connection i, or -1 if there was none.
func (p *Proxy) LastFrame(i int, types ...byte) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := p.conns[i].types
	for n := len(seen) - 1; n >= 0; n-- {
		for _, typ := range types {
			if seen[n] == typ {
				return n
			}
		}
	}
	return -1
}

// Severed reports whether a cut severed accepted connection i while it was
// live.
func (p *Proxy) Severed(i int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conns[i].cut
}

func (p *Proxy) serve() {
	for {
		cc, err := p.lis.Accept()
		if err != nil {
			return
		}
		tc, err := net.Dial("tcp", p.target)
		if err != nil {
			cc.Close()
			continue
		}
		c := &conn{client: cc, target: tc, live: true}
		p.mu.Lock()
		p.conns = append(p.conns, c)
		cutAt := p.armed
		p.armed = -1
		p.mu.Unlock()
		go func() {
			io.Copy(tc, cc)
			p.end(c)
		}()
		go func() {
			p.relayFrames(c, cutAt)
			p.end(c)
		}()
	}
}

// relayFrames forwards whole frames from the target to the client until
// frame number cutAt, of which it forwards only the first half. Each frame
// is recorded before it is written, so a reader that has seen a frame also
// sees its record.
func (p *Proxy) relayFrames(c *conn, cutAt int) {
	for i := 0; ; i++ {
		var hdr [6]byte // type, flags, big-endian payload length
		if _, err := io.ReadFull(c.target, hdr[:]); err != nil {
			return
		}
		f := make([]byte, len(hdr)+int(binary.BigEndian.Uint32(hdr[2:])))
		copy(f, hdr[:])
		if _, err := io.ReadFull(c.target, f[len(hdr):]); err != nil {
			return
		}
		p.mu.Lock()
		c.types = append(c.types, hdr[0])
		if i == cutAt && c.live {
			f = f[:len(f)/2]
			c.cut = true
		}
		p.mu.Unlock()
		if _, err := c.client.Write(f); err != nil || i == cutAt {
			return
		}
	}
}

// end closes both legs of c once either of them has ended.
func (p *Proxy) end(c *conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c.close()
}

func (c *conn) close() {
	c.live = false
	c.client.Close()
	c.target.Close()
}
