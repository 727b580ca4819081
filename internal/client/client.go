// Package client is the Go client library for edbd, the networked debug
// daemon. It dials with a timeout and reconnect-with-backoff (cancellable
// via DialContext), optionally over TLS with token authentication, speaks
// the internal/wire handshake, and streams scenario sessions. Client.Run
// answers an interactive session's prompts through the same
// scenario.PromptFunc a local scenario.Run takes, so code that drives a
// local console drives a remote target unchanged; every answer travels as
// a console line, time-travel's snap and restore included.
package client

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/tracecodec"
	"repro/internal/wire"
)

const (
	// readTimeout bounds the wait for each server frame, generously above
	// the longest permitted simulation.
	readTimeout = 60 * time.Second
	// writeTimeout bounds each outbound frame write's stall.
	writeTimeout = 10 * time.Second
	// maxResumes caps reconnect-and-resume attempts per Run.
	maxResumes = 3
)

// Options configures dialing.
type Options struct {
	// DialTimeout bounds each connection attempt, TLS and protocol
	// handshake included (default 5s).
	DialTimeout time.Duration
	// Attempts is the number of dial attempts before giving up (default 1;
	// raise it to tolerate a daemon that is still starting).
	Attempts int
	// Backoff is the delay before the second attempt, doubling per retry
	// (default 100ms).
	Backoff time.Duration
	// MaxBackoff caps the retry delay (default 2s).
	MaxBackoff time.Duration
	// Name identifies this client in the handshake.
	Name string
	// TLS, when set, dials TLS over the TCP connection. If ServerName is
	// empty and certificate verification is on, it is filled in from the
	// dialed address's host. Set Certificates for mTLS.
	TLS *tls.Config
	// AuthToken, when non-empty, offers the FlagAuth capability with this
	// shared-secret token in the handshake. Authenticated() reports
	// whether the server verified it; a wrong token against a
	// token-checking server fails the dial with Error{CodeAuth}.
	AuthToken string
	// Reconnect offers the cluster capability and makes Run resume its
	// session transparently when the connection drops mid-run or the server
	// migrates it away: the client keeps a journal of the prompt answers it
	// gave plus the output/trace offsets it holds, redials (rotating
	// through the dial list when one was given), and replays via
	// SessResume. Behind a gateway (or any load-balanced address) this
	// hides backend drains and crashes entirely; with a multi-gateway dial
	// list it also hides the death of the gateway itself. Output remains
	// byte-identical either way.
	Reconnect bool
	// OnResume, when set, is called after each successful
	// reconnect-and-resume with the address the session landed on and the
	// wall time from detecting the loss to the resume request being
	// accepted by the new connection — the client-observed hand-off
	// latency.
	OnResume func(addr string, took time.Duration)
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.Attempts <= 0 {
		o.Attempts = 1
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.Name == "" {
		o.Name = "edb-client"
	}
	return o
}

// Client is one authenticated connection to an edbd daemon. It is not safe
// for concurrent use; open one Client per goroutine (the daemon hosts each
// connection's sessions independently).
type Client struct {
	peer *wire.Peer
	opts Options

	// OnTrace, when set before Run, requests energy-trace streaming and
	// receives each chunk, decoded from its TraceZ frame: voltages sit on
	// the ADC grid (tracecodec.Quantize). The chunk's Samples slice aliases
	// a scratch buffer reused for the next chunk — copy samples out if
	// they must outlive the callback.
	OnTrace func(*wire.Trace)

	addr       string   // the address this client is connected to
	addrs      []string // the full dial list; len 1 without failover peers
	addrIdx    int      // index of addr in addrs
	serverName string
	caps       byte // capability bits the server granted
	scratch    []wire.TracePoint
	traceBuf   wire.Trace
}

// Dial connects to an edbd daemon, retrying failed dials with exponential
// backoff, and completes the protocol handshake. Handshake rejections
// (e.g. a version mismatch or a bad auth token) are returned immediately
// without retrying — they will not fix themselves. DialContext makes the
// retry loop cancellable.
//
// addr may be a comma-separated dial list ("gw1:3535,gw2:3535"): each
// attempt tries every address in order before backing off, so the first
// live endpoint wins without burning the retry schedule on a dead one.
// With Options.Reconnect, Run keeps the list and rotates it on resume —
// the address that just failed is retried last — which is how a client
// rides out the death of one gateway of a pair.
func Dial(addr string, opts Options) (*Client, error) {
	return DialContext(context.Background(), addr, opts)
}

// DialContext is Dial bounded by ctx: cancellation interrupts both
// in-flight connection attempts and the backoff sleeps between them, so a
// cancelled caller stops retrying immediately instead of sleeping out the
// schedule against a dead address.
//
// Retry classification: transient failures — unreachable address,
// Error{CodeBusy} from a full server — are retried on the backoff schedule.
// Handshake failures that can never succeed on retry — a version
// mismatch, Error{CodeAuth} from a bad or missing token, a TLS certificate
// failure — fail fast on the first attempt, no matter how many attempts
// remain.
func DialContext(ctx context.Context, addr string, opts Options) (*Client, error) {
	o := opts.withDefaults()
	addrs := splitAddrs(addr)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("client: no address to dial in %q", addr)
	}
	d := wire.Dialer{Timeout: o.DialTimeout, TLS: o.TLS, Name: o.Name, Token: o.AuthToken}
	caps := wire.FlagTraceZ // the dialer adds FlagAuth when there is a token
	if o.Reconnect {
		// The cluster capability tells the server this client understands
		// SessMigrate hand-offs and SessResume replays.
		caps |= wire.FlagCluster
	}
	backoff := o.Backoff
	var lastErr error
	for attempt := 0; attempt < o.Attempts; attempt++ {
		if attempt > 0 {
			timer := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				timer.Stop()
				return nil, fmt.Errorf("client: dial %s: %w", addr, ctx.Err())
			case <-timer.C:
			}
			backoff *= 2
			if backoff > o.MaxBackoff {
				backoff = o.MaxBackoff
			}
		}
		// Try every address in the dial list before sleeping out a backoff:
		// a dead first gateway must not delay failover to its live peer.
		for i, a := range addrs {
			conn, w, granted, err := d.Dial(ctx, a, caps)
			if err != nil {
				if ctx.Err() != nil {
					return nil, fmt.Errorf("client: dial %s: %w", a, ctx.Err())
				}
				var werr *wire.Error
				if errors.Is(err, wire.ErrHandshake) || errors.As(err, &werr) && werr.Code != wire.CodeBusy {
					// A reachable server whose handshake fails (bad cert,
					// protocol mismatch) or that refuses it (CodeAuth,
					// CodeVersion) will not change its mind: fail fast.
					return nil, err
				}
				// An unreachable or full server may admit the next attempt.
				lastErr = err
				continue
			}
			return &Client{peer: wire.NewPeer(conn, writeTimeout), opts: o, addr: a, addrs: addrs, addrIdx: i,
				serverName: w.Server, caps: granted}, nil
		}
	}
	return nil, fmt.Errorf("client: dial %s failed after %d attempts: %w", addr, o.Attempts, lastErr)
}

// splitAddrs parses a comma-separated dial list, dropping empty elements.
func splitAddrs(addr string) []string {
	var addrs []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// ServerName returns the daemon's name from the handshake.
func (c *Client) ServerName() string { return c.serverName }

// Close tears down the connection.
func (c *Client) Close() error { return c.peer.Close() }

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	const token = 0xEDB
	if err := c.peer.Send(&wire.Ping{Token: token}); err != nil {
		return err
	}
	m, err := c.peer.Recv(readTimeout)
	if err != nil {
		return err
	}
	pong, ok := m.(*wire.Pong)
	if !ok || pong.Token != token {
		return fmt.Errorf("client: bad ping reply %T", m)
	}
	return nil
}

// TraceZ reports whether compressed trace streaming was negotiated in the
// handshake.
func (c *Client) TraceZ() bool { return c.caps&wire.FlagTraceZ != 0 }

// Authenticated reports whether the server verified this client's auth
// token in the handshake. False with an AuthToken set means the server has
// no token authentication configured (a wrong token fails the Dial).
func (c *Client) Authenticated() bool { return c.caps&wire.FlagAuth != 0 }

// Cluster reports whether the cluster capability (migration hand-offs and
// journal resume) was negotiated in the handshake.
func (c *Client) Cluster() bool { return c.caps&wire.FlagCluster != 0 }

// decodeTraceZ decodes one compressed trace chunk into the client's reused
// scratch buffer and returns a Trace view over it for OnTrace.
func (c *Client) decodeTraceZ(t *wire.TraceZ) (*wire.Trace, error) {
	if !c.TraceZ() {
		return nil, errors.New("client: server sent TraceZ without negotiating the capability")
	}
	pts, err := tracecodec.Decode(c.scratch[:0], t.Data, int(t.Count))
	if err != nil {
		return nil, fmt.Errorf("client: corrupt TraceZ chunk: %w", err)
	}
	c.scratch = pts
	c.traceBuf = wire.Trace{Name: t.Name, Unit: t.Unit, Samples: pts}
	return &c.traceBuf, nil
}

// Status summarizes a finished remote session.
type Status struct {
	Exit         int
	Halted       string
	SimCycles    uint64
	Commands     int
	ScriptErrors int
}

// Run executes one scenario session on the daemon, streaming its output to
// out. The prompt callback answers interactive prompts (it is only
// consulted when spec.Interactive is set and no script is given); pass nil
// for scripted or hands-off runs. Run blocks until the session finishes
// and returns its status.
//
// With Options.Reconnect, a dropped connection or a server-initiated
// SessMigrate does not end the run: the client redials and resumes from
// its journal, and the output delivered to out stays byte-identical to an
// uninterrupted run.
func (c *Client) Run(spec scenario.Spec, out io.Writer, prompt scenario.PromptFunc) (Status, error) {
	run := &wire.Run{Spec: spec, StreamTrace: c.OnTrace != nil}
	// rec is everything needed to resume the session byte-exactly on a
	// fresh connection: the answers already given, and how much output and
	// trace data this side already holds.
	rec := run.Seed()
	resumes := 0
	resume := func() error {
		if resumes >= maxResumes {
			return fmt.Errorf("client: resume budget (%d) exhausted", maxResumes)
		}
		resumes++
		return c.resume(&rec)
	}
	if err := c.peer.Send(run); err != nil {
		if rerr := resume(); rerr != nil {
			return Status{}, err
		}
	}
	for {
		m, err := c.peer.Recv(readTimeout)
		if err != nil {
			if rerr := resume(); rerr != nil {
				return Status{}, err
			}
			continue
		}
		switch t := m.(type) {
		case *wire.Output:
			rec.SkipOutput += uint64(len(t.Data))
			if out != nil {
				if _, err := out.Write(t.Data); err != nil {
					return Status{}, err
				}
			}
		case *wire.Prompt:
			ans := &wire.Command{EOF: true}
			if prompt != nil {
				if line, ok := prompt(); ok {
					ans = &wire.Command{Line: line}
				}
			}
			// Journal before sending: if the send fails mid-flight, the
			// resumed session replays this answer instead of re-asking.
			rec.Answered(ans)
			if err := c.peer.Send(ans); err != nil {
				if rerr := resume(); rerr != nil {
					return Status{}, err
				}
			}
		case *wire.TraceZ:
			tr, err := c.decodeTraceZ(t)
			if err != nil {
				return Status{}, err
			}
			rec.SkipTraceSamples += uint64(t.Count)
			if c.OnTrace != nil {
				c.OnTrace(tr)
			}
		case *wire.SessMigrate:
			// The server is draining this session away; replay the journal
			// wherever we land next.
			if rerr := resume(); rerr != nil {
				return Status{}, fmt.Errorf("client: session migrated but resume failed: %w", rerr)
			}
		case *wire.Done:
			return Status{
				Exit:         int(t.Exit),
				Halted:       t.Halted,
				SimCycles:    t.SimCycles,
				Commands:     int(t.Commands),
				ScriptErrors: int(t.ScriptErrors),
			}, nil
		case *wire.Error:
			return Status{}, t
		default:
			return Status{}, fmt.Errorf("client: unexpected message %T during run", m)
		}
	}
}

// resume redials and sends the session's record as a SessResume, rotating
// the dial list so the surviving peer of a dead gateway is tried first. It
// returns an error when reconnect is off or the redial fails — callers
// then surface the original failure.
func (c *Client) resume(rec *wire.SessResume) error {
	if !c.opts.Reconnect || !c.Cluster() {
		return errors.New("client: reconnect not enabled")
	}
	start := time.Now()
	// Rotate the dial list past the address that just failed: its peers
	// get the first shot, and it goes last in case it is all there is.
	rot := make([]string, 0, len(c.addrs))
	rot = append(rot, c.addrs[c.addrIdx+1:]...)
	rot = append(rot, c.addrs[:c.addrIdx+1]...)
	nc, err := DialContext(context.Background(), strings.Join(rot, ","), c.opts)
	if err != nil {
		return err
	}
	if !nc.Cluster() {
		nc.Close()
		return errors.New("client: reconnected server does not speak the cluster capability")
	}
	c.peer.Close()
	c.peer = nc.peer
	c.addr, c.addrIdx = nc.addr, indexOf(c.addrs, nc.addr)
	c.serverName, c.caps = nc.serverName, nc.caps
	err = c.peer.Send(rec)
	if err == nil && c.opts.OnResume != nil {
		c.opts.OnResume(c.addr, time.Since(start))
	}
	return err
}

func indexOf(addrs []string, addr string) int {
	for i, a := range addrs {
		if a == addr {
			return i
		}
	}
	return 0
}
