// Package wire defines the versioned, length-prefixed framed protocol
// spoken between edb clients and the edbd daemon. It is the host-to-host
// sibling of internal/debugwire (the target-side UART framing): where
// debugwire carries single-byte-checksummed frames over a simulated serial
// line, wire carries typed messages over TCP.
//
// Frame layout (all integers big-endian):
//
//	+--------+----------+-------------+---------+
//	| type:1 | flags:1  | length:4    | payload |
//	+--------+----------+-------------+---------+
//
// flags must be zero in version 1 on every frame except Hello and Welcome,
// where capability bits (FlagTraceZ, FlagSnap, FlagAuth) may be set — that
// is how optional features are negotiated without a version bump. Handshake
// frames pass *any* flag byte through the framing layer untouched: bits this
// build does not know are preserved for the negotiation code to mask off
// (KnownCaps), so a future peer advertising a new capability is silently
// down-negotiated instead of being disconnected. An unknown bit must not
// change the frame's payload layout for old peers — which is why FlagAuth's
// extra Hello field is appended *after* the baseline fields, where a peer
// that knows the bit (and only such a peer echoes it) expects it. length
// counts payload bytes and is bounded by MaxFrame, so a malformed header
// can never force a large allocation.
//
// Versioning rules: the protocol version is carried once, in the
// Hello/Welcome handshake, not per frame. A server that receives a
// different major version replies Error{CodeVersion} and closes. Within a
// version, payload layouts are fixed; new message types may be added (old
// peers reject them with ErrUnknownType), but existing layouts never
// change — that requires bumping Version.
//
// Every message's encoding is canonical: Decode(Encode(m)) == m and
// re-encoding a decoded frame reproduces the original bytes, which
// FuzzWireDecode enforces.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/scenario"
)

// encoders pools encode scratch; see AppendMsg.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

// Version is the protocol version exchanged in the handshake.
const Version uint16 = 1

// MaxFrame bounds a frame's payload size; ReadMsg rejects larger lengths
// before allocating.
const MaxFrame = 1 << 20

// headerSize is type + flags + length.
const headerSize = 6

// Message type codes.
const (
	TypeHello       byte = 0x01 // client → server: open the handshake
	TypeWelcome     byte = 0x02 // server → client: handshake accepted
	TypeError       byte = 0x03 // either direction: typed failure
	TypeRun         byte = 0x10 // client → server: start a scenario session
	TypeCommand     byte = 0x11 // client → server: one console command (answers Prompt)
	TypeSnapSave    byte = 0x12 // client → server: arm a snapshot (answers Prompt, FlagSnap only)
	TypeSnapRestore byte = 0x13 // client → server: revert to the snapshot (answers Prompt, FlagSnap only)
	TypeSessResume  byte = 0x14 // client → server: resume a migrated session from its journal (FlagCluster only)
	TypeOutput      byte = 0x20 // server → client: console/run output bytes
	TypePrompt      byte = 0x21 // server → client: session awaits a Command
	TypeTrace       byte = 0x22 // server → client: raw energy-trace samples
	TypeDone        byte = 0x23 // server → client: session finished
	TypeTraceZ      byte = 0x24 // server → client: codec-compressed energy-trace samples
	TypeSessMigrate byte = 0x25 // server → client: session should move to another backend (FlagCluster only)
	TypePing        byte = 0x30 // either direction: liveness probe
	TypePong        byte = 0x31 // reply to Ping
	TypeStat        byte = 0x32 // client → server: load/drain probe (FlagCluster only)
	TypeStatReply   byte = 0x33 // reply to Stat
	TypeJoin        byte = 0x34 // backend → gateway: register an advertised backend address (FlagCluster only)

	// 0x40–0x42 are retired (the removed distributed-explore shard
	// protocol); never reuse them. They decode as unknown types.

	TypeGossip byte = 0x50 // gateway → gateway: one replication-stream event (FlagGossip only)
)

// Capability flag bits, valid only on Hello and Welcome frames. A client
// sets a bit to advertise a capability; the server echoes the subset it
// accepts in the Welcome frame. Old peers that know no capabilities send
// zero flags and are served the baseline protocol — a version bump is not
// required.
const (
	// FlagTraceZ negotiates compressed trace streaming: when both sides
	// set it, the server streams TraceZ chunks (internal/tracecodec blobs)
	// instead of raw Trace chunks.
	FlagTraceZ byte = 0x01
	// FlagSnap negotiates remote time-travel: when both sides set it, the
	// client may answer a Prompt with SnapSave/SnapRestore frames and the
	// server runs the console's O(dirty-page) snap/restore machinery. A
	// client that never offers the bit sees a byte-identical baseline
	// protocol.
	FlagSnap byte = 0x02
	// FlagAuth negotiates token authentication: a client that sets it
	// appends a shared-secret token string to its Hello payload (after the
	// baseline fields, so token-less peers never see a layout change). The
	// server verifies the token in constant time and echoes the bit in the
	// Welcome flags when the session is authenticated; a bad or missing
	// token on a server that requires one is answered with
	// Error{CodeAuth} before any session state exists.
	FlagAuth byte = 0x04
	// FlagCluster negotiates the backend-to-backend cluster protocol: a
	// peer that sets it may send SessResume/Stat/Join requests and may be
	// answered with SessMigrate in place of a Prompt when the serving
	// backend is draining. Peers that never offer the bit see a
	// byte-identical baseline protocol — cluster support needs no version
	// bump.
	FlagCluster byte = 0x08
	// 0x10 is retired with types 0x40–0x42; never reuse it. A peer that
	// still offers it is down-negotiated like any unknown bit.

	// FlagGossip negotiates the gateway-to-gateway replication stream: a
	// peer gateway that sets it may send Gossip frames (backend join/leave,
	// per-session journal appends, template-image gossip) so a replica
	// gateway holds the fleet state needed to resume every live session if
	// the primary dies. Peers that never offer the bit see a byte-identical
	// baseline protocol — gateway replication needs no version bump.
	FlagGossip byte = 0x20
)

// KnownCaps is the set of capability bits this build understands.
// Handshake frames may carry bits outside this mask (a future peer's
// capabilities); the framing layer passes them through and negotiation
// masks them off, so old corpus entries and old peers keep working.
const KnownCaps byte = FlagTraceZ | FlagSnap | FlagAuth | FlagCluster | FlagGossip

// handshakeFrame reports whether frames of type t carry capability flag
// bits; every other frame type must have a zero flags byte in version 1.
func handshakeFrame(t byte) bool {
	return t == TypeHello || t == TypeWelcome
}

// Error codes.
const (
	CodeVersion    uint16 = 1 // protocol version mismatch
	CodeBusy       uint16 = 2 // connection or session limit reached
	CodeBadRequest uint16 = 3 // malformed or out-of-order message
	CodeRunFailed  uint16 = 4 // scenario setup or run failed server-side
	CodeIdle       uint16 = 5 // idle session reaped by the server
	CodeAuth       uint16 = 6 // authentication required or token rejected
)

// Framing errors.
var (
	ErrFrameTooBig = errors.New("wire: frame exceeds MaxFrame")
	ErrBadFlags    = errors.New("wire: invalid flags byte")
)

// Msg is one protocol message.
type Msg interface {
	Type() byte
	encode(e *encoder)
	decode(d *decoder)
}

// Hello opens the handshake.
type Hello struct {
	Version uint16
	Client  string // client name/version string, for logs
	// Token is the shared-secret auth token. It rides the wire only when
	// the Hello frame carries FlagAuth — encoded after the baseline fields
	// so a token-less Hello is byte-identical to the pre-auth protocol.
	Token string
}

// Welcome accepts the handshake.
type Welcome struct {
	Version uint16
	Server  string // server name, for logs
}

// Error reports a typed failure; it implements the error interface so
// clients can surface it directly.
type Error struct {
	Code uint16
	Text string
}

func (e *Error) Error() string { return fmt.Sprintf("edbd: %s (code %d)", e.Text, e.Code) }

// Run asks the server to execute a scenario session.
type Run struct {
	Spec scenario.Spec
	// StreamTrace additionally streams the raw samples behind the final
	// energy-trace window as Trace chunks before Done.
	StreamTrace bool
}

// Command answers a Prompt with the next console line. EOF tells the
// server the client has no more commands (stdin closed), ending the
// session's console loop like a local EOF.
type Command struct {
	Line string
	EOF  bool
}

// Output carries a chunk of the session's output stream.
type Output struct {
	Data []byte
}

// Prompt signals that the session's console is waiting for a Command.
type Prompt struct{}

// SnapSave answers a Prompt by arming a server-side snapshot of the
// session's target: full memory baselines plus the resume energy level,
// with dirty-page tracking armed so the restore is O(pages written since).
// Only valid after FlagSnap was negotiated.
type SnapSave struct{}

// SnapRestore answers a Prompt by reverting the session's target to the
// armed snapshot. Only valid after FlagSnap was negotiated.
type SnapRestore struct{}

// Journal-entry kinds: how a session's prompt was answered. The journal is
// the deterministic-replay half of live migration — a session is fully
// described by its spec plus the sequence of prompt answers it consumed, so
// replaying the journal against a fresh rig reproduces the session's state
// (and every output byte) exactly.
const (
	JournalLine        byte = 0 // Line holds a console command
	JournalEOF         byte = 1 // the client closed the console (stdin EOF)
	JournalSnapSave    byte = 2 // a SnapSave frame answered the prompt
	JournalSnapRestore byte = 3 // a SnapRestore frame answered the prompt
)

// JournalEntry is one recorded prompt answer.
type JournalEntry struct {
	Kind byte   // Journal* constant
	Line string // console command for JournalLine; empty otherwise
}

// SessResume asks the server to resume a migrated session: re-run the spec,
// answer its first len(Journal) prompts from the journal, suppress the
// first SkipOutput output bytes and SkipTraceSamples trace samples (the
// client already has them), then continue serving the session live. Because
// sessions are deterministic, the regenerated stream continues byte-exactly
// where the origin backend's stream stopped. Image optionally carries a
// serialized warm-start template (scenario.Template image) so the receiving
// backend can skip the charge-phase simulation; an empty Image means the
// receiver warm-starts from its own pool or cold-boots — output is
// identical either way. Only valid after FlagCluster was negotiated.
type SessResume struct {
	Spec scenario.Spec
	// StreamTrace mirrors Run.StreamTrace.
	StreamTrace bool
	// SpecHash is scenario.SpecHash(Spec); the receiver verifies it before
	// adopting Image.
	SpecHash uint64
	// SkipOutput is the count of session output bytes the client already
	// received; the replayed stream's first SkipOutput bytes are dropped
	// server-side.
	SkipOutput uint64
	// SkipTraceSamples is the count of trace samples already streamed; it
	// is always a whole number of trace chunks, so the resumed stream's
	// chunk boundaries (and therefore its frames) are byte-identical to an
	// unmigrated stream's.
	SkipTraceSamples uint64
	Journal          []JournalEntry
	Image            []byte
}

// SessMigrate is sent by a draining backend in place of a Prompt: the
// session should finish on another backend. The sender stops streaming the
// session (anything its simulation still produces is discarded); the
// gateway re-dispatches the session's journal as a SessResume elsewhere.
// Image optionally carries the sender's serialized warm-start template for
// the spec ("fullImage" mode); an empty Image is "delta" mode — the
// receiver is expected to already hold the template (the RNG stream
// positions and all other machine state ride inside the image; the journal
// supplies everything since). Only sent after FlagCluster was negotiated.
type SessMigrate struct {
	SpecHash uint64
	// SimCycles is the origin's simulated clock at the migration point,
	// for logs and migration-lag metrics.
	SimCycles uint64
	Image     []byte
}

// Stat probes a backend's load for placement and health decisions. Only
// valid after FlagCluster was negotiated.
type Stat struct{}

// StatReply answers a Stat (and acknowledges a Join).
type StatReply struct {
	Sessions    uint32 // sessions currently running
	MaxSessions uint32 // the backend's session cap
	Draining    bool   // true once Shutdown has begun
}

// Join registers a backend with a gateway: the advertised address is added
// to the gateway's placement ring. The gateway acknowledges with a
// StatReply describing its own view. Only valid after FlagCluster was
// negotiated.
type Join struct {
	Addr string
}

// Gossip event kinds: one per replication-stream event a gateway ships to
// its peer. The stream is ordered per TCP connection; a reconnecting
// sender opens with GossipReset and a full snapshot, so a receiver never
// has to reconcile partial histories.
const (
	GossipHeartbeat    byte = 0 // keepalive; the receiver's read deadline rides on it
	GossipReset        byte = 1 // drop all replica state from this peer; a snapshot follows
	GossipBackendJoin  byte = 2 // Addr joined the sender's placement ring
	GossipBackendLeave byte = 3 // Addr left the sender's placement ring
	GossipImage        byte = 4 // template image for SpecHash entered the sender's cache
	GossipSessOpen     byte = 5 // proxied session Sess opened with Spec/StreamTrace
	GossipSessAppend   byte = 6 // session Sess journaled entries; offsets updated
	GossipSessClose    byte = 7 // session Sess concluded; drop its replica
)

// Gossip is one gateway-to-gateway replication event. A replicated gateway
// pair streams these over a dedicated peer connection so each side mirrors
// the other's fleet state — the backend registry, the template-image
// cache, and, per live proxied session, the prompt-answer journal plus
// output/trace offsets (exactly the state SessResume carries). Only valid
// after FlagGossip was negotiated.
type Gossip struct {
	Kind byte // Gossip* constant

	// Addr is the backend address (GossipBackendJoin/GossipBackendLeave).
	Addr string

	// SpecHash/Image carry one template-image cache entry (GossipImage).
	SpecHash uint64
	Image    []byte

	// Sess identifies the proxied session on the sending gateway
	// (GossipSessOpen/GossipSessAppend/GossipSessClose).
	Sess uint64
	// Spec/StreamTrace open the session's replica (GossipSessOpen).
	Spec        scenario.Spec
	StreamTrace bool
	// First is the journal index of Journal[0] — appends are idempotent, so
	// a replica can detect gaps or replays (GossipSessAppend).
	First uint32
	// Journal holds the newly appended entries; it may be empty when only
	// the offsets moved (GossipSessAppend).
	Journal []JournalEntry
	// OutputBytes/TraceSamples are the session's absolute delivered-to-client
	// offsets after the append (GossipSessAppend).
	OutputBytes  uint64
	TraceSamples uint64
}

// TracePoint is one raw trace sample.
type TracePoint struct {
	At uint64 // target clock cycles
	V  float64
}

// Trace streams a chunk of raw energy-trace samples.
type Trace struct {
	Name    string
	Unit    string
	Samples []TracePoint
}

// TraceZ streams a chunk of codec-compressed energy-trace samples; it is
// only sent when FlagTraceZ was negotiated in the handshake. Count is the
// number of samples Data decodes to (bounded by len(Data): the codec
// spends at least one byte per sample) and Data is an opaque
// internal/tracecodec blob — each chunk decodes independently.
type TraceZ struct {
	Name  string
	Unit  string
	Count uint32
	Data  []byte
}

// Done ends a session with its results.
type Done struct {
	Exit         int32  // process exit status (non-zero when a scripted command failed)
	Halted       string // debugger halt reason, if any
	SimCycles    uint64
	Commands     uint32
	ScriptErrors uint32
}

// Ping probes liveness.
type Ping struct{ Token uint64 }

// Pong answers a Ping, echoing its token.
type Pong struct{ Token uint64 }

func (*Hello) Type() byte       { return TypeHello }
func (*Welcome) Type() byte     { return TypeWelcome }
func (*Error) Type() byte       { return TypeError }
func (*Run) Type() byte         { return TypeRun }
func (*Command) Type() byte     { return TypeCommand }
func (*SnapSave) Type() byte    { return TypeSnapSave }
func (*SnapRestore) Type() byte { return TypeSnapRestore }
func (*SessResume) Type() byte  { return TypeSessResume }
func (*Output) Type() byte      { return TypeOutput }
func (*Prompt) Type() byte      { return TypePrompt }
func (*Trace) Type() byte       { return TypeTrace }
func (*TraceZ) Type() byte      { return TypeTraceZ }
func (*Done) Type() byte        { return TypeDone }
func (*SessMigrate) Type() byte { return TypeSessMigrate }
func (*Ping) Type() byte        { return TypePing }
func (*Pong) Type() byte        { return TypePong }
func (*Stat) Type() byte        { return TypeStat }
func (*StatReply) Type() byte   { return TypeStatReply }
func (*Join) Type() byte        { return TypeJoin }
func (*Gossip) Type() byte      { return TypeGossip }

// newMsg maps a type code to a zero message.
func newMsg(t byte) Msg {
	switch t {
	case TypeHello:
		return &Hello{}
	case TypeWelcome:
		return &Welcome{}
	case TypeError:
		return &Error{}
	case TypeRun:
		return &Run{}
	case TypeCommand:
		return &Command{}
	case TypeSnapSave:
		return &SnapSave{}
	case TypeSnapRestore:
		return &SnapRestore{}
	case TypeSessResume:
		return &SessResume{}
	case TypeOutput:
		return &Output{}
	case TypePrompt:
		return &Prompt{}
	case TypeTrace:
		return &Trace{}
	case TypeTraceZ:
		return &TraceZ{}
	case TypeDone:
		return &Done{}
	case TypeSessMigrate:
		return &SessMigrate{}
	case TypePing:
		return &Ping{}
	case TypePong:
		return &Pong{}
	case TypeStat:
		return &Stat{}
	case TypeStatReply:
		return &StatReply{}
	case TypeJoin:
		return &Join{}
	case TypeGossip:
		return &Gossip{}
	}
	return nil
}

// AppendMsg appends one complete frame for m, carrying the given flag
// bits, to dst and returns the extended slice. Passing a reused buffer
// makes hot streaming paths (the server's trace streamer) allocation-free
// after warm-up. On error dst is returned unchanged. Handshake frames
// accept any flag byte (unknown bits are a future peer's capabilities and
// must survive a decode/re-encode round trip); every other frame type
// rejects a non-zero flags byte.
func AppendMsg(dst []byte, m Msg, flags byte) ([]byte, error) {
	if flags != 0 && !handshakeFrame(m.Type()) {
		return dst, ErrBadFlags
	}
	base := len(dst)
	dst = append(dst, m.Type(), flags, 0, 0, 0, 0)
	// The encoder is pooled because passing a stack-local pointer through
	// the Msg interface forces it to escape, costing one allocation per
	// frame on the hot trace-streaming path.
	e := encoders.Get().(*encoder)
	e.b = dst
	e.flags = flags
	m.encode(e)
	dst = e.b
	e.b = nil
	encoders.Put(e)
	n := len(dst) - base - headerSize
	if n > MaxFrame {
		return dst[:base], ErrFrameTooBig
	}
	binary.BigEndian.PutUint32(dst[base+2:base+6], uint32(n))
	return dst, nil
}

// EncodeMsg serializes a message into one complete frame with zero flags.
func EncodeMsg(m Msg) ([]byte, error) {
	return AppendMsg(nil, m, 0)
}

// EncodeMsgFlags serializes a message into one complete frame carrying the
// given flag bits; only capability bits valid for the message type are
// accepted.
func EncodeMsgFlags(m Msg, flags byte) ([]byte, error) {
	return AppendMsg(nil, m, flags)
}

// WriteMsg frames and writes one message with zero flags.
func WriteMsg(w io.Writer, m Msg) error {
	return WriteMsgFlags(w, m, 0)
}

// WriteMsgFlags frames and writes one message carrying the given flag bits.
func WriteMsgFlags(w io.Writer, m Msg, flags byte) error {
	f, err := AppendMsg(nil, m, flags)
	if err != nil {
		return err
	}
	_, err = w.Write(f)
	return err
}

// ReadMsg reads and decodes one message, discarding handshake flag bits.
// The length field is validated against MaxFrame before the payload buffer
// is allocated.
func ReadMsg(r io.Reader) (Msg, error) {
	m, _, err := ReadMsgFlags(r)
	return m, err
}

// ReadMsgFlags reads and decodes one message along with its flag byte.
// Only handshake frames (Hello/Welcome) may carry a non-zero flags byte;
// on those the byte passes through raw — including capability bits this
// build does not know, which the caller's negotiation masks off with
// KnownCaps rather than the connection dying here (forward compatibility).
func ReadMsgFlags(r io.Reader) (Msg, byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	flags := hdr[1]
	if flags != 0 && !handshakeFrame(hdr[0]) {
		return nil, 0, ErrBadFlags
	}
	n := binary.BigEndian.Uint32(hdr[2:6])
	if n > MaxFrame {
		return nil, 0, ErrFrameTooBig
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, err
	}
	m, err := DecodePayloadFlags(hdr[0], flags, payload)
	if err != nil {
		return nil, 0, err
	}
	return m, flags, nil
}

// DecodePayload decodes a message body for the given type code with a zero
// flags byte. It rejects unknown types, truncated fields, and trailing
// bytes.
func DecodePayload(t byte, payload []byte) (Msg, error) {
	return DecodePayloadFlags(t, 0, payload)
}

// DecodePayloadFlags decodes a message body for the given type code under
// the frame's flag byte: capability bits can extend a handshake payload
// (FlagAuth appends Hello's token field), so the decoder must know them.
func DecodePayloadFlags(t, flags byte, payload []byte) (Msg, error) {
	m := newMsg(t)
	if m == nil {
		return nil, fmt.Errorf("wire: unknown message type %#02x", t)
	}
	d := decoder{b: payload, flags: flags}
	m.decode(&d)
	if d.err != nil {
		return nil, fmt.Errorf("wire: decoding %T: %w", m, d.err)
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("wire: %d trailing bytes after %T", len(d.b)-d.off, m)
	}
	return m, nil
}

// ---- per-message field layouts ----

// Hello's token field exists only under FlagAuth, so a token-less frame is
// byte-identical to the pre-auth protocol and old fuzz corpus entries keep
// decoding; the canonical-encoding invariant holds because the same flag
// byte gates both directions.
func (m *Hello) encode(e *encoder) {
	e.u16(m.Version)
	e.str(m.Client)
	if e.flags&FlagAuth != 0 {
		e.str(m.Token)
	}
}

func (m *Hello) decode(d *decoder) {
	m.Version = d.u16()
	m.Client = d.str()
	if d.flags&FlagAuth != 0 {
		m.Token = d.str()
	}
}
func (m *Welcome) encode(e *encoder) { e.u16(m.Version); e.str(m.Server) }
func (m *Welcome) decode(d *decoder) { m.Version = d.u16(); m.Server = d.str() }
func (m *Error) encode(e *encoder)   { e.u16(m.Code); e.str(m.Text) }
func (m *Error) decode(d *decoder)   { m.Code = d.u16(); m.Text = d.str() }

// encodeSpec/decodeSpec hold the one canonical field layout for a
// scenario.Spec on the wire; Run and SessResume both ride on it so the two
// can never drift apart.
func encodeSpec(e *encoder, s *scenario.Spec) {
	e.str(s.App)
	e.str(s.AsmName)
	e.str(s.AsmSource)
	e.bool(s.Assert)
	e.bool(s.Guards)
	e.str(s.Print)
	e.f64(s.Seconds)
	e.f64(s.Distance)
	e.u64(uint64(s.Seed))
	e.bool(s.Trace)
	e.str(s.Script)
	e.bool(s.Interactive)
}

func decodeSpec(d *decoder, s *scenario.Spec) {
	s.App = d.str()
	s.AsmName = d.str()
	s.AsmSource = d.str()
	s.Assert = d.bool()
	s.Guards = d.bool()
	s.Print = d.str()
	s.Seconds = d.f64()
	s.Distance = d.f64()
	s.Seed = int64(d.u64())
	s.Trace = d.bool()
	s.Script = d.str()
	s.Interactive = d.bool()
}

func (m *Run) encode(e *encoder) {
	encodeSpec(e, &m.Spec)
	e.bool(m.StreamTrace)
}

func (m *Run) decode(d *decoder) {
	decodeSpec(d, &m.Spec)
	m.StreamTrace = d.bool()
}

// encodeJournal/decodeJournal hold the one canonical field layout for a
// prompt-answer journal on the wire; SessResume and Gossip both ride on it
// so the two can never drift apart.
func encodeJournal(e *encoder, journal []JournalEntry) {
	e.u32(uint32(len(journal)))
	for _, j := range journal {
		e.u8(j.Kind)
		e.str(j.Line)
	}
}

func decodeJournal(d *decoder) []JournalEntry {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	// Each journal entry costs at least 5 bytes (kind + line length), so a
	// count beyond that bound can never decode; reject it before allocating.
	const entryMin = 5
	if uint64(n)*entryMin > uint64(len(d.b)-d.off) {
		d.fail("journal entry count %d exceeds payload", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	journal := make([]JournalEntry, n)
	for i := range journal {
		journal[i].Kind = d.u8()
		if journal[i].Kind > JournalSnapRestore {
			d.fail("unknown journal entry kind %d", journal[i].Kind)
			return nil
		}
		journal[i].Line = d.str()
	}
	return journal
}

func (m *SessResume) encode(e *encoder) {
	encodeSpec(e, &m.Spec)
	e.bool(m.StreamTrace)
	e.u64(m.SpecHash)
	e.u64(m.SkipOutput)
	e.u64(m.SkipTraceSamples)
	encodeJournal(e, m.Journal)
	e.bytes(m.Image)
}

func (m *SessResume) decode(d *decoder) {
	decodeSpec(d, &m.Spec)
	m.StreamTrace = d.bool()
	m.SpecHash = d.u64()
	m.SkipOutput = d.u64()
	m.SkipTraceSamples = d.u64()
	m.Journal = decodeJournal(d)
	if d.err != nil {
		return
	}
	m.Image = d.bytesField()
}

func (m *Gossip) encode(e *encoder) {
	e.u8(m.Kind)
	switch m.Kind {
	case GossipHeartbeat, GossipReset:
	case GossipBackendJoin, GossipBackendLeave:
		e.str(m.Addr)
	case GossipImage:
		e.u64(m.SpecHash)
		e.bytes(m.Image)
	case GossipSessOpen:
		e.u64(m.Sess)
		encodeSpec(e, &m.Spec)
		e.bool(m.StreamTrace)
	case GossipSessAppend:
		e.u64(m.Sess)
		e.u32(m.First)
		encodeJournal(e, m.Journal)
		e.u64(m.OutputBytes)
		e.u64(m.TraceSamples)
	case GossipSessClose:
		e.u64(m.Sess)
	}
}

func (m *Gossip) decode(d *decoder) {
	m.Kind = d.u8()
	switch m.Kind {
	case GossipHeartbeat, GossipReset:
	case GossipBackendJoin, GossipBackendLeave:
		m.Addr = d.str()
	case GossipImage:
		m.SpecHash = d.u64()
		m.Image = d.bytesField()
	case GossipSessOpen:
		m.Sess = d.u64()
		decodeSpec(d, &m.Spec)
		m.StreamTrace = d.bool()
	case GossipSessAppend:
		m.Sess = d.u64()
		m.First = d.u32()
		m.Journal = decodeJournal(d)
		if d.err != nil {
			return
		}
		m.OutputBytes = d.u64()
		m.TraceSamples = d.u64()
	case GossipSessClose:
		m.Sess = d.u64()
	default:
		d.fail("unknown gossip kind %d", m.Kind)
	}
}

func (m *SessMigrate) encode(e *encoder) {
	e.u64(m.SpecHash)
	e.u64(m.SimCycles)
	e.bytes(m.Image)
}

func (m *SessMigrate) decode(d *decoder) {
	m.SpecHash = d.u64()
	m.SimCycles = d.u64()
	m.Image = d.bytesField()
}

func (m *Stat) encode(*encoder) {}
func (m *Stat) decode(*decoder) {}

func (m *StatReply) encode(e *encoder) {
	e.u32(m.Sessions)
	e.u32(m.MaxSessions)
	e.bool(m.Draining)
}

func (m *StatReply) decode(d *decoder) {
	m.Sessions = d.u32()
	m.MaxSessions = d.u32()
	m.Draining = d.bool()
}

func (m *Join) encode(e *encoder) { e.str(m.Addr) }
func (m *Join) decode(d *decoder) { m.Addr = d.str() }

func (m *Command) encode(e *encoder) { e.str(m.Line); e.bool(m.EOF) }
func (m *Command) decode(d *decoder) { m.Line = d.str(); m.EOF = d.bool() }

func (m *Output) encode(e *encoder) { e.bytes(m.Data) }
func (m *Output) decode(d *decoder) { m.Data = d.bytesField() }

func (m *Prompt) encode(*encoder) {}
func (m *Prompt) decode(*decoder) {}

func (m *SnapSave) encode(*encoder)    {}
func (m *SnapSave) decode(*decoder)    {}
func (m *SnapRestore) encode(*encoder) {}
func (m *SnapRestore) decode(*decoder) {}

func (m *Trace) encode(e *encoder) {
	e.str(m.Name)
	e.str(m.Unit)
	e.u32(uint32(len(m.Samples)))
	for _, s := range m.Samples {
		e.u64(s.At)
		e.f64(s.V)
	}
}

func (m *Trace) decode(d *decoder) {
	m.Name = d.str()
	m.Unit = d.str()
	n := d.u32()
	if d.err != nil {
		return
	}
	const sampleSize = 16
	if uint64(n)*sampleSize > uint64(len(d.b)-d.off) {
		d.fail("trace sample count %d exceeds payload", n)
		return
	}
	if n > 0 {
		m.Samples = make([]TracePoint, n)
		for i := range m.Samples {
			m.Samples[i].At = d.u64()
			m.Samples[i].V = d.f64()
		}
	}
}

func (m *TraceZ) encode(e *encoder) {
	e.str(m.Name)
	e.str(m.Unit)
	e.u32(m.Count)
	e.bytes(m.Data)
}

func (m *TraceZ) decode(d *decoder) {
	m.Name = d.str()
	m.Unit = d.str()
	m.Count = d.u32()
	m.Data = d.bytesField()
	if d.err != nil {
		return
	}
	// The codec spends at least one byte per sample, so a count beyond the
	// blob length can never decode; reject it before tracecodec.Decode sees
	// the hostile count.
	if uint64(m.Count) > uint64(len(m.Data)) {
		d.fail("tracez sample count %d exceeds %d data bytes", m.Count, len(m.Data))
	}
}

func (m *Done) encode(e *encoder) {
	e.u32(uint32(m.Exit))
	e.str(m.Halted)
	e.u64(m.SimCycles)
	e.u32(m.Commands)
	e.u32(m.ScriptErrors)
}

func (m *Done) decode(d *decoder) {
	m.Exit = int32(d.u32())
	m.Halted = d.str()
	m.SimCycles = d.u64()
	m.Commands = d.u32()
	m.ScriptErrors = d.u32()
}

func (m *Ping) encode(e *encoder) { e.u64(m.Token) }
func (m *Ping) decode(d *decoder) { m.Token = d.u64() }
func (m *Pong) encode(e *encoder) { e.u64(m.Token) }
func (m *Pong) decode(d *decoder) { m.Token = d.u64() }

// ---- primitive (de)serialization ----

type encoder struct {
	b     []byte
	flags byte // the frame's flag byte; capability bits gate optional fields
}

func (e *encoder) u8(v byte)    { e.b = append(e.b, v) }
func (e *encoder) u16(v uint16) { e.b = binary.BigEndian.AppendUint16(e.b, v) }
func (e *encoder) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.b = append(e.b, b...)
}

// decoder reads payload fields with strict bounds checks; the first failure
// latches in err and subsequent reads return zero values. Length-prefixed
// fields are validated against the remaining payload before any
// allocation, so a hostile length can never over-allocate.
type decoder struct {
	b     []byte
	off   int
	flags byte // the frame's flag byte; capability bits gate optional fields
	err   error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail("truncated field (%d bytes needed, %d left)", n, len(d.b)-d.off)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *decoder) u8() byte {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (d *decoder) u16() uint16 {
	s := d.take(2)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint16(s)
}

func (d *decoder) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint32(s)
}

func (d *decoder) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.BigEndian.Uint64(s)
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("non-canonical bool byte")
		return false
	}
}

func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	s := d.take(int(n))
	if s == nil {
		return ""
	}
	return string(s)
}

func (d *decoder) bytesField() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	s := d.take(int(n))
	if len(s) == 0 {
		return nil
	}
	return append([]byte(nil), s...)
}
