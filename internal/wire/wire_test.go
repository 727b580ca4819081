package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// sampleMsgs is one populated instance of every message type.
func sampleMsgs() []Msg {
	return []Msg{
		&Hello{Version: Version, Client: "edb/test"},
		&Welcome{Version: Version, Server: "edbd/test"},
		&Error{Code: CodeBusy, Text: "session limit reached"},
		&Run{
			Spec: scenario.Spec{
				App: "linkedlist", Assert: true, Print: "none",
				Seconds: 12.5, Distance: 0.75, Seed: -3,
				Script: "vcap;status;halt",
			},
			StreamTrace: true,
		},
		&Run{Spec: scenario.Spec{AsmName: "x.asm", AsmSource: "nop\n", Interactive: true}},
		&Command{Line: "read 0x4400"},
		&Command{EOF: true},
		&Output{Data: []byte("Vcap = 2.400 V\n")},
		&Output{},
		&Prompt{},
		&TraceZ{Name: "Vcap", Unit: "V", Count: 3, Data: []byte{0x03, 0x0A, 0x02, 0x02, 0x00}},
		&TraceZ{Name: "Vcap", Unit: "V"},
		&Done{Exit: 1, Halted: "assert 0", SimCycles: 1 << 40, Commands: 3, ScriptErrors: 1},
		&Ping{Token: 42},
		&Pong{Token: 42},
		&SessResume{
			Spec: scenario.Spec{
				App: "linkedlist", Assert: true, Print: "none",
				Seconds: 12.5, Seed: -3, Interactive: true,
			},
			StreamTrace:      true,
			SpecHash:         0xdeadbeefcafe,
			SkipOutput:       4096,
			SkipTraceSamples: 1024,
			Journal: []JournalEntry{
				{Kind: JournalLine, Line: "snap"},
				{Kind: JournalLine, Line: "vcap"},
				{Kind: JournalLine, Line: "restore"},
				{Kind: JournalEOF},
			},
		},
		&SessResume{Spec: scenario.Spec{App: "cem"}, SpecHash: 7},
		&SessMigrate{SpecHash: 0xdeadbeefcafe, SimCycles: 1 << 33},
		&SessMigrate{SpecHash: 9},
		&Stat{},
		&StatReply{Sessions: 12, MaxSessions: 64, Draining: true},
		&Join{Addr: "10.0.0.2:7070"},
	}
}

// TestRoundTrip checks Decode(Encode(m)) == m for every message type, over
// both the in-memory and the io.Reader paths.
func TestRoundTrip(t *testing.T) {
	for _, m := range sampleMsgs() {
		f, err := EncodeMsg(m)
		if err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		got, err := ReadMsg(bytes.NewReader(f))
		if err != nil {
			t.Fatalf("%T: read: %v", m, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T: round trip mismatch:\n  sent %+v\n  got  %+v", m, m, got)
		}
		// Re-encoding the decoded message must reproduce the frame bytes
		// (canonical encoding).
		f2, err := EncodeMsg(got)
		if err != nil || !bytes.Equal(f, f2) {
			t.Errorf("%T: re-encode mismatch (%v)", m, err)
		}
	}
}

// TestStreamOfMessages decodes several frames back-to-back from one reader.
func TestStreamOfMessages(t *testing.T) {
	var buf bytes.Buffer
	msgs := sampleMsgs()
	for _, m := range msgs {
		if err := WriteMsg(&buf, m); err != nil {
			t.Fatalf("write %T: %v", m, err)
		}
	}
	for _, want := range msgs {
		got, err := ReadMsg(&buf)
		if err != nil {
			t.Fatalf("read %T: %v", want, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("stream mismatch: want %+v got %+v", want, got)
		}
	}
	if _, err := ReadMsg(&buf); err != io.EOF {
		t.Fatalf("want EOF after last frame, got %v", err)
	}
}

// TestDecodeRejects exercises framing-level rejections.
func TestDecodeRejects(t *testing.T) {
	// Oversized length field must be rejected before allocation.
	hdr := make([]byte, 6)
	hdr[0] = TypeOutput
	binary.BigEndian.PutUint32(hdr[2:], MaxFrame+1)
	if _, err := ReadMsg(bytes.NewReader(hdr)); err != ErrFrameTooBig {
		t.Fatalf("oversized frame: want ErrFrameTooBig, got %v", err)
	}

	// Non-zero flags byte is reserved.
	f, _ := EncodeMsg(&Prompt{})
	f[1] = 1
	if _, err := ReadMsg(bytes.NewReader(f)); err != ErrBadFlags {
		t.Fatalf("flags: want ErrBadFlags, got %v", err)
	}

	// Unknown type codes, including the retired explore and gossip types.
	for _, typ := range []byte{0xEE, 0x40, 0x41, 0x42, 0x50} {
		if _, err := DecodePayload(typ, nil); err == nil || !strings.Contains(err.Error(), "unknown message type") {
			t.Fatalf("unknown type %#02x: got %v", typ, err)
		}
	}

	// Trailing bytes after a complete message.
	if _, err := DecodePayload(TypePing, make([]byte, 9)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing bytes: got %v", err)
	}

	// Truncated field.
	if _, err := DecodePayload(TypePing, make([]byte, 3)); err == nil {
		t.Fatal("truncated field must fail")
	}

	// String length exceeding the payload must fail without allocating.
	p := binary.BigEndian.AppendUint16(nil, Version) // Hello.Version
	p = binary.BigEndian.AppendUint32(p, 1<<30)      // Hello.Client length
	if _, err := DecodePayload(TypeHello, p); err == nil {
		t.Fatal("hostile string length must fail")
	}

	// TraceZ sample count exceeding the blob length must fail: the codec
	// spends at least one byte per sample.
	var ez encoder
	ez.str("Vcap")
	ez.str("V")
	ez.u32(1 << 28)
	ez.bytes([]byte{0x00})
	if _, err := DecodePayload(TypeTraceZ, ez.b); err == nil {
		t.Fatal("hostile tracez count must fail")
	}

	// SessResume journal count exceeding the payload must fail without
	// allocating; each entry costs at least five bytes.
	var ej encoder
	encodeSpec(&ej, &scenario.Spec{App: "linkedlist"})
	ej.bool(false) // StreamTrace
	ej.u64(1)      // SpecHash
	ej.u64(0)      // SkipOutput
	ej.u64(0)      // SkipTraceSamples
	ej.u32(1 << 28)
	if _, err := DecodePayload(TypeSessResume, ej.b); err == nil ||
		!strings.Contains(err.Error(), "journal") {
		t.Fatalf("hostile journal count: got %v", err)
	}

	// Unknown journal entry kind must fail.
	var ek encoder
	encodeSpec(&ek, &scenario.Spec{App: "linkedlist"})
	ek.bool(false)
	ek.u64(1)
	ek.u64(0)
	ek.u64(0)
	ek.u32(1)
	ek.u8(0xFF)
	ek.str("")
	ek.bytes(nil)
	if _, err := DecodePayload(TypeSessResume, ek.b); err == nil ||
		!strings.Contains(err.Error(), "journal entry kind") {
		t.Fatalf("unknown journal kind: got %v", err)
	}

	// A SessResume or SessMigrate whose reserved slot is not empty: the
	// frames a sender of template images wrote. A receiver cannot check
	// an image, so it must refuse the frame rather than adopt the image.
	for _, fr := range imageFrames() {
		if _, err := ReadMsg(bytes.NewReader(fr)); err == nil ||
			!strings.Contains(err.Error(), "reserved field") {
			t.Fatalf("image-carrying frame type %#02x: got %v", fr[0], err)
		}
	}

	// Non-canonical bool byte.
	var e2 encoder
	e2.str("cmd")
	e2.u8(2)
	if _, err := DecodePayload(TypeCommand, e2.b); err == nil {
		t.Fatal("non-canonical bool must fail")
	}

	// Truncated stream mid-payload.
	f2, _ := EncodeMsg(&Output{Data: []byte("hello")})
	if _, err := ReadMsg(bytes.NewReader(f2[:len(f2)-2])); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated payload: want ErrUnexpectedEOF, got %v", err)
	}
}

// imageFrames returns a SessResume and a SessMigrate that carry template
// image bytes in their last field, laid out as senders of images encoded
// them: the image-carrying sample messages of that protocol.
func imageFrames() [][]byte {
	return [][]byte{
		rawFrame(TypeSessResume, func(e *encoder) {
			encodeSpec(e, &scenario.Spec{
				App: "linkedlist", Assert: true, Print: "none",
				Seconds: 12.5, Seed: -3, Interactive: true,
			})
			e.bool(true)
			e.u64(0xdeadbeefcafe)
			e.u64(4096)
			e.u64(1024)
			encodeJournal(e, []JournalEntry{
				{Kind: JournalLine, Line: "vcap"},
				{Kind: JournalLine, Line: "status"},
				{Kind: JournalEOF},
			})
			e.bytes([]byte{0x1f, 0x8b, 0x00})
		}),
		rawFrame(TypeSessMigrate, func(e *encoder) {
			e.u64(0xdeadbeefcafe)
			e.u64(1 << 33)
			e.bytes([]byte{0x42})
		}),
	}
}

// rawFrame frames the payload build writes under type typ with zero
// flags, so tests can lay out bytes no live message encodes.
func rawFrame(typ byte, build func(e *encoder)) []byte {
	var e encoder
	build(&e)
	fr := []byte{typ, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(fr[2:], uint32(len(e.b)))
	return append(fr, e.b...)
}

// TestEncodeRejectsOversize: messages larger than MaxFrame must not frame.
func TestEncodeRejectsOversize(t *testing.T) {
	if _, err := EncodeMsg(&Output{Data: make([]byte, MaxFrame+1)}); err != ErrFrameTooBig {
		t.Fatalf("want ErrFrameTooBig, got %v", err)
	}
}

// TestCapabilityFlags: the flags byte carries capability bits on Hello and
// Welcome only; everywhere else any set bit is rejected on both the encode
// and the decode path.
func TestCapabilityFlags(t *testing.T) {
	for _, m := range []Msg{&Hello{Version: Version, Client: "c"}, &Welcome{Version: Version, Server: "s"}} {
		f, err := EncodeMsgFlags(m, FlagTraceZ)
		if err != nil {
			t.Fatalf("%T: encode with FlagTraceZ: %v", m, err)
		}
		got, flags, err := ReadMsgFlags(bytes.NewReader(f))
		if err != nil {
			t.Fatalf("%T: read: %v", m, err)
		}
		if flags != FlagTraceZ {
			t.Fatalf("%T: flags %#02x, want FlagTraceZ", m, flags)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%T: round trip mismatch with flags", m)
		}
	}
	// Capability bits are invalid on non-handshake frames.
	if _, err := EncodeMsgFlags(&TraceZ{Name: "Vcap"}, FlagTraceZ); err != ErrBadFlags {
		t.Fatalf("TraceZ with flags: want ErrBadFlags, got %v", err)
	}
	f, _ := EncodeMsg(&TraceZ{Name: "Vcap"})
	f[1] = FlagTraceZ
	if _, _, err := ReadMsgFlags(bytes.NewReader(f)); err != ErrBadFlags {
		t.Fatalf("TraceZ frame with flags: want ErrBadFlags, got %v", err)
	}
}

// TestUnknownCapabilityBits pins the forward-compatibility contract: a
// handshake frame may carry capability bits this build does not know. The
// framing layer passes them through raw (so canonical re-encoding — and
// with it every old fuzz corpus entry — still holds) and negotiation masks
// them off with KnownCaps instead of the connection dying. Non-handshake
// frames still reject every non-zero flags byte.
func TestUnknownCapabilityBits(t *testing.T) {
	const future byte = 0x80
	for _, m := range []Msg{&Hello{Version: Version, Client: "c"}, &Welcome{Version: Version, Server: "s"}} {
		f, err := EncodeMsgFlags(m, future|FlagTraceZ)
		if err != nil {
			t.Fatalf("%T: encode with unknown bit: %v", m, err)
		}
		got, flags, err := ReadMsgFlags(bytes.NewReader(f))
		if err != nil {
			t.Fatalf("%T: read with unknown bit: %v", m, err)
		}
		if flags != future|FlagTraceZ {
			t.Fatalf("%T: flags %#02x, want raw pass-through %#02x", m, flags, future|FlagTraceZ)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%T: unknown bit changed the decoded payload", m)
		}
		// An unknown bit never grows the payload: the peer that set it is
		// down-negotiated before any capability-gated field is exchanged.
		if masked := flags & KnownCaps; masked != FlagTraceZ {
			t.Fatalf("%T: KnownCaps mask kept %#02x, want FlagTraceZ only", m, masked)
		}
	}
	// Non-handshake frames keep rejecting any set bit, known or not.
	for _, bit := range []byte{FlagTraceZ, 0x80} {
		if _, err := EncodeMsgFlags(&TraceZ{Name: "Vcap"}, bit); err != ErrBadFlags {
			t.Fatalf("TraceZ with flags %#02x: want ErrBadFlags, got %v", bit, err)
		}
		f, _ := EncodeMsg(&Prompt{})
		f[1] = bit
		if _, _, err := ReadMsgFlags(bytes.NewReader(f)); err != ErrBadFlags {
			t.Fatalf("Prompt frame with flags %#02x: want ErrBadFlags, got %v", bit, err)
		}
	}
}

// TestHelloAuthToken: the token field rides the Hello payload only under
// FlagAuth, gated by the same flag byte on encode and decode.
func TestHelloAuthToken(t *testing.T) {
	m := &Hello{Version: Version, Client: "edb", Token: "s3cret"}
	f, err := EncodeMsgFlags(m, FlagAuth|FlagTraceZ)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, flags, err := ReadMsgFlags(bytes.NewReader(f))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if flags != FlagAuth|FlagTraceZ {
		t.Fatalf("flags %#02x", flags)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("auth Hello round trip: want %+v got %+v", m, got)
	}
	// Canonical: re-encoding under the same flags reproduces the bytes.
	f2, err := EncodeMsgFlags(got, flags)
	if err != nil || !bytes.Equal(f, f2) {
		t.Fatalf("auth Hello re-encode mismatch (%v)", err)
	}

	// Without FlagAuth the token is not encoded — the frame is the
	// baseline layout and decodes token-less.
	f3, err := EncodeMsgFlags(m, FlagTraceZ)
	if err != nil {
		t.Fatalf("encode without FlagAuth: %v", err)
	}
	base, err := EncodeMsgFlags(&Hello{Version: Version, Client: "edb"}, FlagTraceZ)
	if err != nil || !bytes.Equal(f3, base) {
		t.Fatalf("token leaked into a no-auth frame (%v)", err)
	}

	// A FlagAuth frame that is missing the token field is truncated, not
	// silently token-less.
	if _, err := DecodePayloadFlags(TypeHello, FlagAuth, base[headerSize:]); err == nil {
		t.Fatal("FlagAuth Hello without a token field must fail to decode")
	}
}

// TestBaselineHandshakeGolden pins the exact bytes of a no-capability
// handshake, so no future capability can drift the baseline protocol: old
// clients must keep seeing these frames bit-for-bit.
func TestBaselineHandshakeGolden(t *testing.T) {
	hello, err := EncodeMsg(&Hello{Version: 1, Client: "edb"})
	if err != nil {
		t.Fatal(err)
	}
	wantHello := []byte{
		TypeHello, 0x00, 0x00, 0x00, 0x00, 0x09, // header: type, flags, len=9
		0x00, 0x01, // version 1
		0x00, 0x00, 0x00, 0x03, 'e', 'd', 'b', // client string
	}
	if !bytes.Equal(hello, wantHello) {
		t.Fatalf("baseline Hello bytes drifted:\n got %x\nwant %x", hello, wantHello)
	}
	welcome, err := EncodeMsg(&Welcome{Version: 1, Server: "edbd"})
	if err != nil {
		t.Fatal(err)
	}
	wantWelcome := []byte{
		TypeWelcome, 0x00, 0x00, 0x00, 0x00, 0x0A,
		0x00, 0x01,
		0x00, 0x00, 0x00, 0x04, 'e', 'd', 'b', 'd',
	}
	if !bytes.Equal(welcome, wantWelcome) {
		t.Fatalf("baseline Welcome bytes drifted:\n got %x\nwant %x", welcome, wantWelcome)
	}
}

// TestFrameBoundary: a chunk sized exactly at MaxFrame must round-trip, and
// one byte more must be rejected — mirroring the block-boundary tests in
// internal/edb/blockio_test.go.
func TestFrameBoundary(t *testing.T) {
	// TraceZ payload = 4+len(name) + 4+len(unit) + 4 + 4+len(data). With
	// name "abcd" and an empty unit that is 20 + len(data), so data of
	// MaxFrame-20 bytes lands exactly on MaxFrame (1<<20).
	data := make([]byte, MaxFrame-20)
	for i := range data {
		data[i] = byte(i)
	}
	tz := &TraceZ{Name: "abcd", Unit: "", Count: 1, Data: data}
	f, err := EncodeMsg(tz)
	if err != nil {
		t.Fatalf("encode TraceZ at boundary: %v", err)
	}
	if len(f) != headerSize+MaxFrame {
		t.Fatalf("TraceZ frame is %d bytes, want %d", len(f), headerSize+MaxFrame)
	}
	got, err := ReadMsg(bytes.NewReader(f))
	if err != nil {
		t.Fatalf("read TraceZ at boundary: %v", err)
	}
	if !reflect.DeepEqual(tz, got) {
		t.Fatal("boundary TraceZ round trip mismatch")
	}
	tz.Data = append(tz.Data, 0)
	if _, err := EncodeMsg(tz); err != ErrFrameTooBig {
		t.Fatalf("one byte past boundary: want ErrFrameTooBig, got %v", err)
	}
}

// TestAppendMsgReuse: framing into a reused buffer must not allocate.
func TestAppendMsgReuse(t *testing.T) {
	m := &TraceZ{Name: "Vcap", Unit: "V", Count: 2, Data: []byte{0x02, 0x0A, 0x02, 0x00}}
	buf, err := AppendMsg(nil, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), buf...)
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		buf, err = AppendMsg(buf[:0], m, 0)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("AppendMsg into reused buffer allocated %.1f times per run", allocs)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("reused AppendMsg produced different bytes")
	}
	// On error the destination must come back unchanged.
	buf2, err := AppendMsg(want, &Output{Data: make([]byte, MaxFrame+1)}, 0)
	if err != ErrFrameTooBig || len(buf2) != len(want) {
		t.Fatalf("oversize append: want unchanged dst + ErrFrameTooBig, got len %d, %v", len(buf2), err)
	}
}
