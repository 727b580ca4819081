package wire

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// FuzzWireDecode feeds arbitrary byte streams through the frame decoder —
// the same corpus style as internal/debugwire's FuzzDecode. The decoder
// must never panic, must never allocate beyond the declared (bounded)
// frame length, and any message that decodes must re-encode to exactly the
// bytes it was decoded from.
func FuzzWireDecode(f *testing.F) {
	// Seed with one valid frame per message type…
	for _, m := range sampleMsgs() {
		fr, err := EncodeMsg(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(fr)
	}
	// …plus handshake frames carrying capability flags…
	if fr, err := EncodeMsgFlags(&Hello{Version: Version, Client: "edb"}, FlagTraceZ); err == nil {
		f.Add(fr)
	}
	if fr, err := EncodeMsgFlags(&Welcome{Version: Version, Server: "edbd"}, FlagTraceZ); err == nil {
		f.Add(fr)
	}
	// …auth handshakes: a token-bearing Hello, the server's FlagAuth echo,
	// and a Hello whose FlagAuth promises a token the payload doesn't have…
	if fr, err := EncodeMsgFlags(&Hello{Version: Version, Client: "edb", Token: "s3cret"}, FlagAuth|FlagTraceZ); err == nil {
		f.Add(fr)
	}
	if fr, err := EncodeMsgFlags(&Hello{Version: Version, Client: "edb", Token: ""}, FlagAuth); err == nil {
		f.Add(fr)
	}
	if fr, err := EncodeMsgFlags(&Welcome{Version: Version, Server: "edbd"}, FlagAuth); err == nil {
		f.Add(fr)
	}
	f.Add([]byte{TypeHello, FlagAuth, 0, 0, 0, 6, 0, 1, 0, 0, 0, 0})
	// …handshakes advertising capability bits this build does not know
	// (they must pass through the framing layer untouched)…
	if fr, err := EncodeMsgFlags(&Hello{Version: Version, Client: "edb"}, 0x80|FlagTraceZ); err == nil {
		f.Add(fr)
	}
	f.Add([]byte{TypeWelcome, 0xF8, 0, 0, 0, 6, 0, 1, 0, 0, 0, 0})
	// …cluster-tier handshakes and frames (FlagCluster peers)…
	if fr, err := EncodeMsgFlags(&Hello{Version: Version, Client: "edbd-gw"}, FlagCluster|FlagTraceZ); err == nil {
		f.Add(fr)
	}
	if fr, err := EncodeMsgFlags(&Welcome{Version: Version, Server: "edbd"}, FlagCluster); err == nil {
		f.Add(fr)
	}
	f.Add([]byte{TypeStat, 0, 0, 0, 0, 0})
	f.Add([]byte{TypeJoin, 0, 0, 0, 0, 4, 0, 0, 0, 0})
	// …frames of the retired explore shard protocol, which must now fail
	// as unknown types: one of each old message shape, a dedup shard, a
	// hostile state count, a hello result, an unknown shard kind, and
	// handshakes still offering the retired capability bit 0x10 (passed
	// through untouched, like any unknown bit)…
	for _, fr := range retiredExploreFrames() {
		f.Add(fr)
	}
	f.Add([]byte{0x41, 0, 0, 0, 0, 21, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 42})
	f.Add([]byte{0x41, 0, 0, 0, 0, 9, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x42, 0, 0, 0, 0, 9, 0, 0xde, 0xca, 0xfb, 0xad, 0, 0, 0, 0})
	f.Add([]byte{0x41, 0, 0, 0, 0, 5, 9, 0, 0, 0, 1})
	if fr, err := EncodeMsgFlags(&Hello{Version: Version, Client: "edbd-gw"}, 0x10|FlagCluster); err == nil {
		f.Add(fr)
	}
	if fr, err := EncodeMsgFlags(&Welcome{Version: Version, Server: "edbd"}, 0x10); err == nil {
		f.Add(fr)
	}
	// …frames of the retired gateway gossip protocol, which must now fail
	// as unknown types too: one of each old event shape, handshakes still
	// offering the retired capability bit 0x20, a backend-join event, a
	// hostile journal count in a session append, and an unknown gossip
	// kind…
	for _, fr := range retiredGossipFrames() {
		f.Add(fr)
	}
	if fr, err := EncodeMsgFlags(&Hello{Version: Version, Client: "edbd-gw"}, 0x20|FlagCluster); err == nil {
		f.Add(fr)
	}
	if fr, err := EncodeMsgFlags(&Welcome{Version: Version, Server: "edbd-gw"}, 0x20); err == nil {
		f.Add(fr)
	}
	f.Add([]byte{0x50, 0, 0, 0, 0, 10, 2, 0, 0, 0, 5, ':', '3', '4', '9', '0'})
	f.Add([]byte{0x50, 0, 0, 0, 0, 17, 6, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0x50, 0, 0, 0, 0, 1, 99})
	// …frames of the retired snapshot path, which must now fail too: the
	// SnapSave and SnapRestore prompt answers (types 0x12 and 0x13, one
	// still flagged with the retired bit 0x02 and one with a stray payload
	// byte), resumes whose journals hold the retired kinds 2 and 3, and
	// handshakes still offering bit 0x02, alone and beside the live bits
	// (passed through untouched, like any unknown bit)…
	for _, fr := range append(retiredSnapFrames(), retiredJournalFrames()...) {
		f.Add(fr)
	}
	f.Add([]byte{0x12, 0x02, 0, 0, 0, 0})
	f.Add([]byte{0x13, 0, 0, 0, 0, 1, 0xAA})
	// …raw trace chunks (type 0x22), retired for TraceZ: one with samples,
	// an empty one, and one whose sample count exceeds its payload…
	for _, fr := range retiredTraceFrames() {
		f.Add(fr)
	}
	for _, caps := range []byte{0x02, 0x02 | FlagTraceZ, 0x02 | FlagTraceZ | FlagCluster} {
		if fr, err := EncodeMsgFlags(&Hello{Version: Version, Client: "edb"}, caps); err == nil {
			f.Add(fr)
		}
		if fr, err := EncodeMsgFlags(&Welcome{Version: Version, Server: "edbd"}, caps); err == nil {
			f.Add(fr)
		}
	}
	if fr, err := EncodeMsgFlags(&Hello{Version: Version, Client: "edb", Token: "s3cret"}, FlagAuth|FlagTraceZ|0x02); err == nil {
		f.Add(fr)
	}
	// …a truncated SessResume whose journal count promises more entries than
	// the payload holds (the decoder must reject it before allocating)…
	f.Add([]byte{TypeSessResume, 0, 0, 0, 0, 4, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{TypeSessMigrate, 0, 0, 0, 0, 4, 0, 0, 0, 9})
	// …plus classic malformed shapes: empty, garbage, truncated header,
	// hostile length fields, reserved flags.
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02})
	f.Add([]byte{TypeHello, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{TypeOutput, 0, 0x00, 0x10, 0x00, 0x01, 0x00})
	f.Add([]byte{TypePrompt, 1, 0, 0, 0, 0})
	f.Add([]byte{TypeTraceZ, 1, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr frameReader
		m, flags, err := fr.read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Overwrite the payload buffer the message was decoded from, as a
		// Peer's next frame does: a message that aliased it would change.
		for i := range fr.payload {
			fr.payload[i] = ^fr.payload[i]
		}
		// A decoded message must re-encode canonically to the consumed
		// prefix of the input, flag bits included.
		re, eerr := EncodeMsgFlags(m, flags)
		if eerr != nil {
			t.Fatalf("re-encode of decoded %T failed: %v", m, eerr)
		}
		if len(re) > len(data) || !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("re-encode mismatch for %T:\n  in  %x\n  out %x", m, data[:min(len(data), 64)], re[:min(len(re), 64)])
		}
	})
}

// retiredExploreFrames returns one frame of each message shape the
// retired explore shard protocol carried in types 0x40–0x42, laid out as
// that protocol encoded them: two session opens (spec plus search
// options), an expand shard with delta pages, two dedup shards, and a
// hello, two expansions and a dedup verdict result.
func retiredExploreFrames() [][]byte {
	open := func(spec scenario.Spec, guards bool, mode string, check bool, opts ...uint32) func(*encoder) {
		return func(e *encoder) {
			encodeSpec(e, &spec)
			e.bool(guards)
			e.str(mode)
			e.bool(check)
			for _, n := range opts { // depth, writes, states, workers, backends
				e.u32(n)
			}
		}
	}
	return [][]byte{
		rawFrame(0x40, open(scenario.Spec{App: "linkedlist", Seconds: 10, Distance: 1, Seed: 42, Print: "none"},
			false, "write", true, 3, 8, 64, 2, 2)),
		rawFrame(0x40, open(scenario.Spec{App: "safelist"}, true, "page", false, 0, 0, 0, 0, 0)),
		rawFrame(0x41, func(e *encoder) {
			e.u8(0) // expand
			e.u32(7)
			e.u32(2)
			e.u32(0)
			e.u32(0)
			e.u64(0xfeedface)
			e.u32(0)
			e.u32(3)
			e.u32(2)
			e.u64(0xabad1dea)
			e.u32(2)
			e.u32(0)
			e.bytes([]byte{1, 2, 3})
			e.u32(64)
			e.bytes([]byte{4})
		}),
		rawFrame(0x41, func(e *encoder) {
			e.u8(1) // dedup
			e.u32(8)
			e.u32(1)
			e.u32(3)
			e.u64(1)
			e.u64(2)
			e.u64(1 << 60)
		}),
		rawFrame(0x41, func(e *encoder) {
			e.u8(1)
			e.u32(9)
			e.u32(0)
			e.u32(0)
		}),
		rawFrame(0x42, func(e *encoder) {
			e.u8(0) // hello
			e.u64(0xdecafbad)
		}),
		rawFrame(0x42, func(e *encoder) {
			e.u8(1) // expanded, with a hazard and two children
			e.u32(7)
			e.u32(1)
			e.str("injected")
			e.u32(4)
			e.u32(1)
			e.u32(5)
			e.bool(true)
			e.u16(0x4412)
			e.u32(2)
			e.u64(900)
			e.u32(2)
			e.u32(1)
			e.u64(11)
			e.u32(1)
			e.u32(128)
			e.bytes([]byte{9, 9})
			e.u32(2)
			e.u64(12)
			e.u32(0)
		}),
		rawFrame(0x42, func(e *encoder) {
			e.u8(1)
			e.u32(7)
			e.u32(0)
			e.str("returned")
			e.u32(0)
			e.u32(0)
			e.u32(0)
			e.bool(false)
			e.u32(0)
		}),
		rawFrame(0x42, func(e *encoder) {
			e.u8(2) // dedup verdicts
			e.u32(8)
			e.u32(3)
			e.bool(true)
			e.bool(false)
			e.bool(true)
		}),
	}
}

// retiredGossipFrames returns one frame of each event the retired
// gateway gossip protocol carried in type 0x50, laid out as that protocol
// encoded them: a heartbeat, a reset, a backend join and leave, two
// template-image fills, a session open, two journal appends and a session
// close.
func retiredGossipFrames() [][]byte {
	gossip := func(kind byte, build func(e *encoder)) []byte {
		return rawFrame(0x50, func(e *encoder) {
			e.u8(kind)
			build(e)
		})
	}
	none := func(*encoder) {}
	return [][]byte{
		gossip(0, none), // heartbeat
		gossip(1, none), // reset
		gossip(2, func(e *encoder) { e.str("10.0.0.2:3490") }), // backend join
		gossip(3, func(e *encoder) { e.str("10.0.0.2:3490") }), // backend leave
		gossip(4, func(e *encoder) { // template image
			e.u64(0xfeedface)
			e.bytes([]byte{0x1f, 0x8b})
		}),
		gossip(4, func(e *encoder) {
			e.u64(3)
			e.bytes(nil)
		}),
		gossip(5, func(e *encoder) { // session open
			e.u64(9)
			encodeSpec(e, &scenario.Spec{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42, Interactive: true})
			e.bool(true)
		}),
		gossip(6, func(e *encoder) { // session append
			e.u64(9)
			e.u32(2)
			encodeJournal(e, []JournalEntry{{Kind: JournalLine, Line: "vcap"}, {Kind: 2}}) // 2: a retired SnapSave answer
			e.u64(4096)
			e.u64(1024)
		}),
		gossip(6, func(e *encoder) {
			e.u64(9)
			e.u32(4)
			encodeJournal(e, nil)
			e.u64(5000)
			e.u64(0)
		}),
		gossip(7, func(e *encoder) { e.u64(9) }), // session close
	}
}

// retiredSnapFrames returns the two prompt answers of the retired
// snapshot path as its clients sent them: SnapSave (type 0x12) and
// SnapRestore (type 0x13), each with an empty payload.
func retiredSnapFrames() [][]byte {
	return [][]byte{{0x12, 0, 0, 0, 0, 0}, {0x13, 0, 0, 0, 0, 0}}
}

// retiredJournalFrames returns SessResume frames whose journals hold the
// retired kinds 2 (a SnapSave answer) and 3 (a SnapRestore answer), laid
// out as the gateway and the client journaled them.
func retiredJournalFrames() [][]byte {
	resume := func(kind byte) []byte {
		return rawFrame(TypeSessResume, func(e *encoder) {
			encodeSpec(e, &scenario.Spec{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42, Interactive: true})
			e.bool(false)
			e.u64(0xdeadbeefcafe)
			e.u64(512)
			e.u64(0)
			encodeJournal(e, []JournalEntry{{Kind: JournalLine, Line: "vcap"}, {Kind: kind}, {Kind: JournalEOF}})
			e.reserved()
		})
	}
	return [][]byte{resume(2), resume(3)}
}

// retiredTraceFrames returns raw trace chunks (type 0x22) as the retired
// raw stream laid them out: name, unit, a sample count and 16 bytes
// (uint64 cycle, float64 volts) per sample. One carries two samples, one
// is empty, and one claims 1<<28 samples its payload does not hold.
func retiredTraceFrames() [][]byte {
	chunk := func(count uint32, samples ...TracePoint) []byte {
		return rawFrame(0x22, func(e *encoder) {
			e.str("Vcap")
			e.str("V")
			e.u32(count)
			for _, s := range samples {
				e.u64(s.At)
				e.f64(s.V)
			}
		})
	}
	return [][]byte{chunk(2, TracePoint{At: 1, V: 2.5}, TracePoint{At: 99, V: 1.75}), chunk(0), chunk(1 << 28)}
}

// TestRetiredProtocolFramesRejected: every frame of the retired explore
// shard protocol, of the retired gateway gossip protocol, of the retired
// snapshot path and of the retired raw trace stream fails to decode as an
// unknown message type, and a resume whose journal holds a retired
// snapshot kind fails on that kind.
func TestRetiredProtocolFramesRejected(t *testing.T) {
	retired := append(retiredExploreFrames(), retiredGossipFrames()...)
	retired = append(retired, retiredTraceFrames()...)
	for i, fr := range append(retired, retiredSnapFrames()...) {
		if _, _, err := ReadMsgFlags(bytes.NewReader(fr)); err == nil || !strings.Contains(err.Error(), "unknown message type") {
			t.Fatalf("retired frame %d (type %#02x): got %v", i, fr[0], err)
		}
	}
	for i, fr := range retiredJournalFrames() {
		if _, _, err := ReadMsgFlags(bytes.NewReader(fr)); err == nil || !strings.Contains(err.Error(), "unknown journal entry kind") {
			t.Fatalf("resume %d with a retired journal kind: got %v", i, err)
		}
	}
}
