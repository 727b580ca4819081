package wire

import (
	"bytes"
	"encoding/binary"
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
	if fr, err := EncodeMsgFlags(&Hello{Version: Version, Client: "edb"}, FlagTraceZ|FlagSnap); err == nil {
		f.Add(fr)
	}
	if fr, err := EncodeMsgFlags(&Welcome{Version: Version, Server: "edbd"}, FlagSnap); err == nil {
		f.Add(fr)
	}
	// …auth handshakes: a token-bearing Hello, the server's FlagAuth echo,
	// and a Hello whose FlagAuth promises a token the payload doesn't have…
	if fr, err := EncodeMsgFlags(&Hello{Version: Version, Client: "edb", Token: "s3cret"}, FlagAuth|FlagTraceZ|FlagSnap); err == nil {
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
	f.Add([]byte{TypeSnapSave, FlagSnap, 0, 0, 0, 0})
	f.Add([]byte{TypeSnapRestore, 0, 0, 0, 0, 1, 0xAA})
	// …cluster-tier handshakes and frames (FlagCluster peers)…
	if fr, err := EncodeMsgFlags(&Hello{Version: Version, Client: "edbd-gw"}, FlagCluster|FlagTraceZ|FlagSnap); err == nil {
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
	// …gossip-tier handshakes and frames (FlagGossip gateway peers): a
	// replicated-gateway hello, a backend-join event, a hostile journal
	// count in a session append (rejected before allocating), and an
	// unknown gossip kind…
	if fr, err := EncodeMsgFlags(&Hello{Version: Version, Client: "edbd-gw"}, FlagGossip|FlagCluster); err == nil {
		f.Add(fr)
	}
	if fr, err := EncodeMsgFlags(&Welcome{Version: Version, Server: "edbd-gw"}, FlagGossip); err == nil {
		f.Add(fr)
	}
	f.Add([]byte{TypeGossip, 0, 0, 0, 0, 10, 2, 0, 0, 0, 5, ':', '3', '4', '9', '0'})
	f.Add([]byte{TypeGossip, 0, 0, 0, 0, 17, 6, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{TypeGossip, 0, 0, 0, 0, 1, 99})
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
		m, flags, err := ReadMsgFlags(bytes.NewReader(data))
		if err != nil {
			return
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
	frame := func(typ byte, build func(e *encoder)) []byte {
		var e encoder
		build(&e)
		fr := []byte{typ, 0, 0, 0, 0, 0}
		binary.BigEndian.PutUint32(fr[2:], uint32(len(e.b)))
		return append(fr, e.b...)
	}
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
		frame(0x40, open(scenario.Spec{App: "linkedlist", Seconds: 10, Distance: 1, Seed: 42, Print: "none"},
			false, "write", true, 3, 8, 64, 2, 2)),
		frame(0x40, open(scenario.Spec{App: "safelist"}, true, "page", false, 0, 0, 0, 0, 0)),
		frame(0x41, func(e *encoder) {
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
		frame(0x41, func(e *encoder) {
			e.u8(1) // dedup
			e.u32(8)
			e.u32(1)
			e.u32(3)
			e.u64(1)
			e.u64(2)
			e.u64(1 << 60)
		}),
		frame(0x41, func(e *encoder) {
			e.u8(1)
			e.u32(9)
			e.u32(0)
			e.u32(0)
		}),
		frame(0x42, func(e *encoder) {
			e.u8(0) // hello
			e.u64(0xdecafbad)
		}),
		frame(0x42, func(e *encoder) {
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
		frame(0x42, func(e *encoder) {
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
		frame(0x42, func(e *encoder) {
			e.u8(2) // dedup verdicts
			e.u32(8)
			e.u32(3)
			e.bool(true)
			e.bool(false)
			e.bool(true)
		}),
	}
}

// TestRetiredExploreFramesRejected: every frame of the retired explore
// shard protocol fails to decode as an unknown message type.
func TestRetiredExploreFramesRejected(t *testing.T) {
	for i, fr := range retiredExploreFrames() {
		if _, _, err := ReadMsgFlags(bytes.NewReader(fr)); err == nil || !strings.Contains(err.Error(), "unknown message type") {
			t.Fatalf("retired frame %d (type %#02x): got %v", i, fr[0], err)
		}
	}
}
