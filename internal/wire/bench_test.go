package wire

import (
	"fmt"
	"strings"
	"testing"
)

// benchMsgs returns the first sample message of each type, named by type.
func benchMsgs() (names []string, msgs []Msg) {
	seen := map[byte]bool{}
	for _, m := range sampleMsgs() {
		if !seen[m.Type()] {
			seen[m.Type()] = true
			names = append(names, strings.TrimPrefix(fmt.Sprintf("%T", m), "*wire."))
			msgs = append(msgs, m)
		}
	}
	return names, msgs
}

// BenchmarkEncode appends one frame per message type into a reused buffer,
// as a Peer's Queue does.
func BenchmarkEncode(b *testing.B) {
	names, msgs := benchMsgs()
	for i, m := range msgs {
		b.Run(names[i], func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				var err error
				if buf, err = AppendMsg(buf[:0], m, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

// BenchmarkDecode decodes one payload per message type.
func BenchmarkDecode(b *testing.B) {
	names, msgs := benchMsgs()
	for i, m := range msgs {
		f, err := EncodeMsg(m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(names[i], func(b *testing.B) {
			b.SetBytes(int64(len(f)))
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := DecodePayload(f[0], f[headerSize:]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
