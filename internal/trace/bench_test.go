package trace

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkLogAdd appends GPIO events to a log bounded like EDB's (the
// newest 2^20 events), so long runs include both growth and ring discard.
func BenchmarkLogAdd(b *testing.B) {
	l := NewLog("bench")
	l.Limit = 1 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Add(Event{At: sim.Cycles(i), Kind: "gpio:app-pin", Arg: i & 1})
	}
}
