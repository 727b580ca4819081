package trace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/units"
)

func TestSeriesWindow(t *testing.T) {
	s := NewSeries("v", "V")
	for i := 0; i < 10; i++ {
		s.Add(sim.Cycles(i*10), float64(i))
	}
	w := s.Window(20, 50)
	if len(w) != 3 || w[0].At != 20 || w[2].At != 40 {
		t.Fatalf("window = %v", w)
	}
	if len(s.Window(1000, 2000)) != 0 {
		t.Fatal("out-of-range window must be empty")
	}
}

func TestSeriesMinMax(t *testing.T) {
	s := NewSeries("v", "V")
	if !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Fatal("empty series min/max must be NaN")
	}
	s.Add(0, 3)
	s.Add(1, -2)
	s.Add(2, 7)
	if s.Min() != -2 || s.Max() != 7 {
		t.Fatalf("min=%v max=%v", s.Min(), s.Max())
	}
	if len(s.Values()) != 3 {
		t.Fatal("values length")
	}
}

func TestLogCountFilter(t *testing.T) {
	l := NewLog("ev")
	l.Add(Event{Kind: "a"})
	l.Add(Event{Kind: "b"})
	l.Add(Event{Kind: "a", Arg: 2})
	if l.Count("") != 3 || l.Count("a") != 2 || l.Count("z") != 0 {
		t.Fatal("counts wrong")
	}
	if got := l.Filter("a"); len(got) != 2 || got[1].Arg != 2 {
		t.Fatalf("filter = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	st := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if st.N != 8 || st.Mean != 5 {
		t.Fatalf("stats = %+v", st)
	}
	// Sample SD of this classic set is ~2.138.
	if st.SD < 2.13 || st.SD > 2.15 {
		t.Fatalf("sd = %v", st.SD)
	}
	if st.Min != 2 || st.Max != 9 {
		t.Fatalf("min/max = %v/%v", st.Min, st.Max)
	}
	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Mean) {
		t.Fatal("empty stats")
	}
	one := Summarize([]float64{3})
	if one.SD != 0 {
		t.Fatalf("single-sample SD = %v", one.SD)
	}
}

func TestCDFMonotoneAndBounded(t *testing.T) {
	f := func(values []float64) bool {
		for i, v := range values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				values[i] = 0
			}
		}
		if len(values) == 0 {
			return true
		}
		c := NewCDF(values)
		sorted := append([]float64(nil), values...)
		sort.Float64s(sorted)
		prev := 0.0
		for _, x := range sorted {
			p := c.P(x)
			if p < prev-1e-12 || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return c.P(sorted[len(sorted)-1]) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5})
	if c.Quantile(0) != 1 || c.Quantile(1) != 5 {
		t.Fatal("quantile extremes")
	}
	if q := c.Quantile(0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if !math.IsNaN(NewCDF(nil).Quantile(0.5)) {
		t.Fatal("empty quantile must be NaN")
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 1, 2})
	pts := c.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %v", pts)
	}
	if pts[0][0] != 1 || math.Abs(pts[0][1]-2.0/3.0) > 1e-12 {
		t.Fatalf("first point = %v", pts[0])
	}
}

func TestRenderASCII(t *testing.T) {
	clock := sim.NewClock(1000)
	s := NewSeries("Vcap", "V")
	for i := 0; i < 100; i++ {
		s.Add(sim.Cycles(i), 1.8+0.6*float64(i%10)/10)
	}
	out := RenderASCII(s, clock, 40, 8)
	if !strings.Contains(out, "Vcap") || !strings.Contains(out, "*") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 10 { // header + 8 rows + axis
		t.Fatalf("render has %d lines", len(lines))
	}
	if !strings.Contains(RenderASCII(NewSeries("x", "V"), clock, 40, 8), "no samples") {
		t.Fatal("empty render")
	}
}

func TestRenderCDFASCII(t *testing.T) {
	c1 := NewCDF([]float64{1, 2, 3})
	c2 := NewCDF([]float64{4, 5, 6})
	out := RenderCDFASCII([]string{"a", "b"}, []*CDF{c1, c2}, 32, 8)
	if !strings.Contains(out, "a") || !strings.Contains(out, "o") {
		t.Fatalf("cdf render:\n%s", out)
	}
}

func TestCSV(t *testing.T) {
	clock := sim.NewClock(1000)
	s := NewSeries("Vcap", "V")
	s.Add(500, 2.4)
	out := CSV(s, clock)
	if !strings.Contains(out, "t_seconds,Vcap_V") || !strings.Contains(out, "0.500000,2.400000") {
		t.Fatalf("csv:\n%s", out)
	}
}

func TestPercentOfStore(t *testing.T) {
	if got := PercentOfStore(units.MicroJoules(1.354), units.MicroJoules(135.4)); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("pct = %v", got)
	}
	if !math.IsNaN(PercentOfStore(1, 0)) {
		t.Fatal("zero store must be NaN")
	}
}

func TestLogLimitRing(t *testing.T) {
	l := NewLog("ring")
	l.Limit = 8
	for i := 0; i < 20; i++ {
		l.Add(Event{Kind: "e", Arg: i})
	}
	if l.Len() > 8 {
		t.Fatalf("retained %d > limit", l.Len())
	}
	if l.Dropped == 0 {
		t.Fatal("drops must be counted")
	}
	// The newest event is always retained.
	if got := l.At(l.Len() - 1).Arg; got != 19 {
		t.Fatalf("newest = %d", got)
	}
	// Retained events stay in order.
	for i := 1; i < l.Len(); i++ {
		if l.At(i).Arg <= l.At(i-1).Arg {
			t.Fatal("order broken")
		}
	}
}

// storedRecords is the record capacity a log holds on to.
func storedRecords(l *Log) int {
	n := 0
	for _, c := range l.chunks {
		n += cap(c)
	}
	return n
}

// The log's storage stays within a chunk of Limit, and it keeps exactly the
// events a plain append-and-discard ring would.
func TestLogGrowthBoundedByLimit(t *testing.T) {
	l := NewLog("t")
	l.Limit = 5000
	var ref []Event
	var dropped uint64
	for i := 0; i < 25000; i++ {
		e := Event{At: sim.Cycles(i), Kind: "k", Arg: i}
		l.Add(e)
		if len(ref) >= 5000 {
			ref = ref[1250:]
			dropped += 1250
		}
		ref = append(ref, e)
		if got := storedRecords(l); got > l.Limit+2*chunkLen {
			t.Fatalf("after %d adds the log stores %d records for limit %d", i+1, got, l.Limit)
		}
	}
	if l.Dropped != dropped || l.Len() != len(ref) {
		t.Fatalf("dropped %d len %d, want %d and %d", l.Dropped, l.Len(), dropped, len(ref))
	}
	if got := l.Events(); !reflect.DeepEqual(got, ref) {
		t.Fatal("retained events differ from the reference ring")
	}

	// Lowering Limit below the length must not break Add.
	l.Limit = 10
	l.Add(Event{Kind: "late"})
	if got := l.At(l.Len() - 1).Kind; got != "late" {
		t.Fatalf("last event %q", got)
	}
}

// Events whose texts all differ, and whose Args do not fit a record, grow
// the symbol and wide-argument tables by one entry each; discards must
// keep those within a small multiple of Limit while the log still holds
// exactly what a plain ring would, and a state taken before the tables
// are rebuilt must keep reading its own events.
func TestLogTablesBoundedByLimit(t *testing.T) {
	l := NewLog("t")
	l.Limit = 64
	ev := func(i int) Event {
		return Event{At: sim.Cycles(i), Kind: "watchpoint", Arg: math.MaxInt64 - i, Text: fmt.Sprintf("V=%.4f", float64(i)/1e4)}
	}
	var ref, early []Event
	var st LogState
	for i := 0; i < 4*l.Limit; i++ {
		l.Add(ev(i))
		if len(ref) >= l.Limit {
			ref = ref[l.Limit/4:]
		}
		ref = append(ref, ev(i))
		if i == l.Limit {
			st, early = l.Snapshot(), l.Events()
		}
		if len(l.syms) > 3*l.Limit || len(l.wide) > 3*l.Limit {
			t.Fatalf("after %d adds the log holds %d symbols and %d wide args for limit %d",
				i+1, len(l.syms), len(l.wide), l.Limit)
		}
	}
	if got := l.Events(); !reflect.DeepEqual(got, ref) || l.Dropped != uint64(4*l.Limit-len(ref)) {
		t.Fatalf("retained events differ from the reference ring (dropped %d)", l.Dropped)
	}
	var r Log
	r.Restore(st)
	if !reflect.DeepEqual(r.Events(), early) {
		t.Fatal("rebuilding the tables changed what an earlier state holds")
	}
}

// A log restored from a snapshot holds the same events as the log it was
// taken from and evolves exactly as that log would, while appends on
// either side leave the snapshot and every other restored log untouched.
func TestLogSnapshotShares(t *testing.T) {
	kinds := []string{"gpio:app-pin", "uart", "watchpoint"}
	ev := func(i int) Event {
		e := Event{At: sim.Cycles(3 * i), Kind: kinds[i%3], Arg: i % 7}
		if i%5 == 0 {
			e.Text = fmt.Sprintf("t%d", i%11)
		}
		if i%97 == 0 {
			e.Arg = math.MaxInt64 - i // does not fit a record
		}
		return e
	}
	src := NewLog("src")
	src.Limit = 3000
	for i := 0; i < 4321; i++ {
		src.Add(ev(i))
	}
	want := src.Events()
	st := src.Snapshot()

	a, b := NewLog("a"), NewLog("b")
	a.Limit, b.Limit = src.Limit, src.Limit
	a.Restore(st)
	b.Restore(st)
	for i := 4321; i < 9000; i++ {
		src.Add(ev(i))
		a.Add(ev(i))
		if i < 5000 {
			b.Add(Event{Kind: "other", Arg: -i})
		}
	}
	if !reflect.DeepEqual(a.Events(), src.Events()) || a.Dropped != src.Dropped {
		t.Fatal("a restored log diverges from the log it was taken from")
	}

	var c Log
	c.Restore(st)
	if c.Dropped != st.dropped || !reflect.DeepEqual(c.Events(), want) {
		t.Fatal("appends after the snapshot changed what it holds")
	}
	if got := b.At(b.Len() - 1); got.Kind != "other" || got.Arg != -4999 {
		t.Fatalf("b's newest event = %v", got)
	}
	if n := b.Count("other"); n != 679 || b.Kinds()["other"] != n {
		t.Fatalf("b holds %d events of its own, want 679", n)
	}
}

// TestLogCountsMatchScan holds Kinds and Count, which read the per-symbol
// counts, to a full scan of the retained events, over random sequences of
// adds (which discard at Limit), compactions, snapshots into new and
// reused states, and restores. Every state must keep reading what it was
// taken with.
func TestLogCountsMatchScan(t *testing.T) {
	kinds := []string{"gpio:app-pin", "uart", "watchpoint", "energy"}
	type taken struct {
		st    LogState
		kinds map[string]int
	}
	scan := func(l *Log) map[string]int {
		want := make(map[string]int)
		for _, e := range l.Events() {
			want[e.Kind]++
		}
		return want
	}
	check := func(t *testing.T, l *Log, want map[string]int, step int) {
		t.Helper()
		if got := l.Kinds(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Kinds %v, a scan finds %v", step, got, want)
		}
		for _, k := range append(kinds, "none") {
			if got := l.Count(k); got != want[k] {
				t.Fatalf("step %d: Count(%q) = %d, a scan finds %d", step, k, got, want[k])
			}
		}
		if l.Count("") != l.Len() {
			t.Fatalf("step %d: Count(\"\") = %d for %d events", step, l.Count(""), l.Len())
		}
	}
	for seed := int64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			l := NewLog("p")
			l.Limit = 1 + rng.Intn(200)
			var states []taken
			for step := 0; step < 1500; step++ {
				switch r := rng.Intn(100); {
				case r < 80:
					e := Event{At: sim.Cycles(step), Kind: kinds[rng.Intn(len(kinds))], Arg: rng.Intn(4)}
					if rng.Intn(4) == 0 {
						e.Text = fmt.Sprintf("t%d", rng.Intn(3*l.Limit))
					}
					if rng.Intn(16) == 0 {
						e.Arg = math.MaxInt64 - step // does not fit a record
					}
					l.Add(e)
				case r < 84:
					l.compact()
				case r < 90:
					states = append(states, taken{l.Snapshot(), scan(l)})
				case r < 93 && len(states) > 0:
					i := rng.Intn(len(states))
					l.SnapshotInto(&states[i].st)
					states[i].kinds = scan(l)
				case len(states) > 0:
					s := states[rng.Intn(len(states))]
					l.Restore(s.st)
					check(t, l, s.kinds, step)
				}
				check(t, l, scan(l), step)
			}
			for i, s := range states {
				var r Log
				r.Restore(s.st)
				check(t, &r, s.kinds, -1-i)
			}
		})
	}
}
