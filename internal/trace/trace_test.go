package trace

import (
	"math"
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
	if len(l.Events) > 8 {
		t.Fatalf("retained %d > limit", len(l.Events))
	}
	if l.Dropped == 0 {
		t.Fatal("drops must be counted")
	}
	// The newest event is always retained.
	if l.Events[len(l.Events)-1].Arg != 19 {
		t.Fatalf("newest = %d", l.Events[len(l.Events)-1].Arg)
	}
	// Retained events stay in order.
	for i := 1; i < len(l.Events); i++ {
		if l.Events[i].Arg <= l.Events[i-1].Arg {
			t.Fatal("order broken")
		}
	}
}

// The log grows geometrically but never past Limit, and keeps exactly the
// events a plain append-and-discard ring would.
func TestLogGrowthBoundedByLimit(t *testing.T) {
	l := NewLog("t")
	l.Limit = 1000
	var ref []Event
	var dropped uint64
	for i := 0; i < 5000; i++ {
		e := Event{At: sim.Cycles(i), Kind: "k", Arg: i}
		l.Add(e)
		if len(ref) >= 1000 {
			ref = ref[250:]
			dropped += 250
		}
		ref = append(ref, e)
		if cap(l.Events) > l.Limit {
			t.Fatalf("after %d adds cap %d exceeds limit %d", i+1, cap(l.Events), l.Limit)
		}
	}
	if l.Dropped != dropped || len(l.Events) != len(ref) {
		t.Fatalf("dropped %d len %d, want %d and %d", l.Dropped, len(l.Events), dropped, len(ref))
	}
	for i := range ref {
		if l.Events[i] != ref[i] {
			t.Fatalf("event %d = %v, want %v", i, l.Events[i], ref[i])
		}
	}

	// Lowering Limit below the length must not break Add.
	l.Limit = 10
	l.Add(Event{Kind: "late"})
	if got := l.Events[len(l.Events)-1].Kind; got != "late" {
		t.Fatalf("last event %q", got)
	}
}
