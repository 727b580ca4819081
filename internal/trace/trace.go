// Package trace provides the recording and rendering layer for EDB's
// passive-mode streams: voltage time series, discrete event streams
// (watchpoints, I/O messages, debugger actions), summary statistics, CDFs,
// and ASCII plots used to regenerate the paper's figures.
package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/units"
)

// Sample is one timestamped scalar measurement.
type Sample struct {
	At sim.Cycles
	V  float64
}

// Series is an append-only time series of scalar samples.
type Series struct {
	Name    string
	Unit    string
	Samples []Sample
}

// NewSeries returns an empty series.
func NewSeries(name, unit string) *Series {
	return &Series{Name: name, Unit: unit}
}

// Add appends a sample.
func (s *Series) Add(at sim.Cycles, v float64) {
	s.Samples = append(s.Samples, Sample{At: at, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Samples) }

// Window returns the samples with at in [from, to).
func (s *Series) Window(from, to sim.Cycles) []Sample {
	lo := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].At >= from })
	hi := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].At >= to })
	return s.Samples[lo:hi]
}

// Min returns the smallest sample value (NaN if empty).
func (s *Series) Min() float64 {
	if len(s.Samples) == 0 {
		return math.NaN()
	}
	m := s.Samples[0].V
	for _, x := range s.Samples[1:] {
		if x.V < m {
			m = x.V
		}
	}
	return m
}

// Max returns the largest sample value (NaN if empty).
func (s *Series) Max() float64 {
	if len(s.Samples) == 0 {
		return math.NaN()
	}
	m := s.Samples[0].V
	for _, x := range s.Samples[1:] {
		if x.V > m {
			m = x.V
		}
	}
	return m
}

// Values returns just the sample values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Samples))
	for i, x := range s.Samples {
		out[i] = x.V
	}
	return out
}

// Event is one timestamped discrete occurrence.
type Event struct {
	At   sim.Cycles
	Kind string
	Arg  int
	Text string
}

func (e Event) String() string {
	if e.Text != "" {
		return fmt.Sprintf("%d %s %s", e.At, e.Kind, e.Text)
	}
	return fmt.Sprintf("%d %s %d", e.At, e.Kind, e.Arg)
}

// Log is an event stream. With Limit > 0 it behaves as a ring: once full,
// the oldest events are discarded (Dropped counts them), bounding memory
// for long passive-monitoring sessions.
type Log struct {
	Name   string
	Events []Event
	// Limit bounds the retained events (0 = unbounded).
	Limit int
	// Dropped counts events discarded to honor Limit.
	Dropped uint64
}

// NewLog returns an empty unbounded event log.
func NewLog(name string) *Log { return &Log{Name: name} }

// Add appends an event, discarding the oldest quarter of the log when the
// limit is reached (batch discard keeps Add amortized O(1)).
func (l *Log) Add(e Event) {
	if l.Limit > 0 && len(l.Events) >= l.Limit {
		drop := l.Limit / 4
		if drop < 1 {
			drop = 1
		}
		l.Dropped += uint64(drop)
		l.Events = append(l.Events[:0], l.Events[drop:]...)
	}
	if len(l.Events) == cap(l.Events) {
		l.grow()
	}
	l.Events = append(l.Events, e)
}

// grow doubles the log's capacity, capped at Limit. Past a few hundred
// elements append grows a slice only about 1.25x at a time, so a long
// passive session would re-copy its whole event history many times over.
func (l *Log) grow() {
	n := max(2*cap(l.Events), 64)
	if l.Limit > 0 {
		n = min(n, l.Limit)
	}
	if n <= len(l.Events) {
		return // Limit was lowered below the length: leave it to append
	}
	events := make([]Event, len(l.Events), n)
	copy(events, l.Events)
	l.Events = events
}

// Count returns the number of events of the given kind ("" counts all).
func (l *Log) Count(kind string) int {
	if kind == "" {
		return len(l.Events)
	}
	n := 0
	for _, e := range l.Events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// Filter returns the events of the given kind.
func (l *Log) Filter(kind string) []Event {
	var out []Event
	for _, e := range l.Events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Stats summarizes a set of scalar values.
type Stats struct {
	N        int
	Mean, SD float64
	Min, Max float64
}

// Summarize computes N, mean, standard deviation (sample), min, and max.
func Summarize(values []float64) Stats {
	st := Stats{N: len(values)}
	if st.N == 0 {
		st.Mean, st.SD = math.NaN(), math.NaN()
		st.Min, st.Max = math.NaN(), math.NaN()
		return st
	}
	st.Min, st.Max = values[0], values[0]
	var sum float64
	for _, v := range values {
		sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean = sum / float64(st.N)
	if st.N > 1 {
		var ss float64
		for _, v := range values {
			d := v - st.Mean
			ss += d * d
		}
		st.SD = math.Sqrt(ss / float64(st.N-1))
	}
	return st
}

func (st Stats) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g", st.N, st.Mean, st.SD, st.Min, st.Max)
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from values.
func NewCDF(values []float64) *CDF {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// P returns the cumulative probability at x: fraction of values <= x.
func (c *CDF) P(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (0 <= q <= 1).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := q * float64(len(c.sorted)-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= len(c.sorted) {
		return c.sorted[lo]
	}
	return c.sorted[lo]*(1-frac) + c.sorted[lo+1]*frac
}

// Points returns (x, P(x)) pairs at every distinct value, suitable for
// plotting the CDF as the paper's Figure 11 does.
func (c *CDF) Points() [][2]float64 {
	var out [][2]float64
	n := float64(len(c.sorted))
	for i, x := range c.sorted {
		if i+1 < len(c.sorted) && c.sorted[i+1] == x {
			continue
		}
		out = append(out, [2]float64{x, float64(i+1) / n})
	}
	return out
}

// N returns the number of observations.
func (c *CDF) N() int { return len(c.sorted) }

// RenderASCII draws a series as a fixed-size ASCII chart. clock converts
// cycles to seconds for the x-axis labels.
func RenderASCII(s *Series, clock *sim.Clock, width, height int) string {
	if len(s.Samples) == 0 {
		return fmt.Sprintf("%s: (no samples)\n", s.Name)
	}
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	lo, hi := s.Min(), s.Max()
	if hi == lo {
		hi = lo + 1
	}
	t0 := s.Samples[0].At
	t1 := s.Samples[len(s.Samples)-1].At
	span := float64(t1 - t0)
	if span == 0 {
		span = 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, smp := range s.Samples {
		x := int(float64(smp.At-t0) / span * float64(width-1))
		y := int((smp.V - lo) / (hi - lo) * float64(height-1))
		row := height - 1 - y
		grid[row][x] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s]  y:[%.3g, %.3g]  x:[%s, %s]\n",
		s.Name, s.Unit, lo, hi, clock.ToSeconds(t0), clock.ToSeconds(t1))
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString("  +" + strings.Repeat("-", width) + "\n")
	return b.String()
}

// RenderCDFASCII draws one or more CDFs on a shared axis.
func RenderCDFASCII(names []string, cdfs []*CDF, width, height int) string {
	if len(cdfs) == 0 {
		return "(no cdfs)\n"
	}
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range cdfs {
		if c.N() == 0 {
			continue
		}
		if c.sorted[0] < lo {
			lo = c.sorted[0]
		}
		if c.sorted[len(c.sorted)-1] > hi {
			hi = c.sorted[len(c.sorted)-1]
		}
	}
	if math.IsInf(lo, 1) {
		return "(empty cdfs)\n"
	}
	if hi == lo {
		hi = lo + 1
	}
	marks := []byte{'*', 'o', '+', 'x', '#'}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for ci, c := range cdfs {
		mark := marks[ci%len(marks)]
		for xi := 0; xi < width; xi++ {
			x := lo + (hi-lo)*float64(xi)/float64(width-1)
			p := c.P(x)
			y := int(p * float64(height-1))
			row := height - 1 - y
			if grid[row][xi] == ' ' {
				grid[row][xi] = mark
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "CDF  x:[%.3g, %.3g]  y:[0,1]\n", lo, hi)
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString("  +" + strings.Repeat("-", width) + "\n")
	for i, n := range names {
		fmt.Fprintf(&b, "  %c = %s\n", marks[i%len(marks)], n)
	}
	return b.String()
}

// CSV renders a series as "seconds,value" lines.
func CSV(s *Series, clock *sim.Clock) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t_seconds,%s_%s\n", s.Name, s.Unit)
	for _, smp := range s.Samples {
		fmt.Fprintf(&b, "%.6f,%.6f\n", float64(clock.ToSeconds(smp.At)), smp.V)
	}
	return b.String()
}

// PercentOfStore converts an energy in joules to the paper's favorite unit:
// percent of the target's maximum storage capacity.
func PercentOfStore(e units.Joules, maxStore units.Joules) float64 {
	if maxStore == 0 {
		return math.NaN()
	}
	return 100 * float64(e) / float64(maxStore)
}
