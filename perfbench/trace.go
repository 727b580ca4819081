package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"time"
)

// profiledLayers are the packages whose CPU self time a traced run reports
// as "<layer>.self_ms", CPU milliseconds per op. They are the layers only
// the program itself calls, so the benchmark cannot put spans around them.
var profiledLayers = []string{
	"energy", "device", "sim", "rand", "edb", "circuit", "isa", "memsim",
	"fleet", "periph", "apps", "explore", "runtime", "wire", "server",
	"cluster", "client", "console", "tracecodec", "syscall", "scenario",
}

// perLayerJSON lists, in BENCHMARK.json order, the metrics of a traced
// run's result line. A metric that does not apply to the workload reads 0.
var perLayerJSON = func() []struct{ name, unit string } {
	var l []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			l = append(l, struct{ name, unit string }{n, unit})
		}
	}
	for _, p := range profiledLayers {
		add("ms", p+".self_ms")
	}
	for _, e := range rigExperiments {
		add("ms", "experiments."+e.id+"_ms")
	}
	add("ms", "scenario.run_ms", "explore.expand_ms", "explore.dedup_ms", "explore.coord_ms",
		"client.dial_ms_p50", "server.cmd_ms_p50", "cluster.relay_ms_p50", "client.trace_ms_p50")
	add("count", "sim.cycles", "device.reboots", "device.faults", "device.watchpoints")
	add("s", "fleet.sim_s")
	add("count", "fleet.reboots", "fleet.completed", "fleet.faults")
	add("B", "fleet.bytes_per_tag")
	add("count", "explore.states", "explore.branches", "explore.segments", "explore.waves", "explore.batches")
	add("%", "explore.dedup_hit_pct")
	add("count", "server.commands", "server.sim_cycles", "cluster.frames_relayed")
	add("B", "cluster.bytes_relayed", "server.trace_bytes_per_sample")
	add("%", "scenario.warm_fork_pct", "scenario.spare_pop_pct")
	add("count", "scenario.cold_boots")
	add("MB", "runtime.alloc_mb")
	return l
}()

// span is one timed call the benchmark made into the program.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for an op
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"` // both relative to the opening of the timed window
}

// tracer keeps the spans of a traced run in memory until the run ends. All
// of its methods do nothing on a nil tracer, which is what untraced runs
// pass, so workloads call them unconditionally.
type tracer struct {
	t0    time.Time
	op    int
	open  []int // indices of the open spans, innermost last
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginOp opens the root span of op i.
func (t *tracer) beginOp(i int) {
	if t == nil {
		return
	}
	t.op = i
	t.begin("op")
}

// begin opens a span inside the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.parent(), Start: int64(time.Since(t.t0))})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = int64(time.Since(t.t0))
}

// interval records a span that is already over, inside the innermost open
// one: for intervals whose end is known only after the fact.
func (t *tracer) interval(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.parent(),
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// selfPerOp returns, for every op that has spans of this name, their total
// self time in milliseconds: each span's duration less that of its child
// spans.
func (t *tracer) selfPerOp(name string) []float64 {
	if t == nil {
		return nil
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	perOp := map[int]int64{}
	var order []int
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, ok := perOp[s.Op]; !ok {
			order = append(order, s.Op)
		}
		perOp[s.Op] += s.End - s.Start - child[i]
	}
	out := make([]float64, len(order))
	for i, op := range order {
		out[i] = ms(time.Duration(perOp[op]))
	}
	return out
}

// durations returns the duration in milliseconds of every span of a name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(time.Duration(s.End-s.Start)))
		}
	}
	return out
}

// write saves the spans as JSON lines, one span a line.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+"-spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profiler is the CPU profile of a traced run's timed window, kept in
// memory until the window closes.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile, saves it for `go tool pprof`, and returns the CPU
// milliseconds of each layer.
func (p *profiler) stop(dir, workload string) (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, workload+".pprof"), p.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return foldProfile(p.buf.Bytes())
}

// foldProfile sums a CPU profile's flat samples by layer, in milliseconds.
// A sample belongs to the innermost function of its leaf frame, inlined or
// not, as in `go tool pprof -top`.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	// The fields of profile.proto that folding needs.
	var (
		strs        []string
		sampleTypes []int64 // string index of each value's type
		samples     []struct{ locs, vals []uint64 }
		locFunc     = map[uint64]uint64{} // location → function of its first line
		funcName    = map[uint64]uint64{} // function → string index of its name
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typ = v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, int64(typ))
			return err
		case 2: // sample
			var s struct{ locs, vals []uint64 }
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					return appendPacked(&s.vals, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			seen := false
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !seen: // line; the first is the innermost
					seen = true
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	vi := -1
	for i, t := range sampleTypes {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := map[string]float64{}
	for _, s := range samples {
		if len(s.locs) == 0 || vi >= len(s.vals) {
			continue
		}
		name := ""
		if si := funcName[locFunc[s.locs[0]]]; si < uint64(len(strs)) {
			name = strs[si]
		}
		out[layerOf(name)] += float64(s.vals[vi]) / 1e6
	}
	return out, nil
}

// fields calls fn for every field of a protobuf message: with the value of
// a varint field, or the bytes of a length-delimited one.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, packed (data) or not (v).
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

var majorVersion = regexp.MustCompile(`^v[0-9]+$`)

// layerOf names the layer a function belongs to: the last element of its
// package path, with the runtime's internal packages folded into "runtime"
// and the system-call stubs into "syscall". Other standard-library packages
// keep a bucket of their own ("rand", "poll", "net", …).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "type:") {
		return "runtime" // compiler-generated equality and hash functions
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "runtime" // assembly routines such as gcWriteBarrier have no package
	}
	pkg := fn[:slash+1+dot]
	switch {
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || strings.HasPrefix(pkg, "internal/syscall/"):
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	parts := strings.Split(pkg, "/")
	last := parts[len(parts)-1]
	if majorVersion.MatchString(last) && len(parts) > 1 {
		last = parts[len(parts)-2]
	}
	return last
}
