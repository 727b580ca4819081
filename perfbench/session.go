package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/wire"
)

// The session workload is a closed loop of interactive debugging sessions:
// one client, zero think time, one session at a time, over loopback through
// an in-process gateway to one backend with its default warm-start pool.
// Each session is the Fig. 7 linked-list assert scenario with tracing on,
// on a seed cycled from the workload seed; at the prompts the client sends
// vcap, status, a run of reads over the list region and a few writes to a
// word the app does not use, then halt. It is the only workload that goes
// through the client, wire, gateway relay, server command loop, console,
// scenario pool and trace codec. Commands are cheap, so cmd_ms isolates the
// network path; prompt_ms carries the warm fork and the simulation up to
// the first break.
//
// The Fig. 7 bug fires after a seed-dependent number of charge cycles:
// over 300 seeds, on one of a dozen steps 0.4 M cycles apart, from 0.9 M to
// 6 M. A session's cost follows the step, so two workload seeds would ask
// for different amounts of simulation. Sessions therefore draw seeds from
// the workload seed's stream and keep those whose assert fires on the step
// at 3.66 M cycles: the last one that leaves room for every command before
// a 1 s deadline (4 M cycles at 4 MHz), and the most common one. Kept seeds
// differ by under one per cent in simulated work, so runs on different
// workload seeds compare. Set-up always tries seedsTried seeds, so that its
// own time does not depend on how soon enough of them qualify.
//
// Predictions: the gateway relay moves only cmd_ms_*; the warm-start pool
// moves only prompt_ms_*; EDB sampling and the simulation layers move
// prompt_ms_p50 here as they move the rig workload.
const (
	sessionSeeds   = 4         // spec seeds the sessions cycle through
	sessionSeconds = 1         // simulated deadline of a session
	minBreakCycles = 3_500_000 // a kept seed's session halts at or after this cycle
	seedsTried     = 40        // seeds set-up tries even when enough qualify sooner
	maxSeedsTried  = 400
	listBase       = 0x4400 // start of the FRAM the list app lays out
	listReads      = 24
	unusedWord     = 0xF000 // FRAM word the list app never touches
	wordWrites     = 4
)

// sessionAnswers are the commands the client sends, one per prompt.
var sessionAnswers = func() []string {
	a := []string{"vcap", "status"}
	for i := 0; i < listReads; i++ {
		a = append(a, fmt.Sprintf("read %#04x", listBase+2*i))
	}
	for i := 0; i < wordWrites; i++ {
		a = append(a, fmt.Sprintf("write %#04x %#04x", unusedWord, 0x1000+i))
	}
	return append(a, "halt")
}()

// sessionCounts are one session's exact counts, from the backend's and the
// gateway's counters.
type sessionCounts struct {
	commands, simCycles         int64
	traceBytes, traceSamples    int64
	framesRelayed, bytesRelayed int64
}

type sessionBench struct {
	seed    int64
	specs   []scenario.Spec
	goldens []string        // local scenario.Run output, as specs
	counts  []sessionCounts // through the gateway, as specs

	srv     *server.Server
	gw      *cluster.Gateway
	srvAddr string
	gwAddr  string
	last    sessionCounts  // counters after the previous session
	window0 server.Metrics // backend counters as the timed window opened

	promptMs, cmdMs, rate []float64
}

func newSession(seed int64) workload { return &sessionBench{seed: seed} }

// answer returns a prompt callback that gives the session's answers in
// order, calling at(k) as prompt k arrives.
func answer(at func(k int)) scenario.PromptFunc {
	k := 0
	return func() (string, bool) {
		if at != nil {
			at(k)
		}
		if k >= len(sessionAnswers) {
			return "", false
		}
		k++
		return sessionAnswers[k-1], true
	}
}

// setup picks the session seeds and computes their local goldens, starts
// the backend and the gateway, and runs sessions until every seed's
// session is a warm fork.
func (s *sessionBench) setup() error {
	s.close()
	var specs []scenario.Spec
	var goldens []string
	for j := 0; j < seedsTried || len(specs) < sessionSeeds; j++ {
		if j == maxSeedsTried {
			return fmt.Errorf("only %d of %d seeds halt after cycle %d", len(specs), j, minBreakCycles)
		}
		spec := scenario.Spec{
			App: "linkedlist", Assert: true, Trace: true, Interactive: true,
			Seconds: sessionSeconds, Seed: inputSeed(s.seed, fmt.Sprintf("session/%d", j)),
		}
		var buf bytes.Buffer
		res, err := scenario.Run(spec, &buf, answer(nil))
		if err != nil {
			return fmt.Errorf("golden seed %d: %w", spec.Seed, err)
		}
		if len(specs) < sessionSeeds && res.Commands == len(sessionAnswers) && res.SimCycles >= minBreakCycles {
			specs = append(specs, spec)
			goldens = append(goldens, buf.String())
		}
	}
	if s.goldens != nil && !reflect.DeepEqual(goldens, s.goldens) {
		return fmt.Errorf("session seeds or goldens differ between set-ups")
	}
	s.specs, s.goldens = specs, goldens

	if err := s.start(); err != nil {
		return err
	}
	counts := make([]sessionCounts, len(s.specs))
	for round := 0; ; round++ {
		if round == 50 {
			return fmt.Errorf("the backend pool never served every seed warm")
		}
		before := s.srv.Metrics()
		for k := range s.specs {
			c, _, err := s.session(k, false, nil)
			if err != nil {
				return fmt.Errorf("warm-up session: %w", err)
			}
			counts[k] = c
		}
		if s.srv.Metrics().WarmForks-before.WarmForks == int64(len(s.specs)) {
			break
		}
		// Let the pool build the templates its cold sessions asked for.
		time.Sleep(20 * time.Millisecond)
	}
	s.counts = counts
	s.window0 = s.srv.Metrics()
	s.promptMs, s.cmdMs, s.rate = nil, nil, nil
	return nil
}

func (s *sessionBench) start() error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = server.New(server.Config{})
	go s.srv.Serve(lis)
	s.srvAddr = lis.Addr().String()

	glis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.gw = cluster.New(cluster.Config{Backends: []string{s.srvAddr}})
	go s.gw.Serve(glis)
	s.gwAddr = glis.Addr().String()
	s.last = sessionCounts{}
	return nil
}

// op runs one session through the gateway. A traced run follows it with
// the same session sent straight to the backend, so that the gateway's
// share of the command latency becomes a number.
func (s *sessionBench) op(i int, tr *tracer) (cost, error) {
	k := i % len(s.specs)
	counts, c, err := s.session(k, false, tr)
	if err != nil {
		return c, err
	}
	if counts != s.counts[k] {
		return c, fmt.Errorf("seed %d: counts %+v differ from the warm-up session's %+v", s.specs[k].Seed, counts, s.counts[k])
	}
	if tr != nil {
		counts, _, err := s.session(k, true, tr)
		if err != nil {
			return c, fmt.Errorf("direct: %w", err)
		}
		want := s.counts[k]
		want.framesRelayed, want.bytesRelayed = 0, 0
		if counts != want {
			return c, fmt.Errorf("direct seed %d: counts %+v differ from %+v", s.specs[k].Seed, counts, want)
		}
	}
	return c, nil
}

// session runs spec k through the gateway, or straight to the backend, and
// checks its output. It returns the session's counts and its cost from the
// start of client.Dial to the end of the run. Gateway sessions also record
// their prompt and command latencies.
func (s *sessionBench) session(k int, direct bool, tr *tracer) (sessionCounts, cost, error) {
	addr, side := s.gwAddr, "client."
	cmdSpan := "cluster.cmd"
	if direct {
		addr, side, cmdSpan = s.srvAddr, "direct.", "server.cmd"
	}
	start, cpu0 := time.Now(), cpuTime()
	tr.begin(side + "dial")
	cl, err := client.Dial(addr, client.Options{})
	tr.end()
	if err != nil {
		return sessionCounts{}, cost{}, err
	}
	var firstChunk, lastChunk, answered time.Time
	cl.OnTrace = func(*wire.Trace) {
		lastChunk = time.Now()
		if firstChunk.IsZero() {
			firstChunk = lastChunk
		}
	}
	var prompt time.Duration
	var cmds []float64
	var buf bytes.Buffer
	tr.begin(side + "run")
	st, err := cl.Run(s.specs[k], &buf, answer(func(n int) {
		now := time.Now()
		if n == 0 {
			prompt = now.Sub(start)
		} else {
			cmds = append(cmds, ms(now.Sub(answered)))
			tr.interval(cmdSpan, answered, now)
		}
		answered = time.Now()
	}))
	tr.end()
	cl.Close()
	took := cost{time.Since(start), cpuTime() - cpu0}
	// Take the counters even for a failed session, so that its counts are
	// not charged to the next one.
	counts, derr := s.delta()
	if err != nil {
		return counts, took, err
	}
	if derr != nil {
		return counts, took, derr
	}
	if !firstChunk.IsZero() {
		tr.interval(side+"trace", firstChunk, lastChunk)
	}
	if buf.String() != s.goldens[k] {
		return counts, took, fmt.Errorf("seed %d: output differs from the local golden", s.specs[k].Seed)
	}
	if st.Exit != 0 || st.Commands != len(sessionAnswers) {
		return counts, took, fmt.Errorf("seed %d: status %+v", s.specs[k].Seed, st)
	}
	if !direct {
		s.promptMs = append(s.promptMs, ms(prompt))
		s.cmdMs = append(s.cmdMs, cmds...)
		s.rate = append(s.rate, 1/took.wall.Seconds())
	}
	return counts, took, nil
}

// delta waits until the backend and the gateway have finished the session
// that just ended, then returns how far their counters moved during it.
func (s *sessionBench) delta() (sessionCounts, error) {
	deadline := time.Now().Add(5 * time.Second)
	var sm server.Metrics
	var gm cluster.Metrics
	for {
		sm, gm = s.srv.Metrics(), s.gw.Metrics()
		if sm.SessionsOpen == 0 && gm.SessionsActive == 0 {
			break
		}
		if time.Now().After(deadline) {
			return sessionCounts{}, fmt.Errorf("session still open on the backend or gateway after 5s")
		}
		time.Sleep(50 * time.Microsecond)
	}
	now := sessionCounts{
		commands: sm.CommandsServed, simCycles: sm.SimCycles,
		traceBytes: sm.TraceBytes, traceSamples: sm.TraceSamples,
		framesRelayed: gm.FramesRelayed, bytesRelayed: gm.BytesRelayed,
	}
	d := sessionCounts{
		commands: now.commands - s.last.commands, simCycles: now.simCycles - s.last.simCycles,
		traceBytes: now.traceBytes - s.last.traceBytes, traceSamples: now.traceSamples - s.last.traceSamples,
		framesRelayed: now.framesRelayed - s.last.framesRelayed, bytesRelayed: now.bytesRelayed - s.last.bytesRelayed,
	}
	s.last = now
	return d, nil
}

func (s *sessionBench) report(tr *tracer) []metric {
	var c sessionCounts
	for _, sc := range s.counts {
		c.commands += sc.commands
		c.simCycles += sc.simCycles
		c.traceBytes += sc.traceBytes
		c.traceSamples += sc.traceSamples
		c.framesRelayed += sc.framesRelayed
		c.bytesRelayed += sc.bytesRelayed
	}
	n := float64(len(s.counts))
	m := s.srv.Metrics()
	sessions := float64(m.SessionsTotal - s.window0.SessionsTotal)
	warm := float64(m.WarmForks - s.window0.WarmForks)
	out := []metric{
		{name: "prompt_ms_p50", unit: "ms", value: median(s.promptMs), n: len(s.promptMs), kind: endToEnd},
		{name: "prompt_ms_p95", unit: "ms", value: quantile(s.promptMs, 0.95), n: len(s.promptMs), kind: endToEnd},
		{name: "cmd_ms_p50", unit: "ms", value: median(s.cmdMs), n: len(s.cmdMs), kind: endToEnd},
		{name: "cmd_ms_p99", unit: "ms", value: quantile(s.cmdMs, 0.99), n: len(s.cmdMs), kind: endToEnd},
		{name: "sessions_per_s", unit: "1/s", value: median(s.rate), n: len(s.rate), kind: endToEnd},
		{name: "server.commands", unit: "count", value: float64(c.commands) / n, n: len(s.counts), kind: exactCount},
		{name: "server.sim_cycles", unit: "count", value: float64(c.simCycles) / n, n: len(s.counts), kind: exactCount},
		{name: "cluster.frames_relayed", unit: "count", value: float64(c.framesRelayed) / n, n: len(s.counts), kind: exactCount},
		{name: "cluster.bytes_relayed", unit: "B", value: float64(c.bytesRelayed) / n, n: len(s.counts), kind: exactCount},
		{name: "server.trace_bytes_per_sample", unit: "B", value: ratio(float64(c.traceBytes), float64(c.traceSamples)), n: int(c.traceSamples), kind: exactCount},
		{name: "scenario.warm_fork_pct", unit: "%", value: 100 * ratio(warm, sessions), n: int(sessions), kind: timingCount},
		{name: "scenario.spare_pop_pct", unit: "%", value: 100 * ratio(float64(m.SparePops-s.window0.SparePops), warm), n: int(warm), kind: timingCount},
		{name: "scenario.cold_boots", unit: "count", value: float64(m.ColdBoots - s.window0.ColdBoots), n: int(sessions), kind: timingCount},
	}
	if tr == nil {
		return out
	}
	dial, gwCmd, srvCmd, trace := tr.durations("client.dial"), tr.durations("cluster.cmd"), tr.durations("server.cmd"), tr.durations("client.trace")
	return append(out,
		metric{name: "client.dial_ms_p50", unit: "ms", value: median(dial), n: len(dial), kind: layer},
		metric{name: "server.cmd_ms_p50", unit: "ms", value: median(srvCmd), n: len(srvCmd), kind: layer},
		metric{name: "cluster.relay_ms_p50", unit: "ms", value: median(gwCmd) - median(srvCmd), n: len(gwCmd), kind: layer},
		metric{name: "client.trace_ms_p50", unit: "ms", value: median(trace), n: len(trace), kind: layer},
	)
}

// close shuts the gateway and then the backend down, waiting for both.
func (s *sessionBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.gw != nil {
		s.gw.Shutdown(ctx)
		s.gw = nil
	}
	if s.srv != nil {
		s.srv.Shutdown(ctx)
		s.srv = nil
	}
}
