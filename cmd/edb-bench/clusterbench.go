package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/server"
)

// runClusterBench measures the gateway tier end to end: sessions/sec
// through one gateway at 1, 2 and 4 backends, then migration latency under
// a live drain. Every session's output is compared byte-for-byte against a
// locally simulated golden run, so the throughput numbers only count
// sessions the cluster got *right*.
//
// The machine may have a single core, so the scaling story is capacity,
// not CPU: each backend caps its concurrent sessions, each session is
// dominated by client think time (an interactive debugging session is idle
// at a prompt most of its life), and offered load equals fleet capacity.
// Adding a backend then adds session slots, and throughput scales with the
// fleet while the CPU stays mostly idle — the same regime as a real fleet
// of EDB rigs, where the board, not the gateway host, is the bottleneck.
func runClusterBench(o *jobOut, opt options) error {
	const (
		capPerBackend = 4                      // session slots a backend contributes
		thinkTime     = 300 * time.Millisecond // client dwell per prompt
	)
	legs := []int{1, 2, 4}
	perClient := 10 // sessions each client runs back to back
	if opt.quick {
		legs = []int{1, 2}
		perClient = 6
	}

	cmds := []string{"vcap", "status", "halt"}
	baseSpec := scenario.Spec{App: "linkedlist", Assert: true, Seconds: 2, Interactive: true}

	// Golden outputs, one per client seed, simulated locally with the same
	// command script. Deterministic replay is the whole premise: the bytes
	// a session produces depend only on (spec, answers), never on which
	// backend ran it or how often it moved.
	maxClients := legs[len(legs)-1] * capPerBackend
	goldens := make(map[int64]string, maxClients)
	for seed := int64(1); seed <= int64(maxClients); seed++ {
		spec := baseSpec
		spec.Seed = seed
		var buf bytes.Buffer
		i := 0
		if _, err := scenario.Run(spec, &buf, func() (string, bool) {
			if i < len(cmds) {
				i++
				return cmds[i-1], true
			}
			return "", false
		}); err != nil {
			return fmt.Errorf("golden seed %d: %w", seed, err)
		}
		goldens[seed] = buf.String()
	}

	var b strings.Builder
	fmt.Fprintf(&b, "cluster gateway bench: %d session slots/backend, %v think time, %d sessions/client\n\n",
		capPerBackend, thinkTime, perClient)

	rates := map[int]float64{}
	var misses int64
	for _, n := range legs {
		rate, m, err := clusterThroughputLeg(n, capPerBackend, thinkTime, perClient, baseSpec, cmds, goldens)
		if err != nil {
			return fmt.Errorf("%d-backend leg: %w", n, err)
		}
		rates[n] = rate
		misses += m.PlacementMisses
		o.metric(fmt.Sprintf("cluster_sessions_per_sec_%dbackend", n), rate)
		fmt.Fprintf(&b, "  %d backend(s): %7.2f sessions/sec  (%d sessions, %d dispatches)\n",
			n, rate, m.SessionsTotal, m.Dispatches)
	}
	scaling2 := rates[2] / rates[1]
	o.metric("cluster_scaling_x2", scaling2)
	fmt.Fprintf(&b, "\n  scaling 1→2 backends: %.2fx\n", scaling2)
	if r4, ok := rates[4]; ok {
		scaling4 := r4 / rates[1]
		o.metric("cluster_scaling_x4", scaling4)
		fmt.Fprintf(&b, "  scaling 1→4 backends: %.2fx\n", scaling4)
	}

	mig, err := clusterDrainLeg(baseSpec, cmds, goldens)
	if err != nil {
		return fmt.Errorf("drain leg: %w", err)
	}
	o.metric("cluster_drain_sessions", float64(mig.sessions))
	o.metric("cluster_drain_lost", float64(mig.lost))
	o.metric("cluster_migrations", float64(mig.migrations))
	o.metric("cluster_migration_p50_ms", 1e3*mig.p50.Seconds())
	o.metric("cluster_migration_p99_ms", 1e3*mig.p99.Seconds())
	o.metric("cluster_placement_misses", float64(misses+mig.misses))
	o.metric("cluster_think_ms", 1e3*thinkTime.Seconds())
	o.metric("cluster_slots_per_backend", capPerBackend)

	fmt.Fprintf(&b, "\ndrain under load: %d sessions live, backend drained mid-prompt\n", mig.sessions)
	fmt.Fprintf(&b, "  migrated %d sessions, lost %d (outputs verified against local golden)\n",
		mig.migrations, mig.lost)
	fmt.Fprintf(&b, "  migration latency p50 %.1f ms, p99 %.1f ms\n",
		1e3*mig.p50.Seconds(), 1e3*mig.p99.Seconds())
	o.text = b.String()
	return nil
}

// benchFleet is a gateway plus n in-process backends on loopback sockets.
type benchFleet struct {
	gw       *cluster.Gateway
	gwAddr   string
	servers  map[string]*server.Server
	shutdown []func()
}

func startBenchFleet(n, maxSessions int) (*benchFleet, error) {
	f := &benchFleet{servers: make(map[string]*server.Server)}
	var backends []string
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		srv := server.New(server.Config{MaxSessions: maxSessions, MaxConns: 512})
		go srv.Serve(lis)
		addr := lis.Addr().String()
		backends = append(backends, addr)
		f.servers[addr] = srv
		f.shutdown = append(f.shutdown, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = cluster.New(cluster.Config{Backends: backends})
	go f.gw.Serve(lis)
	f.gwAddr = lis.Addr().String()
	f.shutdown = append(f.shutdown, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		f.gw.Shutdown(ctx)
	})
	return f, nil
}

func (f *benchFleet) close() {
	for i := len(f.shutdown) - 1; i >= 0; i-- {
		f.shutdown[i]()
	}
	f.shutdown = nil
}

// clusterThroughputLeg drives a fleet of n backends at exactly fleet
// capacity: n*slots concurrent clients, each running perClient sessions
// back to back. Rate is total verified sessions over the wall time of the
// slowest client — a fixed work quantum per client, so legs of different
// fleet sizes are directly comparable without deadline quantization.
func clusterThroughputLeg(n, slots int, think time.Duration, perClient int, baseSpec scenario.Spec, cmds []string, goldens map[int64]string) (float64, cluster.Metrics, error) {
	// Two slots of headroom per backend absorb the instant where one
	// client's session is tearing down while its next one starts, so the
	// leg measures steady-state capacity rather than CodeBusy retries.
	fleet, err := startBenchFleet(n, slots+2)
	if err != nil {
		return 0, cluster.Metrics{}, err
	}
	defer fleet.close()

	clients := n * slots
	var completed atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cl, err := client.Dial(fleet.gwAddr, client.Options{})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			spec := baseSpec
			spec.Seed = seed
			for s := 0; s < perClient; s++ {
				var buf bytes.Buffer
				i := 0
				if _, err := cl.Run(spec, &buf, func() (string, bool) {
					if i < len(cmds) {
						i++
						time.Sleep(think)
						return cmds[i-1], true
					}
					return "", false
				}); err != nil {
					errs <- fmt.Errorf("seed %d: %w", seed, err)
					return
				}
				if buf.String() != goldens[seed] {
					errs <- fmt.Errorf("seed %d: output diverged from local golden", seed)
					return
				}
				completed.Add(1)
			}
		}(int64(ci + 1))
	}
	wg.Wait()
	wall := time.Since(start)
	close(errs)
	for err := range errs {
		return 0, cluster.Metrics{}, err
	}
	return float64(completed.Load()) / wall.Seconds(), fleet.gw.Metrics(), nil
}

type drainResult struct {
	sessions   int
	lost       int
	migrations int64
	misses     int64
	p50, p99   time.Duration
}

// clusterDrainLeg parks live sessions at a prompt, drains the busiest
// backend (which hands them off via SessMigrate), and reports the
// gateway's migration latency distribution. A session counts as lost if it
// errors or its output differs from the local golden.
func clusterDrainLeg(baseSpec scenario.Spec, cmds []string, goldens map[int64]string) (drainResult, error) {
	const sessions = 8
	fleet, err := startBenchFleet(2, 32)
	if err != nil {
		return drainResult{}, err
	}
	defer fleet.close()

	release := make(chan struct{})
	var ready sync.WaitGroup
	ready.Add(sessions)
	type out struct {
		seed int64
		buf  bytes.Buffer
		err  error
	}
	outs := make([]*out, sessions)
	var wg sync.WaitGroup
	for si := 0; si < sessions; si++ {
		outs[si] = &out{seed: int64(si + 1)}
		wg.Add(1)
		go func(so *out) {
			defer wg.Done()
			cl, err := client.Dial(fleet.gwAddr, client.Options{})
			if err != nil {
				ready.Done()
				so.err = err
				return
			}
			defer cl.Close()
			spec := baseSpec
			spec.Seed = so.seed
			i := 0
			_, so.err = cl.Run(spec, &so.buf, func() (string, bool) {
				if i == 0 {
					ready.Done()
					<-release
				}
				if i < len(cmds) {
					i++
					return cmds[i-1], true
				}
				return "", false
			})
		}(outs[si])
	}
	ready.Wait()

	// Every session now sits at its first prompt. Drain the backend
	// holding the most of them: its sessions must come back as SessMigrate
	// hand-offs and resume elsewhere without the clients noticing.
	var victim string
	var inflight int64 = -1
	for _, bm := range fleet.gw.Metrics().Backends {
		if bm.Inflight > inflight {
			victim, inflight = bm.Addr, bm.Inflight
		}
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		drained <- fleet.servers[victim].Shutdown(ctx)
	}()
	// Give the drain a moment to cut in while the prompts are outstanding,
	// then let the clients answer.
	time.Sleep(300 * time.Millisecond)
	close(release)
	wg.Wait()
	if err := <-drained; err != nil {
		return drainResult{}, fmt.Errorf("drain %s: %w", victim, err)
	}

	res := drainResult{sessions: sessions}
	for _, so := range outs {
		if so.err != nil || so.buf.String() != goldens[so.seed] {
			res.lost++
		}
	}
	m := fleet.gw.Metrics()
	res.migrations = m.Migrations
	res.misses = m.PlacementMisses
	res.p50, res.p99 = m.MigrationP50, m.MigrationP99
	if res.migrations == 0 {
		return res, fmt.Errorf("drain of %s (inflight %d) produced no migrations", victim, inflight)
	}
	if res.lost > 0 {
		return res, fmt.Errorf("%d/%d sessions lost across the drain", res.lost, sessions)
	}
	return res, nil
}
