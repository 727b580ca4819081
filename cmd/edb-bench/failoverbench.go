package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/server"
)

// runGatewayFailoverBench measures the gateway hand-off path: two gateways
// A and B stand in front of the same backends and share no state. A fleet
// of live interactive sessions is parked mid-session on A, A is killed
// without warning, and every client must resume on B from its own journal.
// Reported numbers are the client-observed hand-off latency distribution
// and the sessions-lost count — which must be zero, enforced as a bench
// failure. Every surviving session's output is verified byte-for-byte
// against a local golden run, so "survived" means "indistinguishable from
// an unmigrated session", not merely "did not error".
func runGatewayFailoverBench(o *jobOut, quick bool) error {
	sessions := 16
	if quick {
		sessions = 8
	}
	cmds := []string{"vcap", "status", "halt"}
	baseSpec := scenario.Spec{App: "linkedlist", Assert: true, Seconds: 2, Interactive: true}

	// Local goldens, one per seed: the deterministic-replay oracle.
	goldens := make(map[int64]string, sessions)
	for seed := int64(1); seed <= int64(sessions); seed++ {
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

	// Two backends shared by both gateways.
	var backends []string
	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	for i := 0; i < 2; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := server.New(server.Config{MaxSessions: sessions + 4, MaxConns: 512})
		go srv.Serve(lis)
		backends = append(backends, lis.Addr().String())
		cleanup = append(cleanup, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
	}
	startGW := func(cfg cluster.Config) (*cluster.Gateway, string, error) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", err
		}
		gw := cluster.New(cfg)
		go gw.Serve(lis)
		cleanup = append(cleanup, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			gw.Shutdown(ctx)
		})
		return gw, lis.Addr().String(), nil
	}
	gwA, addrA, err := startGW(cluster.Config{Backends: backends, MaxConns: 512})
	if err != nil {
		return err
	}
	_, addrB, err := startGW(cluster.Config{Backends: backends, MaxConns: 512})
	if err != nil {
		return err
	}

	// Park every session at its first prompt on gateway A. Each session
	// gets its own release gate: after the kill, clients are drained one
	// at a time, so every hand-off latency is a clean per-session
	// measurement instead of single-core queueing behind the other
	// fifteen resumes (the kill itself still lands on all of them at
	// once).
	type out struct {
		seed    int64
		buf     bytes.Buffer
		err     error
		resumes int
		took    time.Duration
		release chan struct{}
		done    chan struct{}
	}
	var ready sync.WaitGroup
	ready.Add(sessions)
	outs := make([]*out, sessions)
	for si := 0; si < sessions; si++ {
		outs[si] = &out{seed: int64(si + 1), release: make(chan struct{}), done: make(chan struct{})}
		go func(so *out) {
			defer close(so.done)
			cl, err := client.Dial(addrA+","+addrB, client.Options{
				Reconnect: true,
				Attempts:  10,
				Backoff:   50 * time.Millisecond,
				OnResume:  func(addr string, took time.Duration) { so.resumes++; so.took += took },
			})
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
					<-so.release
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

	// Kill A: an already-cancelled context makes Shutdown slam every
	// connection and the listener at once — no draining, no hand-off
	// frames. Then let the parked clients answer into the wreckage.
	killCtx, cancel := context.WithCancel(context.Background())
	cancel()
	gwA.Shutdown(killCtx)
	for _, so := range outs {
		close(so.release)
		<-so.done
	}

	lost, handoffs := 0, 0
	var tooks []time.Duration
	for _, so := range outs {
		if so.err != nil || so.buf.String() != goldens[so.seed] {
			lost++
			continue
		}
		if so.resumes > 0 {
			handoffs++
			tooks = append(tooks, so.took)
		}
	}
	sort.Slice(tooks, func(i, j int) bool { return tooks[i] < tooks[j] })
	quantile := func(q float64) time.Duration {
		if len(tooks) == 0 {
			return 0
		}
		idx := int(q * float64(len(tooks)-1))
		return tooks[idx]
	}
	p50, p99 := quantile(0.50), quantile(0.99)

	o.metric("gateway_failover_sessions", float64(sessions))
	o.metric("gateway_failover_lost", float64(lost))
	o.metric("gateway_failover_handoffs", float64(handoffs))
	o.metric("gateway_failover_p50_ms", 1e3*p50.Seconds())
	o.metric("gateway_failover_p99_ms", 1e3*p99.Seconds())

	var b strings.Builder
	fmt.Fprintf(&b, "gateway failover: %d live sessions, serving gateway killed mid-session\n\n", sessions)
	fmt.Fprintf(&b, "  handed off %d sessions to the other gateway, lost %d (outputs verified against local golden)\n",
		handoffs, lost)
	fmt.Fprintf(&b, "  client-observed hand-off latency p50 %.1f ms, p99 %.1f ms\n",
		1e3*p50.Seconds(), 1e3*p99.Seconds())
	o.text = b.String()

	js, err := json.MarshalIndent(o.metrics, "", "  ")
	if err != nil {
		return err
	}
	o.file("BENCH_gateway_failover.json", string(js)+"\n")

	if handoffs == 0 {
		return fmt.Errorf("gateway kill produced no hand-offs")
	}
	if lost > 0 {
		return fmt.Errorf("%d/%d sessions lost across the gateway kill", lost, sessions)
	}
	return nil
}
