package cluster_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/wire"
)

// exploreOpts is the shared search horizon for the cluster tests: small
// enough to finish in test time, deep enough that the frontier spans
// several waves and both dedup partitions.
const exploreOpts = "depth=2 writes=6 states=48"

// TestGatewayExploreMatrixMatchesLocal is the tentpole invariant on the
// real network path: `explore … workers=W backends=N` through the gateway
// produces a byte-identical session to a single-process local run with no
// backends option at all, for every cell of workers {1,4} × backends {1,2}.
// backends=1 cells are forwarded to the session's own backend; backends=2
// cells are intercepted and fanned across the fleet.
func TestGatewayExploreMatrixMatchesLocal(t *testing.T) {
	_, addrA := startBackend(t, server.Config{})
	_, addrB := startBackend(t, server.Config{})
	gw, gwAddr := startGateway(t, cluster.Config{Backends: []string{addrA, addrB}})

	golden := localGolden(t, interactiveSpec(), []string{"explore " + exploreOpts, "halt"})

	for _, workers := range []int{1, 4} {
		for _, backends := range []int{1, 2} {
			cmd := fmt.Sprintf("explore %s workers=%d backends=%d", exploreOpts, workers, backends)
			cl, err := client.Dial(gwAddr, client.Options{})
			if err != nil {
				t.Fatalf("dial gateway: %v", err)
			}
			cmds := []string{cmd, "halt"}
			i := 0
			var out bytes.Buffer
			st, err := cl.Run(interactiveSpec(), &out, func() (string, bool) {
				if i < len(cmds) {
					i++
					return cmds[i-1], true
				}
				return "", false
			})
			cl.Close()
			if err != nil {
				t.Fatalf("workers=%d backends=%d: run via gateway: %v", workers, backends, err)
			}
			if st.Exit != 0 {
				t.Fatalf("workers=%d backends=%d: unexpected status %+v", workers, backends, st)
			}
			if out.String() != golden {
				t.Fatalf("workers=%d backends=%d: session output differs from single-process run:\n--- local ---\n%s\n--- gateway ---\n%s",
					workers, backends, golden, out.String())
			}
		}
	}
	m := gw.Metrics()
	if m.ExploreIntercepts != 2 || m.ExploreRuns != 2 {
		t.Fatalf("expected 2 intercepted fan-outs, got intercepts=%d runs=%d", m.ExploreIntercepts, m.ExploreRuns)
	}
	if m.ExploreBytesOut == 0 || m.ExploreBytesIn == 0 {
		t.Fatalf("explore transfer not accounted: out=%d in=%d", m.ExploreBytesOut, m.ExploreBytesIn)
	}
}

// TestGatewayExploreBackendLossMidRun kills one of two executors partway
// through the search — the limitProxy slams the backend→gateway stream
// halfway through the executor's first shard reply — and the merged report
// must still be reflect.DeepEqual-identical to a single-process run: the
// survivor re-runs the dead executor's batches and its dedup partition is
// re-seeded from the coordinator's journal.
func TestGatewayExploreBackendLossMidRun(t *testing.T) {
	_, addrA := startBackend(t, server.Config{})
	_, addrB := startBackend(t, server.Config{})
	proxy := newLimitProxy(t, addrB)
	gw, _ := startGateway(t, cluster.Config{
		Backends:       []string{addrA, proxy.addr()},
		HealthInterval: time.Hour, // parked: the executor conn is the only proxied stream
	})

	spec := interactiveSpec()
	es, err := scenario.ParseExploreArgs(
		[]string{"depth=3", "writes=6", "states=256", "workers=2", "backends=2"}, spec.Guards)
	if err != nil {
		t.Fatal(err)
	}
	single := es
	single.Backends = 0
	golden, err := scenario.RunExplore(spec, single)
	if err != nil {
		t.Fatalf("single-process run: %v", err)
	}

	// Cut the proxied executor halfway through frame 2, its first expand or
	// dedup reply after the Welcome (0) and the executor hello (1). It owns
	// dedup partition 1, which every run queries, so that frame exists
	// however the expand batches happen to be scheduled.
	proxy.armFrameCut(2)

	rep, stats, err := gw.RunExplore(spec, es)
	if err != nil {
		t.Fatalf("distributed run with mid-run backend loss: %v", err)
	}
	if !reflect.DeepEqual(rep, golden) {
		t.Fatalf("report after mid-run backend loss differs from single-process run:\n--- single ---\n%s\n--- distributed ---\n%s",
			golden.Format(), rep.Format())
	}
	if !proxy.cutFired(0) {
		t.Fatalf("proxied executor was not cut mid-run: relayed %d bytes uncut", proxy.total(0))
	}
	if stats.Waves == 0 || stats.ShardBatches == 0 {
		t.Fatalf("missing distribution stats: %+v", stats)
	}
	if gw.Metrics().ExploreRuns != 1 {
		t.Fatalf("ExploreRuns = %d, want 1", gw.Metrics().ExploreRuns)
	}
}

// TestExploreCapabilityGates: a backend grants FlagExplore by default and
// refuses it under DisableExplore; the gateway never grants it to clients —
// the console line, not the raw frame, is the client surface.
func TestExploreCapabilityGates(t *testing.T) {
	_, addrA := startBackend(t, server.Config{})
	_, flags := rawDial(t, addrA, wire.FlagExplore)
	if flags&wire.FlagExplore == 0 {
		t.Fatal("backend did not grant FlagExplore")
	}

	_, addrOff := startBackend(t, server.Config{DisableExplore: true})
	_, flags = rawDial(t, addrOff, wire.FlagExplore)
	if flags&wire.FlagExplore != 0 {
		t.Fatal("DisableExplore backend granted FlagExplore")
	}

	_, gwAddr := startGateway(t, cluster.Config{Backends: []string{addrA}})
	_, flags = rawDial(t, gwAddr, wire.FlagExplore)
	if flags&wire.FlagExplore != 0 {
		t.Fatal("gateway granted FlagExplore on the client tier")
	}
}
