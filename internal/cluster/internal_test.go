package cluster

import (
	"testing"

	"repro/internal/scenario"
	"repro/internal/wire"
)

// These are white-box unit tests for gateway placement-blacklist expiry —
// a state machine small enough to pin directly, without sockets.

// TestBlacklistExpiresOnRejoin is the regression test for the stuck
// blacklist: markFailed used to brand a backend for the session's
// lifetime, so a session whose only backend crashed could never be placed
// again even after that backend restarted and re-joined. The mark now
// records the backend's epoch and a re-join advances it.
func TestBlacklistExpiresOnRejoin(t *testing.T) {
	const addrA, addrB = "198.51.100.1:3491", "198.51.100.2:3491"
	g := New(Config{Backends: []string{addrA, addrB}})

	run := &wire.Run{Spec: scenario.Spec{App: "linkedlist", Assert: true, Seconds: 5, Seed: 42,
		Script: "vcap;status;halt"}}
	sess := &sessState{rec: run.Seed()}
	g.markFailed(sess, addrA)
	a := g.backend(addrA)
	if !sess.failedNow(a) {
		t.Fatal("fresh failure mark must blacklist the backend")
	}

	// An idempotent Join from a backend that never went down is routine
	// heartbeat traffic — it must NOT launder a live failure mark.
	g.AddBackend(addrA)
	if !sess.failedNow(a) {
		t.Fatal("a Join with no preceding crash cleared the blacklist")
	}

	// Crash observed (health probe or failed dispatch marks it down), then
	// the restarted backend re-joins: new life, new epoch, mark expired.
	a.down.Store(true)
	g.AddBackend(addrA)
	if a.down.Load() {
		t.Fatal("re-join left the backend marked down")
	}
	if sess.failedNow(a) {
		t.Fatal("blacklist survived the backend's re-join")
	}

	// place() must agree: with B down, the re-joined A is the only home.
	g.backend(addrB).down.Store(true)
	b, err := g.place(sess)
	if err != nil {
		t.Fatalf("place after re-join: %v", err)
	}
	if b.addr != addrA {
		t.Fatalf("place chose %s, want the re-joined %s", b.addr, addrA)
	}

	// A failure in the new life blacklists again — expiry is per-epoch,
	// not a one-shot amnesty.
	g.markFailed(sess, addrA)
	if !sess.failedNow(a) {
		t.Fatal("failure mark in the backend's new life did not stick")
	}
}
