package scenario

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"
)

// liveHeap returns the live heap after two collections, the way
// TestPoolRetainedBytes measures it.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// holds reports whether the pool holds a template for the spec's family.
func (p *Pool) holds(spec Spec) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[templateKey(spec.withDefaults())]
	return e != nil && e.tmpl != nil
}

// pusher returns the n-th of the families the eviction tests fill the
// pool with: traced linked lists that never enter the debugger, whose
// templates hold near-full 60 s histories of about 10 MB each, so seven
// of them overflow the budget.
func pusher(n int) Spec {
	return Spec{App: "linkedlist", Trace: true, Seconds: 60, Seed: int64(1000 + n), Script: "halt"}
}

// TestPoolCountMatchesRetainedHeap: the bytes the pool counts for a
// family's template lie within 0.75–1.25× of the live heap the pool
// retains for it.
func TestPoolCountMatchesRetainedHeap(t *testing.T) {
	families := []Spec{
		{App: "linkedlist", Assert: true, Trace: true, Seconds: 1, Seed: 14},
		{App: "linkedlist", Assert: true, Seconds: 1, Seed: 14},
		{App: "linkedlist", Trace: true, Seconds: 10},
		{App: "fib", Seconds: 60},
		{App: "activity", Print: "uart", Seconds: 60},
		{App: "linkedlist", Trace: true, Seconds: 60},
		{App: "linkedlist", Seconds: 300},
	}
	if testing.Short() || raceEnabled {
		families = families[:3]
	}
	for _, spec := range families {
		spec.Script = "halt"
		// A cold run first, so that nothing a program builds once per
		// process counts as the template's.
		if _, err := Run(spec, io.Discard, nil); err != nil {
			t.Fatal(err)
		}
		before := liveHeap()
		pool := NewPool()
		if _, err := pool.Run(spec, io.Discard, nil); err != nil {
			t.Fatal(err)
		}
		retained := int64(liveHeap()) - int64(before)
		count := pool.Metrics().TemplateBytes
		ratio := float64(count) / float64(retained)
		t.Logf("%s assert=%t trace=%t %gs: count %d B, retained %d B (%.2f×)",
			spec.App, spec.Assert, spec.Trace, spec.Seconds, count, retained, ratio)
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("%s assert=%t trace=%t %gs: count %d B is %.2f× the %d B retained",
				spec.App, spec.Assert, spec.Trace, spec.Seconds, count, ratio, retained)
		}
		runtime.KeepAlive(pool)
	}
}

// TestPoolBoundsRetainedHeap runs 256 distinct families through one pool:
// 223 Fig. 7 families with a 1 s deadline (about 0.5 MB each), 32 traced
// linked lists with 10 s (about 2 MB) and one with 300 s (about 50 MB,
// over a quarter of the budget). Their templates add up to about three
// times the budget, so the pool must evict, and the heap it retains stays
// within the budget plus a quarter. The 300 s family keeps no template:
// its second session runs cold, and records again, with the same output.
// The race build runs the first 16 families, which evict nothing.
func TestPoolBoundsRetainedHeap(t *testing.T) {
	families := 256
	if testing.Short() || raceEnabled {
		families = 16
	}
	big := Spec{App: "linkedlist", Trace: true, Seconds: 300, Seed: 7, Script: "halt"}
	before := liveHeap()
	pool := NewPool()
	var first []byte
	for i := 0; i < families; i++ {
		spec := Spec{App: "linkedlist", Assert: true, Trace: true, Seconds: 1, Seed: int64(i + 1), Script: "halt"}
		switch {
		case i == 100:
			spec = big
		case i%8 == 7:
			spec = Spec{App: "linkedlist", Trace: true, Seconds: 10, Seed: int64(i + 1), Script: "halt"}
		}
		var out bytes.Buffer
		if _, err := pool.Run(spec, &out, nil); err != nil {
			t.Fatal(err)
		}
		if i == 100 {
			first = out.Bytes()
		}
		if m := pool.Metrics(); m.TemplateBytes > poolBudget {
			t.Fatalf("family %d: the pool counts %d B, over its %d B budget", i, m.TemplateBytes, poolBudget)
		}
	}
	retained := int64(liveHeap()) - int64(before)
	m := pool.Metrics()
	t.Logf("%d families: retained %.1f MB, counted %.1f MB: %+v",
		families, float64(retained)/1e6, float64(m.TemplateBytes)/1e6, m)
	if retained > poolBudget+poolBudget/4 {
		t.Errorf("the pool retains %d B, over the %d B budget plus a quarter", retained, poolBudget)
	}
	if m.WarmForks != 0 || m.ColdBoots != uint64(families) {
		t.Errorf("want %d cold sessions: %+v", families, m)
	}
	if first == nil {
		return
	}
	if m.Evictions == 0 {
		t.Errorf("templates of three times the budget evicted nothing: %+v", m)
	}
	if pool.holds(big) {
		t.Fatal("the pool kept a template over a quarter of its budget")
	}
	var second bytes.Buffer
	if _, err := pool.Run(big, &second, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second.Bytes(), first) {
		t.Fatalf("the 300 s family's second session diverges from its first\n%s", firstDiff(second.Bytes(), first))
	}
	if got := pool.Metrics(); got.ColdBoots != m.ColdBoots+1 || got.TemplatesBuilt != m.TemplatesBuilt+1 || pool.holds(big) {
		t.Fatalf("the 300 s family's second session must run cold, record again and keep nothing: %+v", got)
	}
}

// TestPoolEvictsLeastRecentlyUsed fills the pool past its budget while one
// family is forked before each new one is recorded. That family survives;
// the least recently used one, recorded right after it and never forked,
// goes first, and its next session runs cold and records again. Filling
// the budget takes seven 60 s recordings, too slow for the race build; it
// runs TestPoolEvictionWhileForksRun, which fills it from one goroutine
// too.
func TestPoolEvictsLeastRecentlyUsed(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("seven 60 s recordings on one goroutine")
	}
	pool := NewPool()
	run := func(spec Spec) {
		t.Helper()
		if _, err := pool.Run(spec, io.Discard, nil); err != nil {
			t.Fatal(err)
		}
	}
	hot := Spec{App: "linkedlist", Assert: true, Trace: true, Seconds: 1, Seed: 14, Script: "halt"}
	cold := Spec{App: "linkedlist", Assert: true, Trace: true, Seconds: 1, Seed: 3, Script: "halt"}
	run(hot)
	run(cold)
	for n := 0; pool.holds(cold); n++ {
		if n == 20 {
			t.Fatalf("%d families never pushed the least recently used one out: %+v", n, pool.Metrics())
		}
		run(hot)
		run(pusher(n))
		if m := pool.Metrics(); m.TemplateBytes > poolBudget {
			t.Fatalf("the pool counts %d B, over its %d B budget", m.TemplateBytes, poolBudget)
		}
	}
	m := pool.Metrics()
	run(hot)
	if got := pool.Metrics(); got.WarmForks != m.WarmForks+1 {
		t.Fatalf("the family forked most recently was evicted: %+v", got)
	}
	run(cold)
	if got := pool.Metrics(); got.ColdBoots != m.ColdBoots+1 || got.TemplatesBuilt != m.TemplatesBuilt+1 || !pool.holds(cold) {
		t.Fatalf("the evicted family's next session must run cold and record again: %+v", got)
	}
}

// TestPoolEvictionWhileForksRun: forks of a family stop at their first
// prompt while other families push its template out of the pool; then
// they run on from the snapshot they forked, beside sessions of the same
// family that start after the eviction, run cold, record it again or
// fork the new template. Every output equals a cold run. Under -race this
// also covers the pool's lock between evictions, publishes and forks.
func TestPoolEvictionWhileForksRun(t *testing.T) {
	spec := Spec{App: "linkedlist", Assert: true, Trace: true, Seconds: 2, Seed: 14}
	resume := func() (string, bool) { return "resume", true }
	var golden bytes.Buffer
	if _, err := Run(spec, &golden, resume); err != nil {
		t.Fatal(err)
	}
	pool := NewPool()
	const forks = 4
	outs := make([]bytes.Buffer, 2*forks+1)
	errs := make([]error, len(outs))
	if _, errs[0] = pool.Run(spec, &outs[0], resume); errs[0] != nil {
		t.Fatal(errs[0])
	}

	var parked, done sync.WaitGroup
	release := make(chan struct{})
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark() // a failing test must not leave sessions parked
	for i := 1; i <= forks; i++ {
		parked.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			var once sync.Once
			park := func() { once.Do(parked.Done) }
			defer park() // a session that never prompts must not stall the test
			_, errs[i] = pool.Run(spec, &outs[i], func() (string, bool) {
				park()
				<-release
				return resume()
			})
		}(i)
	}
	parked.Wait()
	if m := pool.Metrics(); m.WarmForks != forks {
		t.Fatalf("want %d forks parked at their prompt: %+v", forks, m)
	}
	pushed := 0
	for ; pool.holds(spec); pushed++ {
		if pushed == 20 {
			t.Fatalf("%d families never pushed the template out: %+v", pushed, pool.Metrics())
		}
		if _, err := pool.Run(pusher(pushed), io.Discard, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := forks + 1; i < len(outs); i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			_, errs[i] = pool.Run(spec, &outs[i], resume)
		}(i)
	}
	unpark()
	done.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(outs[i].Bytes(), golden.Bytes()) {
			t.Fatalf("session %d diverges from a cold run\n%s", i, firstDiff(outs[i].Bytes(), golden.Bytes()))
		}
	}
	// One later session recorded the family again.
	if m := pool.Metrics(); m.TemplatesBuilt != uint64(pushed)+2 {
		t.Fatalf("want the family recorded twice and %d other families: %+v", pushed, m)
	}
}
