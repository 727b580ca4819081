package memsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// A lazy region holds only its written prefix; twin is the same region
// either left lazy or materialised up front, with a log of every hook call.
type twin struct {
	m   *Memory
	r   *Region
	log []string
}

// The model region sits between unmapped addresses and ends mid-page, so
// faults and the short last page are both in reach.
const (
	modelBase Addr = 0x1000
	modelSize      = 5*PageSize + 13
)

func newTwin(eager bool) *twin {
	tw := &twin{r: NewRegion("R", modelBase, modelSize, true)}
	if eager {
		tw.r.materialize()
	}
	tw.m, _ = NewMemory(tw.r)
	tw.r.WriteHook = func(a Addr, n int) { tw.log = append(tw.log, fmt.Sprintf("w %#x %d", a, n)) }
	tw.r.ReadHook = func(a Addr, n int) { tw.log = append(tw.log, fmt.Sprintf("r %#x %d", a, n)) }
	return tw
}

// TestLazyRegionMatchesEager runs random sequences of accesses and bulk
// operations on a lazy region and on an eagerly materialised twin: every
// value, fault, hook call, counter and dirty page must agree, and until
// something materialises it the lazy region must hold no more than the
// page-rounded prefix of what was written.
func TestLazyRegionMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	var carried *Delta // the previous sequence's last delta
	for seq := 0; seq < 300; seq++ {
		lazy, eager := newTwin(false), newTwin(true)
		sides := [2]*twin{lazy, eager}
		var snaps [2][]byte // last Snapshot, per side
		// Last DeltaSnapshot or DiffDirty, per side. Each sequence starts
		// from the one before's, so ApplyDelta also meets a region that
		// nothing has materialised yet.
		deltas := [2]*Delta{carried, carried}
		high, materialised := 0, false
		// The first stretch of each sequence only reads, writes and
		// clears, so the lazy prefix gets exercised before a snapshot or
		// the dirty tracker materialises it.
		lazyOps := rng.Intn(80)
		for step := 0; step < 200; step++ {
			op := rng.Intn(5)
			if step >= lazyOps {
				op = rng.Intn(12)
			}
			a := modelBase - 3 + Addr(rng.Intn(modelSize+6))
			v := uint16(rng.Uint32())
			var got [2]string
			var errs [2]error
			for i, tw := range sides {
				var out any
				var err error
				switch op {
				case 0:
					err = tw.m.WriteByteAt(a, byte(v))
				case 1:
					err = tw.m.WriteWord(a, v)
				case 2:
					out, err = tw.m.ReadByteAt(a)
				case 3:
					out, err = tw.m.ReadWord(a)
				case 4:
					tw.r.Clear()
				case 5:
					snaps[i] = tw.r.Snapshot()
					out = snaps[i]
				case 6:
					if snaps[i] != nil {
						err = tw.r.Restore(snaps[i])
					}
				case 7:
					tw.r.EnableDirtyTracking()
				case 8:
					if snaps[i] != nil {
						deltas[i], err = tw.r.DiffDirty(snaps[i])
						out = deltas[i]
					}
				case 9:
					if snaps[i] != nil {
						out, err = tw.r.RevertDirty(snaps[i])
					}
				case 10:
					err = tw.r.ApplyDelta(deltas[i])
				case 11:
					if d := tw.r.DeltaSnapshot(); d != nil {
						deltas[i], out = d, d
					}
				}
				got[i], errs[i] = fmt.Sprintf("%v %v", out, err), err
			}
			if got[0] != got[1] {
				t.Fatalf("seq %d step %d op %d at %#x: lazy %s, eager %s", seq, step, op, a, got[0], got[1])
			}
			if !reflect.DeepEqual(lazy.log, eager.log) {
				t.Fatalf("seq %d step %d op %d: hook calls differ\nlazy  %v\neager %v", seq, step, op, lazy.log, eager.log)
			}
			if lazy.r.Reads != eager.r.Reads || lazy.r.Writes != eager.r.Writes {
				t.Fatalf("seq %d step %d: counters lazy %d/%d, eager %d/%d", seq, step,
					lazy.r.Reads, lazy.r.Writes, eager.r.Reads, eager.r.Writes)
			}
			if !reflect.DeepEqual(lazy.r.DirtyPages(), eager.r.DirtyPages()) {
				t.Fatalf("seq %d step %d: dirty pages differ", seq, step)
			}

			switch {
			case (op == 0 || op == 1) && errs[0] == nil:
				high = max(high, int(a-modelBase)+op+1)
			case op == 5 || op == 7 || op == 6 && snaps[0] != nil || op == 10 && deltas[0] != nil:
				materialised = true
			}
			want := min((high+PageSize-1)&^(PageSize-1), modelSize)
			if materialised {
				want = modelSize
			}
			if len(lazy.r.data) != want {
				t.Fatalf("seq %d step %d op %d: lazy prefix is %d bytes, want %d", seq, step, op, len(lazy.r.data), want)
			}
		}
		if !bytes.Equal(lazy.r.Snapshot(), eager.r.Snapshot()) {
			t.Fatalf("seq %d: final contents differ", seq)
		}
		carried = deltas[0]
	}
}

// TestLazyRegionEdges pins the corners of the written prefix.
func TestLazyRegionEdges(t *testing.T) {
	r := NewRegion("R", modelBase, modelSize, true)
	m, err := NewMemory(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != modelSize || r.End() != modelBase+modelSize || len(r.data) != 0 {
		t.Fatalf("fresh region: Size %d End %#x prefix %d", r.Size(), r.End(), len(r.data))
	}

	// A word straddling the end of the written prefix reads its high
	// byte as zero; writing it grows the prefix by a page.
	if err := m.WriteByteAt(modelBase+PageSize-1, 0xAB); err != nil {
		t.Fatal(err)
	}
	if len(r.data) != PageSize {
		t.Fatalf("prefix after a write to byte %d is %d bytes", PageSize-1, len(r.data))
	}
	if v, err := m.ReadWord(modelBase + PageSize - 1); err != nil || v != 0x00AB {
		t.Fatalf("straddling read = %#x, %v; want 0xab", v, err)
	}
	if err := m.WriteWord(modelBase+PageSize-1, 0x1234); err != nil {
		t.Fatal(err)
	}
	if len(r.data) != 2*PageSize {
		t.Fatalf("prefix after a straddling write is %d bytes", len(r.data))
	}
	if b, _ := m.ReadByteAt(modelBase + PageSize); b != 0x12 {
		t.Fatalf("high byte of the straddling write = %#x", b)
	}

	// A word at the region's last byte still faults, and counts nothing.
	last := modelBase + modelSize - 1
	if _, err := m.ReadWord(last); err == nil {
		t.Fatal("word read at the last byte did not fault")
	}
	if err := m.WriteWord(last, 1); err == nil {
		t.Fatal("word write at the last byte did not fault")
	}
	if r.Reads != 2 || r.Writes != 2 || len(r.data) != 2*PageSize {
		t.Fatalf("faulting word accesses moved state: reads %d writes %d prefix %d", r.Reads, r.Writes, len(r.data))
	}
	// The last byte itself is mapped, and writing it grows the prefix to
	// the short last page, not past the region.
	if err := m.WriteByteAt(last, 7); err != nil {
		t.Fatal(err)
	}
	if len(r.data) != modelSize {
		t.Fatalf("prefix after a write to the last byte is %d bytes", len(r.data))
	}

	// Snapshot length is the region's size, written or not.
	fresh := NewRegion("R", modelBase, modelSize, true)
	if got := len(fresh.Snapshot()); got != fresh.Size() {
		t.Fatalf("Snapshot of an unwritten region is %d bytes, want %d", got, fresh.Size())
	}
	if got := len(r.Snapshot()); got != r.Size() {
		t.Fatalf("Snapshot is %d bytes, want %d", got, r.Size())
	}

	// The allocator sees the whole region before anything is written.
	a := NewRegion("R", modelBase, modelSize, true)
	if _, err := a.Alloc(modelSize - 1); err != nil {
		t.Fatal(err)
	}
	if len(a.data) != 0 {
		t.Fatal("Alloc materialised the region")
	}
}
