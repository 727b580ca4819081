package core

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/edb"
	"repro/internal/sim"
)

// RigSnapshot is a full machine snapshot of an assembled rig: the target
// device (memory, clock, supply, peripherals, RNG streams) plus the
// debugger's own state. Applying it to a freshly built identical rig makes
// the pair bit-for-bit indistinguishable — the warm-start fork primitive.
type RigSnapshot struct {
	Device *device.Snapshot
	EDB    *edb.Snapshot // nil for rigs assembled WithoutEDB
}

// MemoryBytes returns the size of the snapshot's full memory image.
func (s *RigSnapshot) MemoryBytes() int { return s.Device.MemoryBytes() }

// Now returns the simulated cycle the snapshot was taken at.
func (s *RigSnapshot) Now() sim.Cycles { return s.Device.Now }

// Snapshot captures the rig at a firmware-quiescent point (no firmware
// stack live, no pending clock events — e.g. at a power-on, before Main
// starts). Reader rigs cannot be snapshotted: the reader's inventory state
// machine lives outside the capture set.
func (r *Rig) Snapshot() (*RigSnapshot, error) {
	s := new(RigSnapshot)
	if err := r.SnapshotInto(s); err != nil {
		return nil, err
	}
	return s, nil
}

// SnapshotInto is Snapshot into *s, reusing the memory images and RNG
// registers s holds from an earlier snapshot of this rig: for callers that
// replace a snapshot nothing will restore any more. On error *s is left
// partly written.
func (r *Rig) SnapshotInto(s *RigSnapshot) error {
	if r.Reader != nil {
		return fmt.Errorf("core: reader rigs cannot be snapshotted")
	}
	if s.Device == nil {
		s.Device = new(device.Snapshot)
	}
	if err := r.Device.SnapshotInto(s.Device); err != nil {
		return err
	}
	if r.EDB == nil {
		s.EDB = nil
		return nil
	}
	if s.EDB == nil {
		s.EDB = new(edb.Snapshot)
	}
	return r.EDB.SnapshotInto(s.EDB)
}

// Restore applies a snapshot taken from an identically assembled rig (same
// program, options and seed). The restored rig resumes exactly where the
// snapshot was taken.
func (r *Rig) Restore(s *RigSnapshot) error {
	if r.Reader != nil {
		return fmt.Errorf("core: reader rigs cannot be restored")
	}
	if err := r.Device.Restore(s.Device); err != nil {
		return err
	}
	if r.EDB != nil {
		if s.EDB == nil {
			return fmt.Errorf("core: snapshot has no debugger state for a debugger rig")
		}
		r.EDB.RestoreSnapshot(s.EDB)
	}
	return nil
}

// RunUntil is Run against an absolute deadline cycle with times reported
// relative to origin — the warm-start entry point. A rig restored from a
// snapshot passes the deadline and origin a cold run would have used, so
// every reported time (and therefore every output byte) matches the cold
// run exactly.
func (r *Rig) RunUntil(deadline, origin sim.Cycles) (device.RunResult, error) {
	if r.Reader != nil {
		r.Reader.Start()
		defer r.Reader.Stop()
	}
	return r.Runner.RunUntil(deadline, origin)
}
