package console_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/console"
	"repro/internal/device"
	"repro/internal/edb"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

func rig(t *testing.T) (*device.Device, *edb.EDB, *console.Console) {
	t.Helper()
	d := device.NewWISP5(&energy.ConstantHarvester{I: units.MilliAmps(1), Voc: 3.3}, 44)
	e := edb.New(edb.DefaultConfig())
	e.Attach(d)
	return d, e, console.New(e)
}

func TestHelpAndUnknown(t *testing.T) {
	_, _, c := rig(t)
	out, err := c.Exec("help")
	if err != nil || !strings.Contains(out, "charge <volts>") {
		t.Fatalf("help: %v %q", err, out)
	}
	if _, err := c.Exec("bogus"); err == nil {
		t.Fatal("unknown command must error")
	}
	if out, err := c.Exec("   "); err != nil || out != "" {
		t.Fatal("blank line must be a no-op")
	}
}

func TestChargeDischargeCommands(t *testing.T) {
	_, e, c := rig(t)
	out, err := c.Exec("charge 2.4")
	if err != nil || !strings.Contains(out, "charging") {
		t.Fatalf("%v %q", err, out)
	}
	if !e.PendingCommand() {
		t.Fatal("charge command must queue")
	}
	if _, err := c.Exec("discharge 1.9"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"charge", "charge x", "charge -1", "charge 9"} {
		if _, err := c.Exec(bad); err == nil {
			t.Fatalf("%q must error", bad)
		}
	}
}

func TestBreakAndWatchCommands(t *testing.T) {
	_, e, c := rig(t)
	if out, err := c.Exec("break en 3"); err != nil || !strings.Contains(out, "code breakpoint 3 enabled") {
		t.Fatalf("%v %q", err, out)
	}
	if !e.BreakpointEnabled(3) {
		t.Fatal("breakpoint 3 must be enabled")
	}
	if out, err := c.Exec("break en 4 2.0"); err != nil || !strings.Contains(out, "combined") {
		t.Fatalf("%v %q", err, out)
	}
	if _, err := c.Exec("break dis 3"); err != nil {
		t.Fatal(err)
	}
	if e.BreakpointEnabled(3) {
		t.Fatal("breakpoint 3 must be disabled")
	}
	if _, err := c.Exec("watch en 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("watch nope 1"); err == nil {
		t.Fatal("bad en/dis must error")
	}
	if _, err := c.Exec("break en xyz"); err == nil {
		t.Fatal("bad id must error")
	}
}

func TestEbreakAndStatus(t *testing.T) {
	_, _, c := rig(t)
	if out, err := c.Exec("ebreak 2.3"); err != nil || !strings.Contains(out, "2.300") {
		t.Fatalf("%v %q", err, out)
	}
	out, err := c.Exec("status")
	if err != nil || !strings.Contains(out, "Vcap") {
		t.Fatalf("%v %q", err, out)
	}
	if out, err := c.Exec("vcap"); err != nil || !strings.Contains(out, "Vcap") {
		t.Fatalf("%v %q", err, out)
	}
}

func TestReadWriteRequireSession(t *testing.T) {
	_, _, c := rig(t)
	if _, err := c.Exec("read 0x4400"); err == nil {
		t.Fatal("read outside a session must error")
	}
	if _, err := c.Exec("write 0x4400 1"); err == nil {
		t.Fatal("write outside a session must error")
	}
	if _, err := c.Exec("resume"); err == nil {
		t.Fatal("resume outside a session must error")
	}
	if _, err := c.Exec("halt"); err == nil {
		t.Fatal("halt outside a session must error")
	}
}

func TestSessionReadWriteThroughConsole(t *testing.T) {
	// Full stack: app asserts → session opens → console reads and writes
	// target memory over the debug wire.
	d, e, c := rig(t)
	h := energy.NewRFHarvester()
	d2 := device.NewWISP5(h, 42)
	e.Detach()
	e.Attach(d2)
	app := &apps.LinkedList{WithAssert: true}
	r := device.NewRunner(d2, app)
	if err := r.Flash(); err != nil {
		t.Fatal(err)
	}
	var readOut, writeOut string
	e.OnInteractive(func(s *edb.Session) {
		c.BindSession(s)
		defer c.BindSession(nil)
		var err error
		readOut, err = c.Exec("read 0x" + hex16(uint16(app.HeaderAddr())))
		if err != nil {
			t.Errorf("read: %v", err)
		}
		writeOut, err = c.Exec("write 0x" + hex16(uint16(app.HeaderAddr()+6)) + " 0x7")
		if err != nil {
			t.Errorf("write: %v", err)
		}
		if _, err := c.Exec("resume"); err != nil {
			t.Errorf("resume: %v", err)
		}
	})
	if _, err := r.RunFor(units.Seconds(30)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(readOut, "=") {
		t.Fatalf("read output %q", readOut)
	}
	if !strings.Contains(writeOut, "<-") {
		t.Fatalf("write output %q", writeOut)
	}
	_ = d
}

func TestTraceCommands(t *testing.T) {
	d, e, c := rig(t)
	d.Supply.Cap.SetVoltage(2.4)
	d.Supply.Step(0, 0)
	env := &device.Env{D: d}
	env.UARTWrite([]byte{0x41})
	env.TogglePin(device.LineAppPin)
	out, err := c.Exec("trace iobus")
	if err != nil || !strings.Contains(out, "uart") {
		t.Fatalf("%v %q", err, out)
	}
	// Second call sees no new events.
	out2, _ := c.Exec("trace iobus")
	if !strings.Contains(out2, "(0 iobus events)") {
		t.Fatalf("incremental trace: %q", out2)
	}
	if out, err := c.Exec("trace energy"); err != nil || !strings.Contains(out, "Vcap") {
		t.Fatalf("%v %q", err, out)
	}
	if _, err := c.Exec("trace nonsense"); err == nil {
		t.Fatal("unknown stream must error")
	}
	if _, err := c.Exec("trace"); err == nil {
		t.Fatal("missing stream must error")
	}
	_ = e
}

// TestTraceKeepsPlaceAcrossDiscards: a trace stream prints every event it
// has not printed yet, also after the event log discarded its oldest
// quarter in between.
func TestTraceKeepsPlaceAcrossDiscards(t *testing.T) {
	_, e, c := rig(t)
	log := e.Events()
	log.Limit = 8
	add := func(from, to int) {
		for i := from; i < to; i++ {
			log.Add(trace.Event{At: sim.Cycles(i), Kind: "uart", Arg: i})
		}
	}
	add(0, 6)
	if out, err := c.Exec("trace iobus"); err != nil || !strings.Contains(out, "(6 iobus events)") {
		t.Fatalf("%v %q", err, out)
	}
	add(6, 10)
	if log.Dropped == 0 {
		t.Fatal("the log must have discarded events")
	}
	out, err := c.Exec("trace iobus")
	if err != nil || !strings.Contains(out, "(4 iobus events)") {
		t.Fatalf("%v %q", err, out)
	}
	for i := 6; i < 10; i++ {
		if !strings.Contains(out, fmt.Sprintf("@%d uart", i)) {
			t.Fatalf("event %d missing:\n%s", i, out)
		}
	}
	if out, _ := c.Exec("trace iobus"); !strings.Contains(out, "(0 iobus events)") {
		t.Fatalf("third call: %q", out)
	}
}

// hex16 formats a 16-bit value as four hex digits (console address syntax).
func hex16(v uint16) string {
	const digits = "0123456789abcdef"
	return string([]byte{
		digits[v>>12&0xF], digits[v>>8&0xF], digits[v>>4&0xF], digits[v&0xF],
	})
}

// TestDisasmCommand disassembles live target code over the debug wire from
// inside an interactive session on an ISA target.
func TestDisasmCommand(t *testing.T) {
	d := device.NewWISP5(&energy.ConstantHarvester{I: units.MilliAmps(5), Voc: 3.3}, 77)
	e := edb.New(edb.DefaultConfig())
	e.Attach(d)
	c := console.New(e)
	prog := isa.NewProgram("disasm-target", `
	.equ BREAK, 0x0132
	.equ HALT,  0x012C
start:	mov #0x1234, r5
	add r5, r6
	mov #1, &BREAK
	mov #1, &HALT
	`)
	r := device.NewRunner(d, prog)
	if err := r.Flash(); err != nil {
		t.Fatal(err)
	}
	var listing string
	e.OnInteractive(func(s *edb.Session) {
		c.BindSession(s)
		defer c.BindSession(nil)
		out, err := c.Exec(fmt.Sprintf("disasm %#04x 2", prog.Image().Entry))
		if err != nil {
			t.Errorf("disasm: %v", err)
		}
		listing = out
	})
	if _, err := r.RunFor(units.Seconds(1)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(listing, "mov #0x1234, r5") || !strings.Contains(listing, "add r5, r6") {
		t.Fatalf("listing:\n%s", listing)
	}
	if _, err := c.Exec("disasm 0x4500"); err == nil {
		t.Fatal("disasm outside a session must error")
	}
}
