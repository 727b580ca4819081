package isa_test

import (
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/edb"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/memsim"
	"repro/internal/units"
)

// counterSrc is a non-volatile counter: classic first intermittent program.
// The count lives in FRAM (.word) and survives reboots; r5 is volatile and
// resets with every power failure.
const counterSrc = `
	.equ APPPIN, 0x0128
main:	mov #2, &APPPIN      ; toggle progress pin
	mov &count, r5
	inc r5
	mov r5, &count
	mov #20, r6          ; a little computation per sample
spin:	dec r6
	jnz spin
	jmp main
count:	.word 0
`

func TestISACounterSurvivesIntermittence(t *testing.T) {
	d := device.NewWISP5(energy.NewRFHarvester(), 42)
	e := edb.New(edb.DefaultConfig())
	e.Attach(d)
	prog := isa.NewProgram("nv-counter", counterSrc)
	r := device.NewRunner(d, prog)
	if err := r.Flash(); err != nil {
		t.Fatal(err)
	}
	res, err := r.RunFor(units.Seconds(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reboots < 5 {
		t.Fatalf("must be intermittent: %+v", res)
	}
	countAddr := memsim.Addr(prog.Image().Symbols["count"])
	v, err := d.Mem.ReadWord(countAddr)
	if err != nil {
		t.Fatal(err)
	}
	if v < 1000 {
		t.Fatalf("count = %d; non-volatile progress must accumulate across reboots", v)
	}
	if prog.CPU().Retired() == 0 {
		t.Fatal("no instructions retired")
	}
}

// TestRetiredCountsOnePowerCycle: Retired counts the instructions of the
// last boot only. counterSrc stores its FRAM count once per 46-instruction
// pass, so each boot retires 46 instructions per count it adds, give or
// take the pass a brown-out cut short.
func TestRetiredCountsOnePowerCycle(t *testing.T) {
	const perPass = 46
	d := device.NewWISP5(energy.NewRFHarvester(), 42)
	e := edb.New(edb.DefaultConfig())
	e.Attach(d)
	prog := isa.NewProgram("nv-counter", counterSrc)
	r := device.NewRunner(d, prog)
	if err := r.Flash(); err != nil {
		t.Fatal(err)
	}
	countAddr := memsim.Addr(prog.Image().Symbols["count"])
	count := func() uint16 {
		v, err := d.Mem.ReadWord(countAddr)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// near reports whether n retired instructions fit the given passes.
	near := func(n uint64, passes uint16) bool {
		want := perPass * uint64(passes)
		return n+perPass >= want && n <= want+perPass
	}
	var atPowerOn uint16
	r.OnPowerOn = func() { atPowerOn = count() }
	r.OnReboot = func(n int) {
		if got := prog.CPU().Retired(); !near(got, count()-atPowerOn) {
			t.Errorf("reboot %d: %d instructions retired for %d passes", n, got, count()-atPowerOn)
		}
	}
	res, err := r.RunFor(units.Seconds(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reboots < 3 {
		t.Fatalf("must be intermittent: %+v", res)
	}
	if got := prog.CPU().Retired(); !near(got, count()-atPowerOn) {
		t.Fatalf("after the run: %d instructions retired for the last boot's %d passes", got, count()-atPowerOn)
	}
}

func TestISAHaltCompletes(t *testing.T) {
	d := device.NewWISP5(&energy.ConstantHarvester{I: units.MilliAmps(5), Voc: 3.3}, 1)
	prog := isa.NewProgram("halts", `
	.equ HALT, 0x012C
	mov #40, r5
loop:	dec r5
	jnz loop
	mov #1, &HALT
	`)
	r := device.NewRunner(d, prog)
	if err := r.Flash(); err != nil {
		t.Fatal(err)
	}
	res, err := r.RunFor(units.Seconds(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("halt port must complete the program: %+v", res)
	}
}

func TestISADebugPortWatchpointsAndPrintf(t *testing.T) {
	d := device.NewWISP5(&energy.ConstantHarvester{I: units.MilliAmps(5), Voc: 3.3}, 2)
	e := edb.New(edb.DefaultConfig())
	e.Attach(d)
	prog := isa.NewProgram("dbg", `
	.equ WP,    0x0120
	.equ PUTC,  0x0124
	.equ HALT,  0x012C
	mov #1, &WP
	mov #0x48, &PUTC     ; 'H'
	mov #0x69, &PUTC     ; 'i'
	mov #10, &PUTC       ; '\n' flushes via EDB printf
	mov #2, &WP
	mov #1, &HALT
	`)
	r := device.NewRunner(d, prog)
	if err := r.Flash(); err != nil {
		t.Fatal(err)
	}
	res, err := r.RunFor(units.Seconds(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("%+v", res)
	}
	hits := e.WatchHits()
	if len(hits) != 2 || hits[0].ID != 1 || hits[1].ID != 2 {
		t.Fatalf("watchpoints = %+v", hits)
	}
	if e.PrintfOutput() != "Hi" {
		t.Fatalf("printf = %q", e.PrintfOutput())
	}
}

func TestISAEnergyGuard(t *testing.T) {
	d := device.NewWISP5(energy.NewRFHarvester(), 3)
	e := edb.New(edb.DefaultConfig())
	e.Attach(d)
	// The guarded block burns far more than one charge cycle's budget;
	// only the guard lets the loop complete.
	prog := isa.NewProgram("guarded", `
	.equ GUARD, 0x0126
	.equ HALT,  0x012C
	mov #1, &GUARD
	mov #0xFFFF, r5
burn:	dec r5
	jnz burn
	mov #0, &GUARD
	mov #1, &HALT
	`)
	r := device.NewRunner(d, prog)
	if err := r.Flash(); err != nil {
		t.Fatal(err)
	}
	res, err := r.RunFor(units.Seconds(10))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("guarded burn must complete: %+v", res)
	}
	if e.Stats().Guards != 1 || e.Stats().SaveRestores != 1 {
		t.Fatalf("guard stats = %+v", e.Stats())
	}
}

func TestISAAssertPort(t *testing.T) {
	d := device.NewWISP5(&energy.ConstantHarvester{I: units.MilliAmps(5), Voc: 3.3}, 4)
	e := edb.New(edb.DefaultConfig())
	e.Attach(d)
	prog := isa.NewProgram("asserts", `
	.equ AFAIL, 0x0122
	mov #5, &AFAIL
	`)
	r := device.NewRunner(d, prog)
	if err := r.Flash(); err != nil {
		t.Fatal(err)
	}
	res, err := r.RunFor(units.Seconds(1))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Halted, "assert 5") {
		t.Fatalf("halted = %q", res.Halted)
	}
	if !d.Supply.Tethered() {
		t.Fatal("keep-alive must tether on the ISA path too")
	}
}

func TestISAEnergyBreakpointVectorsToISR(t *testing.T) {
	d := device.NewWISP5(energy.NewRFHarvester(), 5)
	e := edb.New(edb.DefaultConfig())
	e.Attach(d)
	// The ISR counts invocations in FRAM. EDB's energy breakpoint raises
	// the interrupt wire; the wrapper vectors to "isr".
	prog := isa.NewProgram("isr-demo", `
	.equ BREAK, 0x0132
main:	inc r5               ; busy: the supply really discharges
	jmp main
isr:	mov &hits, r14
	inc r14
	mov r14, &hits
	mov #7, &BREAK       ; hand control to the console
	reti
hits:	.word 0
	`)
	r := device.NewRunner(d, prog)
	if err := r.Flash(); err != nil {
		t.Fatal(err)
	}
	e.AddEnergyBreakpoint(2.1)
	sessions := 0
	e.OnInteractive(func(s *edb.Session) { sessions++ })
	res, err := r.RunFor(units.Seconds(4))
	if err != nil {
		t.Fatal(err)
	}
	hitsAddr := memsim.Addr(prog.Image().Symbols["hits"])
	v, _ := d.Mem.ReadWord(hitsAddr)
	if v == 0 {
		t.Fatalf("ISR never ran: %+v (sessions=%d)", res, sessions)
	}
	if sessions == 0 {
		t.Fatal("energy-breakpoint sessions must open")
	}
}

func TestISABadSourceFailsFlash(t *testing.T) {
	d := device.NewWISP5(&energy.ConstantHarvester{I: units.MilliAmps(5), Voc: 3.3}, 6)
	prog := isa.NewProgram("bad", "mov r5\n")
	r := device.NewRunner(d, prog)
	if err := r.Flash(); err == nil {
		t.Fatal("bad source must fail to flash")
	}
}
