// Package repro is a from-scratch Go reproduction of "An Energy-
// interference-free Hardware-Software Debugger for Intermittent Energy-
// harvesting Systems" (Colin, Harvey, Lucia, Sample — ASPLOS 2016).
//
// The original EDB is a hardware board wired to a WISP 5 RF-harvesting
// tag; this repository replaces every hardware element with a faithful
// simulation substrate (capacitor/harvester physics, an MCU with volatile
// SRAM and non-volatile FRAM, peripherals, an RFID reader, and EDB's
// analog front end) and implements the debugger — passive monitoring,
// active-mode energy compensation, and the intermittence-aware debugging
// primitives — on top of it.
//
// Start with internal/core (the assembly API), examples/quickstart (a
// runnable tour), DESIGN.md (system inventory and experiment index), and
// EXPERIMENTS.md (paper-vs-measured for every table and figure). Every
// evaluation result regenerates in the paper's layout with
//
//	go run ./cmd/edb-bench -exp all
//
// and its headline numbers print as one JSON object with -json.
package repro
