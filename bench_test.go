// Benchmarks of the simulated substrate: the target-side cost of a
// watchpoint, and the simulator's and ISA interpreter's throughput. The
// paper's tables and figures run from `go run ./cmd/edb-bench`, which
// reports their headline numbers with -json.
package repro

import (
	"testing"

	"repro/internal/experiments"
)

// BenchmarkWatchpointCost measures the target-side cost of one code-marker
// watchpoint in MCU cycles (§4.1.3: "practically energy-interference-
// free"). It uses the simulator's cycle clock, not wall time.
func BenchmarkWatchpointCost(b *testing.B) {
	r, err := experiments.RunWatchpointCost(b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.CyclesPerWatchpoint, "target-cycles/op")
	b.ReportMetric(r.EnergyPerWatchpointNJ, "target-nJ/op")
}

// BenchmarkSimulatorThroughput reports how much simulated time the
// substrate executes per wall-clock second (an engineering metric for the
// simulator itself, not a paper result).
func BenchmarkSimulatorThroughput(b *testing.B) {
	simSeconds, err := experiments.RunThroughput(b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(simSeconds, "sim-s/iter")
}

// BenchmarkISAInterpreter measures the MSP430-subset interpreter's
// throughput (simulated instructions per wall second) on a register-heavy
// loop — an engineering metric for the substrate.
func BenchmarkISAInterpreter(b *testing.B) {
	retired, err := experiments.RunISAThroughput(b.N)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(retired, "instructions/iter")
}
