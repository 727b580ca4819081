# Convenience targets for the EDB reproduction.

GO ?= go

.PHONY: all test vet race bench benchcmp results examples fuzz smoke clean

all: test

test: vet
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector pass over the whole tree (covers the parallel experiment
# runner and the golden determinism tests).
race:
	$(GO) test -race ./...

# One benchmark iteration per table/figure with the headline metrics.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run '^$$' .

# Compare edb-bench headline metrics of the working tree against BASE
# (default: the previous commit). Override the selection with BENCH_ARGS.
BASE ?= HEAD~1
benchcmp:
	sh scripts/benchcmp.sh $(BASE)

# Regenerate every table, figure, case study, sweep, and ablation, plus
# the trace-codec, snapshot, fleet, kernel, cluster, gateway-failover, and
# exhaustive-exploration benchmarks (single-process and distributed), into
# BENCH.json.
results:
	$(GO) run ./cmd/edb-bench -exp all -trace -snapshot -fleet -kernel -cluster -gateway-failover -explore -csv -out results

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/listbug
	$(GO) run ./examples/energyguard
	$(GO) run ./examples/profiling
	$(GO) run ./examples/rfid
	$(GO) run ./examples/replay
	$(GO) run ./examples/asm
	$(GO) run ./examples/datalogger

fuzz:
	$(GO) test ./internal/debugwire -run '^$$' -fuzz FuzzDecode -fuzztime 20s
	$(GO) test ./internal/console -run '^$$' -fuzz FuzzExec -fuzztime 20s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzWireDecode -fuzztime 20s
	$(GO) test ./internal/tracecodec -run '^$$' -fuzz FuzzTraceCodec -fuzztime 20s

# End-to-end remote-debugging smoke test: edbd daemon vs local run,
# byte-identical output, graceful drain.
smoke:
	sh scripts/smoke.sh

clean:
	rm -rf results
