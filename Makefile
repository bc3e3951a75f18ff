.PHONY: all build test check examples-smoke audit bench bench-smoke clean

all: build

build:
	dune build @all

test:
	dune runtest

# The gate CI runs: everything compiles, all test suites pass, the
# deterministic fault-injection matrix is green (with the SI anomaly
# checker validating every run's history), the mutation battery proves
# the checker still detects a weakened engine, replayed seeds do not
# diverge (the determinism audit), the examples run, the
# storage-elasticity contract holds (zero migration-caused aborts,
# bounded throughput-recovery window — ELASTIC_current.json is written
# by the elastic_scaling example during the smoke), and the
# commit-manager scale-out contract holds (begin throughput >= 3x from
# 1 to 4 managers, abort rate flat under merged snapshots —
# CM_current.json is written by the fig_cm smoke), and the
# buffered-index contract holds (index-phase p99 <= 500 us with TpmC
# within the smoke tolerance of the committed baseline — the headline
# run writes BENCH_index_current.json), and that same run reproduces
# every simulated counter of BENCH_commit.json exactly (bench_compare
# --exact: refactors move the host clock only), and so do a reduced
# read-mix run against BENCH_read.json and reduced runs of the two
# shared-buffer strategies against BENCH_sb.json and BENCH_sbvs10.json.
check:
	dune build @all
	dune runtest
	dune exec bin/tell_check.exe -- --quick
	dune exec bin/tell_check.exe -- --mutation
	$(MAKE) audit
	$(MAKE) examples-smoke
	dune exec bin/bench_compare.exe -- --elastic ELASTIC_current.json
	dune exec bin/tell_bench.exe -- experiment fig_cm --quick
	dune exec bin/bench_compare.exe -- --cm CM_current.json
	dune exec bin/tell_bench.exe -- tell --pns 4 --rf 3 --json BENCH_index_current.json
	dune exec bin/bench_compare.exe -- --index BENCH_commit.json BENCH_index_current.json
	dune exec bin/bench_compare.exe -- --exact BENCH_commit.json BENCH_index_current.json
	dune exec bin/tell_bench.exe -- tell --pns 4 --rf 3 --mix read --measure-ms 150 --json BENCH_read_current.json
	dune exec bin/bench_compare.exe -- --exact BENCH_read.json BENCH_read_current.json
	dune exec bin/tell_bench.exe -- tell --pns 4 --rf 3 --warehouses 8 --measure-ms 150 --buffer sb --json BENCH_sb_current.json
	dune exec bin/bench_compare.exe -- --exact BENCH_sb.json BENCH_sb_current.json
	dune exec bin/tell_bench.exe -- tell --pns 4 --rf 3 --warehouses 8 --measure-ms 150 --buffer sbvs10 --json BENCH_sbvs10_current.json
	dune exec bin/bench_compare.exe -- --exact BENCH_sbvs10.json BENCH_sbvs10_current.json

examples-smoke:
	dune exec examples/quickstart.exe
	dune exec examples/mixed_workload.exe
	dune exec examples/elastic_scaling.exe
	dune exec examples/fault_tolerance.exe

# Replay a few seeds twice and fail on any counter divergence: guards the
# determinism contract the repro commands depend on.
audit:
	dune exec bin/tell_check.exe -- --deterministic-audit --seeds 3

bench:
	dune exec bin/tell_bench.exe -- tell --pns 4 --rf 3

# Reduced benchmark run compared against the committed baseline; fails if
# TpmC drops more than 15%, requests/new-order rises more than 10%, or
# the abort rate rises more than 0.5 percentage points.
bench-smoke:
	dune exec bin/tell_bench.exe -- tell --pns 4 --rf 3 --json BENCH_current.json
	dune exec bin/bench_compare.exe -- BENCH_commit.json BENCH_current.json

clean:
	dune clean
