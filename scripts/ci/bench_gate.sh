#!/usr/bin/env bash
# Per-completion dispatcher cost: repetitions gated against the
# committed median baseline by cmd/benchcheck (>15% median regression
# fails; update BENCH_baseline.json in the same PR when intentional, or
# when the runner class changes — absolute ns baselines are machine
# specific; the pair gates compare the run with itself and are not).
# Four invocations share one stream. The dispatcher legs run at -cpu 1: a run
# is one process active at a time by construction, so a second P adds
# nothing but the scheduler migrating the orchestrator goroutine between
# threads, which on a shared runner is most of the run-to-run noise.
# Iteration counts keep each sample tens of milliseconds long: the small
# legs at 40x, the scaling legs (1024/4096 replicas) at 8x, the
# 65536-replica barrier leg at 1x. The sharded-exchange pair keeps every
# CPU (its worker pool is what it measures) at 2x.
set -euo pipefail
# shellcheck source=scripts/ci/lib.sh
. "$(dirname "$0")/lib.sh"
cd "$(repo_root)"

# Five rounds of one sample each, not one round of -count 5: a burst of
# neighbour noise then spoils one sample of a leg instead of its median.
: > BENCH_dispatcher.json
for _ in 1 2 3 4 5; do
  go test -run '^$' -cpu 1 -bench 'BenchmarkDispatcher$/^(64|256)$|BenchmarkDispatcherBus$|BenchmarkDispatcherTrace$' \
    -benchtime 40x -json . | tee -a BENCH_dispatcher.json
  go test -run '^$' -cpu 1 -bench 'BenchmarkDispatcher$/^(1024|4096)$' \
    -benchtime 8x -json . | tee -a BENCH_dispatcher.json
  go test -run '^$' -cpu 1 -bench 'BenchmarkDispatcher64K$/^65536$/^barrier$' \
    -benchtime 1x -json . | tee -a BENCH_dispatcher.json
  go test -run '^$' -bench 'BenchmarkExchangeSharding$' \
    -benchtime 2x -json . | tee -a BENCH_dispatcher.json
done
go run ./cmd/benchcheck -baseline BENCH_baseline.json -bench BENCH_dispatcher.json
