#!/usr/bin/env bash
# Per-completion dispatcher cost: repetitions checked against the
# committed baseline by cmd/benchcheck. What blocks is the pair gates in
# the baseline files (ratios and deltas between two legs of the same run,
# which hold on any host) and a baseline leg missing from the run. The
# absolute medians are advisory: a >15% regression is printed (WARN lines
# and benchcheck's exit status 3) and never fails this script, because
# absolute ns are specific to the machine and its load that day — on the
# shared build host the same binary reads +20-70% within the hour. Read
# the WARN lines; update BENCH_baseline.json in the same PR when a
# regression is intentional, or when the runner class changes.
# Four invocations share one stream. The dispatcher legs run on every CPU,
# like the program: the orchestrator is a coroutine of the goroutine that
# runs the kernel (internal/sim, goProc), so a wakeup never enters the
# scheduler and a second P no longer migrates it between threads. They
# were pinned to -cpu 1 while the hand-off was a channel pair; five
# interleaved rounds of the 256 / 4096 barrier legs on the 2-vCPU build
# host read, min-median-max ns/completion,
#   channel pair  -cpu 1  4358-4686-5178 / 4637-5304-5665
#                 -cpu 2  5535-6099-7029 / 5835-6146-13991
#   coroutine     -cpu 1  3021-3802-4306 / 3047-4080-4240
#                 -cpu 2  3337-3480-4174 / 3695-3930-4041
# so -cpu 2 is now the tighter of the two. (A toolchain before go1.23
# builds the channel pair again, and its noise with it: baselines are per
# runner class and per toolchain.)
# Iteration counts keep each sample tens of milliseconds long: the small
# legs at 40x, the scaling legs (1024/4096 replicas) at 8x, the
# 16384-replica barrier leg at 2x, the 65536-replica one at 1x. The two
# large barrier legs run on Stampede, and the 16384 one is gated by its
# ratio to the 4096 leg only, with no absolute median. (The exchange
# phase is one serial pass; there is no exchange worker pool left to
# time.)
#
# The internal/md legs (force evaluation and Langevin step, ns/atom) go
# to their own stream and their own baseline, BENCH_md.json: a baseline
# file gates one metric. They are timed, not counted — 200 ms a sample —
# because one force call is microseconds on the dipeptide and a third of
# a millisecond on the 256-atom fluid.
#
# The checkpoint codec (BenchmarkSnapshotCodec: encode, decode,
# state_encode and state_restore of a 1024-replica, 64-event checkpoint,
# each beside a _ref leg doing the same through encoding/json's
# reflection codec) has a third stream and pair gates only: each leg must
# cost less than half its _ref leg's ns/op, whatever the host. The run's
# medians are written to BENCH_snapshot.json before it is gated against,
# so that file records the last readings and bounds no absolute ns.
#
# The kernel's fixed-delay queues (internal/sim, BenchmarkSimResident: 64
# processes cycling three fixed sleeps under 4096 parked timers, through
# the heap and through Delay.Wake) are gated the same way, against
# BENCH_sim.json: a wakeup through a delay queue must cost at most half of
# one through the heap (0.18-0.25 when the gate was set). The same stream
# times the orchestrator's shape (BenchmarkSimAwaiter: one goroutine
# process awaiting the completions of 64 stepped ones) against the steppers
# alone (BenchmarkSimStepped): a parked process steps them inline and
# switches only at its own wakeup, so the ratio stays near 1.3; a Park
# that always switches back to RunUntil reads about 2.7.
#
# The aggregate /metrics scrape (internal/serve, BenchmarkAggregateScrape:
# sixteen finished 1024-window runs, rendered live from their collectors
# and copied from their frozen shares) is gated by ratio against
# BENCH_serve.json: a scrape of finished runs must cost under 0.15 of one
# that renders them (0.031-0.045 over ten gate runs when the gate was
# set, ~1 if finished runs were rendered again). Its medians are
# rewritten like the kernel's. The same stream times one 4096-replica
# /stats body (BenchmarkRunStats: through the Stats layout and
# jsonx.Indent, and through encoding/json, the reference): the layout
# must take under 0.4 of the reference's time (0.18-0.28 over ten runs
# when the gate was set).
#
# The local backend's Mode II rounds (internal/localexec,
# BenchmarkLocalexecRound: 1 024 and 16 384 tasks of 10 us on 2 cores,
# submitted at once) are gated by ratio against BENCH_localexec.json: a
# task of the large round may cost under 1.3x one of the small round
# (0.99-1.08 over ten rounds when the gate was set; 1.06-2.32 while
# every queued task parked a goroutine that every completion woke).
# Its medians are rewritten like the kernel's.
set -euo pipefail
# shellcheck source=scripts/ci/lib.sh
. "$(dirname "$0")/lib.sh"
cd "$(repo_root)"

# Five rounds of one sample each, not one round of -count 5: a burst of
# neighbour noise then spoils one sample of a leg instead of its median.
: > BENCH_dispatcher.json
: > BENCH_md_samples.json
: > BENCH_snapshot_samples.json
: > BENCH_sim_samples.json
: > BENCH_serve_samples.json
: > BENCH_localexec_samples.json
for _ in 1 2 3 4 5; do
  go test -run '^$' -bench 'BenchmarkDispatcher$/^(64|256)$|BenchmarkDispatcherBus$|BenchmarkDispatcherTrace$' \
    -benchtime 40x -json . | tee -a BENCH_dispatcher.json
  go test -run '^$' -bench 'BenchmarkDispatcher$/^(1024|4096)$' \
    -benchtime 8x -json . | tee -a BENCH_dispatcher.json
  go test -run '^$' -bench 'BenchmarkDispatcher$/^16384$/^barrier$' \
    -benchtime 2x -json . | tee -a BENCH_dispatcher.json
  go test -run '^$' -bench 'BenchmarkDispatcher64K$/^65536$/^barrier$' \
    -benchtime 1x -json . | tee -a BENCH_dispatcher.json
  go test -run '^$' -cpu 1 -bench 'BenchmarkMDForce$|BenchmarkLangevinStep$' \
    -benchtime 200ms -json ./internal/md | tee -a BENCH_md_samples.json
  go test -run '^$' -bench 'BenchmarkSnapshotCodec$' \
    -benchtime 20x -json . | tee -a BENCH_snapshot_samples.json
  go test -run '^$' -bench 'BenchmarkSimResident$|BenchmarkSimStepped$|BenchmarkSimAwaiter$' \
    -benchtime 2000000x -json ./internal/sim | tee -a BENCH_sim_samples.json
  go test -run '^$' -bench 'BenchmarkAggregateScrape$|BenchmarkRunStats$' \
    -benchtime 40x -json ./internal/serve | tee -a BENCH_serve_samples.json
  go test -run '^$' -bench 'BenchmarkLocalexecRound$' \
    -benchtime 8x -json ./internal/localexec | tee -a BENCH_localexec_samples.json
done
# Every gate reports even when an earlier one fails. benchcheck is built,
# not `go run`: go run turns every failure status into 1, and status 3
# (only absolute medians regressed) is the advisory one.
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/benchcheck" ./cmd/benchcheck
status=0
check() {
  local rc=0
  "$bin/benchcheck" "$@" || rc=$?
  if [ "$rc" -eq 3 ]; then
    echo "advisory: absolute medians regressed (not failing the gate)"
  elif [ "$rc" -ne 0 ]; then
    status=1
  fi
}
check -baseline BENCH_baseline.json -bench BENCH_dispatcher.json
check -metric ns/atom -baseline BENCH_md.json -bench BENCH_md_samples.json
check -metric ns/op -bench BENCH_snapshot_samples.json -write BENCH_snapshot.json
check -metric ns/op -baseline BENCH_snapshot.json -bench BENCH_snapshot_samples.json
check -metric ns/op -bench BENCH_sim_samples.json -write BENCH_sim.json
check -metric ns/op -baseline BENCH_sim.json -bench BENCH_sim_samples.json
check -metric ns/op -bench BENCH_serve_samples.json -write BENCH_serve.json
check -metric ns/op -baseline BENCH_serve.json -bench BENCH_serve_samples.json
check -metric ns/task -bench BENCH_localexec_samples.json -write BENCH_localexec.json
check -metric ns/task -baseline BENCH_localexec.json -bench BENCH_localexec_samples.json
exit "$status"
