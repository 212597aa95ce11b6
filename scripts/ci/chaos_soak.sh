#!/usr/bin/env bash
# Deterministic chaos soak: the committed chaos plan — a node loss
# mid-cycle, a spot-style preemption with a 30 s notice, an elastic
# shrink — must complete with zero dropped replicas, reproduce the
# committed golden slot fingerprint bit-for-bit (including across a
# checkpoint/resume boundary), and surface the faults on /metrics.
set -euo pipefail
# shellcheck source=scripts/ci/lib.sh
. "$(dirname "$0")/lib.sh"
cd "$(repo_root)"

# Determinism, resume and golden-fingerprint gates, under the race
# detector (configs/chaos_small.golden pins the slot history).
go test -race -run 'TestChaos' -v ./internal/bench/

# The same plan end to end through cmd/repex, scraping the fault
# telemetry off the live metrics endpoint.
go build -o /tmp/repex ./cmd/repex
/tmp/repex -sim configs/chaos_sim_small.json \
           -res configs/chaos_small.json \
           -listen 127.0.0.1:9195 > /tmp/chaos.log 2>&1 &
pid=$!
wait_http http://127.0.0.1:9195/status
wait_state http://127.0.0.1:9195 completed
curl -fsS http://127.0.0.1:9195/metrics > /tmp/chaos_metrics.txt
# The scripted preemption notice was observed...
grep -q '^# TYPE repex_preemptions_total counter$' /tmp/chaos_metrics.txt
grep -Eq '^repex_preemptions_total [1-9][0-9]*$' /tmp/chaos_metrics.txt
# ...and the shrink is visible: the node loss (8 -> 2 cores) plus the
# elastic resize left pilot slot 0 at one core, while the preempted
# slot 1 finished on its full-size failover replacement.
grep -Eq '^repex_pilot_cores\{pilot="0"\} 1$' /tmp/chaos_metrics.txt
grep -Eq '^repex_pilot_cores\{pilot="1"\} 8$' /tmp/chaos_metrics.txt
stop "$pid"
# Resource loss must never consume replica fault budgets: the run
# summary reports every killed segment relaunched and nothing dropped.
grep -Eq 'dropped=0 relaunches=[1-9][0-9]*' /tmp/chaos.log

# The single-pilot leg: no "pilots" key, so the run is one routing slot.
# A 170 s walltime forces three relaunches, then a preemption whose 80 s
# notice outlasts the 5 s queue wait: the replacement is live long
# before the preempted pilot's expire — the slot's last resource event,
# carrying cores=0 — arrives.
/tmp/repex -sim configs/chaos_sim_small.json \
           -res configs/chaos_single_small.json \
           -listen 127.0.0.1:9195 > /tmp/chaos_single.log 2>&1 &
pid=$!
wait_http http://127.0.0.1:9195/status
wait_state http://127.0.0.1:9195 completed
curl -fsS http://127.0.0.1:9195/metrics > /tmp/chaos_single_metrics.txt
stop "$pid"
grep -Eq 'dropped=0 relaunches=[1-9][0-9]*' /tmp/chaos_single.log
grep -Eq '^repex_preemptions_total 1$' /tmp/chaos_single_metrics.txt
# One slot, one series for the life of the run — relaunches move its
# value, they do not mint pilot="1", pilot="2", ... — and it reads the
# live replacement's eight cores, not the retired pilot's zero.
[ "$(grep -c '^repex_pilot_cores{' /tmp/chaos_single_metrics.txt)" -eq 1 ]
grep -Eq '^repex_pilot_cores\{pilot="0"\} 8$' /tmp/chaos_single_metrics.txt
