#!/usr/bin/env bash
# Respace smoke: a deliberately mis-spaced ladder (3 K gaps, one 82 K
# cliff) with the respace block armed must saturate the feedback
# controller, re-fit at least once, clear the diagnostic, and finish
# with its rolling acceptance inside the deadband of the 0.35 target.
set -euo pipefail
# shellcheck source=scripts/ci/lib.sh
. "$(dirname "$0")/lib.sh"
cd "$(repo_root)"

go build -o /tmp/repex ./cmd/repex
/tmp/repex -sim configs/respace_small.json \
           -res configs/small_cluster_16.json \
           -listen 127.0.0.1:9199 > /tmp/respace.log 2>&1 &
pid=$!
wait_http http://127.0.0.1:9199/status
# The run is short; poll until a re-fit lands.
ok=0
for _ in $(seq 1 50); do
  if fetch http://127.0.0.1:9199/metrics \
     -Eq '^repex_respacings_total\{dim="0"\} [1-9]'; then
    ok=1
    break
  fi
  sleep 0.2
done
if [ "$ok" != 1 ]; then
  echo "no ladder re-fit ever landed"
  curl -fsS http://127.0.0.1:9199/metrics | grep -E 'repex_(respacings|feedback)_' || true
  exit 1
fi
fetch http://127.0.0.1:9199/status -q '"respace"'
fetch http://127.0.0.1:9199/status -q '"refits"'
wait_state http://127.0.0.1:9199 completed
# Acting on the diagnostic must clear it: the run ends unsaturated,
# with the re-fitted grid's rolling acceptance near the set point.
fetch http://127.0.0.1:9199/metrics \
  -Eq '^repex_feedback_saturated\{dim="0"\} 0$'
measured=$(curl -fsS http://127.0.0.1:9199/metrics | \
  awk '/^repex_feedback_acceptance_measured\{dim="0"\}/ {print $2}')
if ! awk -v m="$measured" 'BEGIN {exit !(m >= 0.25 && m <= 0.45)}'; then
  echo "final rolling acceptance $measured outside 0.35 +/- 0.1"
  exit 1
fi
stop "$pid"
grep -q 'RESPACED' /tmp/respace.log
