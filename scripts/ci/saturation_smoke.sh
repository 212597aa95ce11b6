#!/usr/bin/env bash
# Saturation smoke: a deliberately unreachable target (0.9 on a ladder
# whose natural acceptance sits near 0.3) must raise the per-dimension
# ladder-spacing diagnostic instead of silently parking at the window
# clamp.
set -euo pipefail
# shellcheck source=scripts/ci/lib.sh
. "$(dirname "$0")/lib.sh"
cd "$(repo_root)"

go build -o /tmp/repex ./cmd/repex
/tmp/repex -sim configs/saturation_small.json \
           -res configs/small_cluster_16.json \
           -listen 127.0.0.1:9198 > /tmp/sat.log 2>&1 &
pid=$!
wait_http http://127.0.0.1:9198/status
# The run is short; poll until the diagnostic raises.
ok=0
for _ in $(seq 1 50); do
  if fetch http://127.0.0.1:9198/metrics \
     -Eq '^repex_feedback_saturated\{dim="0"\} 1$'; then
    ok=1
    break
  fi
  sleep 0.2
done
if [ "$ok" != 1 ]; then
  echo "saturation diagnostic never raised"
  curl -fsS http://127.0.0.1:9198/metrics | grep repex_feedback_ || true
  exit 1
fi
fetch http://127.0.0.1:9198/status -q '"saturated": true'
# The summary SATURATED line only prints once the run completes; the
# gauge can read 1 mid-run, so wait for the completed state before
# stopping the server.
wait_state http://127.0.0.1:9198 completed
stop "$pid"
grep -q 'SATURATED' /tmp/sat.log
