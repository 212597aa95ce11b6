#!/usr/bin/env bash
# Observability smoke: run a small virtual simulation with the status
# server listening, then check /status and /metrics answer 200 with
# well-formed payloads (fails on non-200 via curl -f and on malformed
# Prometheus output via the greps), that /metrics carries the Go runtime
# block, that every family scraped is in docs/observability.md's metric
# reference, and that the -trace export writes Perfetto-loadable Chrome
# trace-event JSON.
set -euo pipefail
# shellcheck source=scripts/ci/lib.sh
. "$(dirname "$0")/lib.sh"
cd "$(repo_root)"

go build -o /tmp/repex ./cmd/repex
/tmp/repex -sim configs/async_ph_small.json \
           -res configs/small_cluster_16.json \
           -listen 127.0.0.1:9196 &
pid=$!
wait_http http://127.0.0.1:9196/status
curl -fsS http://127.0.0.1:9196/status | tee /tmp/status.json
grep -q '"state"' /tmp/status.json
grep -q '"exchange_events"' /tmp/status.json
# Scrape after completion so the SIGTERM below hits the post-run
# serving loop and the exit code is deterministically 0.
wait_state http://127.0.0.1:9196 completed
curl -fsS http://127.0.0.1:9196/metrics > /tmp/metrics.txt
grep -q '^# TYPE repex_exchange_events_total counter$' /tmp/metrics.txt
grep -Eq '^repex_exchange_events_total [0-9]+$' /tmp/metrics.txt
grep -q '^# TYPE repex_md_exec_seconds histogram$' /tmp/metrics.txt
grep -Eq '^repex_md_exec_seconds_bucket\{le="\+Inf"\} [0-9]+$' /tmp/metrics.txt
# The single-run server carries the Go runtime block too.
grep -Eq '^go_gc_heap_allocs_objects_total [0-9]+$' /tmp/metrics.txt
grep -Eq '^go_goroutines [0-9]+$' /tmp/metrics.txt
grep -q '^go_build_info{goversion="go' /tmp/metrics.txt
# Every sample line must be "name{labels} value".
if grep -vE '^(#|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+|\+Inf|$)' /tmp/metrics.txt; then
  echo "malformed Prometheus exposition" && exit 1
fi
# Every family of the live scrape is in the metric reference.
reference=$(sed -n '/^## Metric reference$/,/^## Resource gauges$/p' docs/observability.md)
for family in $(sed -n 's/^# TYPE \([^ ]*\) .*/\1/p' /tmp/metrics.txt); do
  case "$reference" in
    *"| \`$family\` |"*) ;;
    *) echo "docs/observability.md does not document $family"; exit 1 ;;
  esac
done
stop "$pid"

# Flight-recorder export: the same run with -trace writes
# Perfetto-loadable Chrome trace-event JSON at exit, with the MD
# segments on the replica tracks.
/tmp/repex -sim configs/async_ph_small.json \
           -res configs/small_cluster_16.json \
           -trace /tmp/run_trace.json
jq -e '[.traceEvents[] | select(.ph=="X" and .name=="md")] | length > 0' /tmp/run_trace.json
jq -e '.displayTimeUnit == "ms"' /tmp/run_trace.json
