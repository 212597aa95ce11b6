#!/usr/bin/env bash
# repexd smoke: the multi-run daemon end to end — launch the feedback
# workload over HTTP, poll it to completion, check the aggregate scrape
# carries the per-run label, the daemon's own rows and the Go runtime
# block, and the flight-recorder endpoints serve,
# resize the shared core pool through PATCH /pool, then cancel a long
# second run, assert it reaches "cancelled" and that its event stream
# named every event. The daemon itself must drain and exit 0 on SIGTERM.
set -euo pipefail
# shellcheck source=scripts/ci/lib.sh
. "$(dirname "$0")/lib.sh"
cd "$(repo_root)"

go build -o /tmp/repexd ./cmd/repexd
/tmp/repexd -listen 127.0.0.1:9199 -total-cores 64 &
pid=$!
wait_http http://127.0.0.1:9199/healthz
jq -n --slurpfile sim configs/feedback_small.json \
      --slurpfile res configs/small_cluster_16.json \
      '{sim: $sim[0], res: $res[0]}' > /tmp/launch.json
id=$(curl -fsS -X POST http://127.0.0.1:9199/runs \
       -d @/tmp/launch.json | jq -r .id)
[ -n "$id" ] && [ "$id" != null ]
wait_state "http://127.0.0.1:9199/runs/$id" completed
curl -fsS http://127.0.0.1:9199/metrics > /tmp/agg.txt
grep -Eq "^repex_exchange_events_total\{run=\"$id\"\} [0-9]+$" /tmp/agg.txt
grep -q '^repexd_runs{state="completed"} 1$' /tmp/agg.txt
# The daemon's own rows: the Go runtime block, open event streams (none
# yet) and requests in flight (the scrape counts itself).
grep -Eq '^go_gc_heap_allocs_objects_total [0-9]+$' /tmp/agg.txt
grep -q '^repexd_sse_subscribers 0$' /tmp/agg.txt
grep -q '^repexd_http_requests_in_flight{route="GET /metrics"} 1$' /tmp/agg.txt
# Flight recorder: every run carries one; the trace endpoint must serve
# loadable Chrome trace-event JSON with complete ("X") spans, and the
# aggregate scrape the span counters.
curl -fsS "http://127.0.0.1:9199/runs/$id/trace" > /tmp/trace.json
jq -e '[.traceEvents[] | select(.ph=="X")] | length > 0' /tmp/trace.json
jq -e '.displayTimeUnit == "ms"' /tmp/trace.json
grep -Eq "^repex_trace_spans_total\{run=\"$id\"\} [1-9][0-9]*$" /tmp/agg.txt
grep -Eq "^repex_trace_dropped_total\{run=\"$id\"\} [0-9]+$" /tmp/agg.txt
# Elastic pool: shrink below the workload's 16 cores, watch admission
# reject, grow back and watch it admit again.
total=$(curl -fsS -X PATCH http://127.0.0.1:9199/pool \
          -d '{"total_cores": 8}' | jq -r .total_cores)
[ "$total" = 8 ]
code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST \
         http://127.0.0.1:9199/runs -d @/tmp/launch.json)
[ "$code" = 429 ] || { echo "launch against the shrunk pool: $code, want 429"; exit 1; }
total=$(curl -fsS -X PATCH http://127.0.0.1:9199/pool \
          -d '{"total_cores": 64}' | jq -r .total_cores)
[ "$total" = 64 ]
# A long-budget second run, cancelled mid-flight through the API. Its
# pilot expires every 5000 s, so its event stream (followed from here to
# the cancellation) carries resource events beside md/exchange/fault.
jq '.sim.cycles = 400000 | .sim.trigger = "barrier" | .res.walltime_sec = 5000
    | del(.sim.pattern, .sim.async_window_sec, .sim.target_acceptance)' \
   /tmp/launch.json > /tmp/launch_long.json
id2=$(curl -fsS -X POST http://127.0.0.1:9199/runs \
        -d @/tmp/launch_long.json | jq -r .id)
curl -fsS -N "http://127.0.0.1:9199/runs/$id2/events" > /tmp/events.txt &
sse=$!
# 300 exchange events are well over 15000 virtual seconds: several
# expiries have streamed by the time the cancellation lands.
for _ in $(seq 1 100); do
  ev=$(curl -fsS "http://127.0.0.1:9199/runs/$id2/status" | jq -r .exchange_events)
  [ "$ev" != null ] && [ "$ev" -ge 300 ] && break
  sleep 0.1
done
curl -fsS -X DELETE "http://127.0.0.1:9199/runs/$id2" >/dev/null
wait_state "http://127.0.0.1:9199/runs/$id2" cancelled
# The stream closes itself with "done"; every event on it is named.
wait "$sse"
grep -q '^event: done$' /tmp/events.txt
grep -q '^event: resource$' /tmp/events.txt
for name in $(sed -n 's/^event: //p' /tmp/events.txt | sort -u); do
  case " md exchange fault resource respace done " in
    *" $name "*) ;;
    *) echo "unexpected SSE event name: $name"; exit 1 ;;
  esac
done
stop "$pid"
