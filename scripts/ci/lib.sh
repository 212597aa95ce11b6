#!/usr/bin/env bash
# Shared helpers for the CI smoke scripts (scripts/ci/*.sh). Each
# script is standalone: it anchors itself at the repository root,
# builds what it needs, and fails on the first broken assertion — the
# same exit semantics locally and in the workflow.

# repo_root prints the repository root (two levels above this file).
repo_root() {
  cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd
}

# wait_http URL: polls until the URL answers 200 (10 s budget).
wait_http() {
  for _ in $(seq 1 50); do
    if curl -fsS "$1" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  echo "no answer from $1" >&2
  return 1
}

# fetch URL GREP-ARGS...: downloads URL to a temp file and greps the
# file. Use it instead of `curl | grep -q`: under pipefail that pipeline
# flakes, because grep -q exits at the first match, curl's next write
# gets EPIPE and curl exits 23.
fetch() {
  local url=$1 tmp rc=0
  shift
  tmp=$(mktemp)
  curl -fsS "$url" -o "$tmp" && grep "$@" "$tmp" || rc=$?
  rm -f "$tmp"
  return "$rc"
}

# wait_state BASE STATE: polls BASE/status until the run reports the
# wanted lifecycle state (20 s budget).
wait_state() {
  for _ in $(seq 1 100); do
    if [ "$(curl -fsS "$1/status" 2>/dev/null | jq -r .state)" = "$2" ]; then
      return 0
    fi
    sleep 0.2
  done
  echo "run never reached state $2; last status:" >&2
  curl -fsS "$1/status" >&2 || true
  return 1
}

# stop PID: SIGTERMs a smoke server and asserts it exits 0 — the
# graceful shutdown path is part of what the smokes cover, so a drain
# that hangs, panics or exits dirty must fail the script.
stop() {
  kill "$1"
  local rc=0
  wait "$1" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "pid $1 exited $rc after SIGTERM, want 0" >&2
    return 1
  fi
}

# COVERAGE_FLOOR is the checked-in statement-coverage gate (percent)
# that check_coverage enforces. Raise it as coverage grows; never lower
# it to make a build pass — deleting tests is what it exists to catch.
COVERAGE_FLOOR=80.0

# check_coverage PROFILE: asserts `go tool cover` total statement
# coverage of an existing -coverprofile file is at or above
# COVERAGE_FLOOR percent.
check_coverage() {
  local total
  total=$(go tool cover -func="$1" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
  if [ -z "$total" ]; then
    echo "no total in coverage profile $1" >&2
    return 1
  fi
  if ! awk -v t="$total" -v f="$COVERAGE_FLOOR" 'BEGIN {exit !(t >= f)}'; then
    echo "total coverage ${total}% is below the ${COVERAGE_FLOOR}% floor" >&2
    return 1
  fi
  echo "total coverage ${total}% (floor ${COVERAGE_FLOOR}%)"
}
