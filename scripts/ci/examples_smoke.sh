#!/usr/bin/env bash
# Examples smoke: builds every program under examples/, runs each to
# completion and checks its output for what examples/README.md says it
# prints: every backticked span in the table's "Expected output
# includes" column must appear in the program's output, verbatim. A
# non-zero exit, a missing marker, or an example the table names no
# marker for fails the script. All nine take about 1 s together on a
# 2-vCPU host, nearly all of it fes_validation's real MD.
set -euo pipefail
# shellcheck source=scripts/ci/lib.sh
. "$(dirname "$0")/lib.sh"
cd "$(repo_root)"

# markers prints "example<TAB>marker" for each backticked span in the
# last column of examples/README.md's table, one line each.
markers() {
  awk -F'|' '/^\| \[`/ {
    name = $2; sub(/^[^`]*`/, "", name); sub(/`.*/, "", name)
    cell = $5
    while (match(cell, /`[^`]+`/)) {
      print name "\t" substr(cell, RSTART + 1, RLENGTH - 2)
      cell = substr(cell, RSTART + RLENGTH)
    }
  }' examples/README.md
}

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin" ./examples/...
table=$(markers)
n=0
for prog in "$bin"/*; do
  name=$(basename "$prog")
  t0=$(date +%s%N)
  if ! out=$(timeout 300 "$prog" 2>&1); then
    echo "examples smoke: $name failed; its output:" >&2
    echo "$out" >&2
    exit 1
  fi
  checked=0
  while IFS=$'\t' read -r example marker; do
    [ "$example" = "$name" ] || continue
    if ! grep -qF -- "$marker" <<<"$out"; then
      echo "examples smoke: $name does not print \"$marker\" (examples/README.md); its output:" >&2
      echo "$out" >&2
      exit 1
    fi
    checked=$((checked + 1))
  done <<<"$table"
  if [ "$checked" -eq 0 ]; then
    echo "examples smoke: examples/README.md states no expected output for $name" >&2
    exit 1
  fi
  echo "$name ok, $checked markers, $((($(date +%s%N) - t0) / 1000000)) ms"
  n=$((n + 1))
done
while IFS=$'\t' read -r example _; do
  if [ ! -x "$bin/$example" ]; then
    echo "examples smoke: examples/README.md names $example, which is not an example" >&2
    exit 1
  fi
done <<<"$table"
echo "examples smoke: all $n examples ran and printed their stated output"
