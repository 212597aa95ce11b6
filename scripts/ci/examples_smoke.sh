#!/usr/bin/env bash
# Examples smoke: builds every program under examples/ and runs each to
# completion; a non-zero exit from any of them fails the script. All
# nine take about 1 s together on a 2-vCPU host, nearly all of it
# fes_validation's real MD.
set -euo pipefail
# shellcheck source=scripts/ci/lib.sh
. "$(dirname "$0")/lib.sh"
cd "$(repo_root)"

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin" ./examples/...
n=0
for prog in "$bin"/*; do
  name=$(basename "$prog")
  t0=$(date +%s%N)
  if ! out=$(timeout 300 "$prog" 2>&1); then
    echo "examples smoke: $name failed; its output:" >&2
    echo "$out" >&2
    exit 1
  fi
  echo "$name ok, $((($(date +%s%N) - t0) / 1000000)) ms"
  n=$((n + 1))
done
echo "examples smoke: all $n examples ran"
