#!/usr/bin/env bash
# The code-line count of ROADMAP rule (viii): git-tracked non-test .go
# files outside benchmark/, blank lines and // comment lines excluded.
# Given a git ref, it also prints the count at that ref and the change
# since it.
#
#   scripts/ci/loc.sh          # the count, one number
#   scripts/ci/loc.sh HEAD~1   # the count, then "HEAD~1 <count>" and "delta <n>"
set -euo pipefail
# shellcheck source=scripts/ci/lib.sh
. "$(dirname "$0")/lib.sh"
cd "$(repo_root)"

# sources filters a list of paths to the files rule (viii) counts.
sources() {
  grep '\.go$' | grep -v '_test\.go$' | grep -v '^benchmark/' || true
}

# code_lines counts the lines of Go source on stdin that are code.
code_lines() {
  grep -v '^\s*$' | grep -cv '^\s*//' || true
}

now=$(git ls-files | sources | xargs cat | code_lines)
echo "$now"
if [ $# -gt 0 ]; then
  ref=$1
  before=$(git ls-tree -r --name-only "$ref" | sources |
    while read -r f; do git show "$ref:$f"; done | code_lines)
  echo "$ref $before"
  echo "delta $((now - before))"
fi
