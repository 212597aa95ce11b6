#!/usr/bin/env bash
# Fuzz gate: five short coverage-guided lanes over the inputs the
# daemon takes from outside, 16 s each so the whole gate stays under
# 90 s. They find shallow panics (the kind a refactor introduces)
# without holding the build hostage.
#   FuzzParseLaunch       internal/config    the network-facing launch
#                         parser, seeded from every committed config file
#   FuzzDecodeSnapshot    internal/core      checkpoint files: never
#                         panics, agrees with encoding/json on whatever it
#                         accepts, re-encodes to a fixed point
#   FuzzCollectorRestore  internal/analysis  the collector state inside a
#                         checkpoint: the same, and the restored collector
#                         survives the next exchange, MD and fault events
#   FuzzFeedbackRestore   internal/core      the trigger state inside a
#   FuzzAdaptiveRestore                      checkpoint: never panics, a
#                         failed restore leaves the controller's encoded
#                         state unchanged, re-encodes to a fixed point
# The checkpoint lanes are seeded from the pinned format-2 files and
# trigger_state.golden in internal/core/testdata. Crashers land in the
# package's testdata/fuzz/ for triage. Minimising a 10 KB interesting
# input can eat a whole lane (the default budget is 60 s an input), so
# it is capped.
set -euo pipefail
# shellcheck source=scripts/ci/lib.sh
. "$(dirname "$0")/lib.sh"
cd "$(repo_root)"

lane() { go test "$1" -run '^$' -fuzz "^$2\$" -fuzztime 16s -fuzzminimizetime 2s; }
lane ./internal/config/ FuzzParseLaunch
lane ./internal/core/ FuzzDecodeSnapshot
lane ./internal/analysis/ FuzzCollectorRestore
lane ./internal/core/ FuzzFeedbackRestore
lane ./internal/core/ FuzzAdaptiveRestore
