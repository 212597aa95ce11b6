#!/usr/bin/env bash
# Fuzz gate: eight short coverage-guided lanes over the inputs the
# daemon takes from outside and the bodies it writes, 13 s each; the
# whole gate takes ~120 s on a 2-core host, builds included.
# They find shallow panics (the kind a refactor introduces) without
# holding the build hostage.
#   FuzzParseLaunch       internal/config    the network-facing launch
#                         parser, seeded from every committed config file
#   FuzzResourceChaos     internal/config    a resource block and its
#                         chaos script: never panics, an accepted plan
#                         targets only routing slots that exist and passes
#                         ChaosPlan.Validate
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
#   FuzzResume            internal/core      a checkpoint against the run
#                         it resumes: what CheckResume refuses New
#                         refuses; what it accepts New restores exactly
#                         and runs to the end without a panic (the event
#                         and row counts are also mutated as fields)
#   FuzzLayoutJSON        internal/serve     the replica-scaled bodies:
#                         a /stats body and every bus event type's frame,
#                         written through their jsonx layouts, equal what
#                         encoding/json writes for the same fuzzed values
#                         (nil and empty slices, NaN, negative zero,
#                         exponents, <, >, & and U+2028 in strings)
# The checkpoint lanes are seeded from the pinned format-2 files and
# trigger_state.golden in internal/core/testdata; FuzzResume also from
# each pinned run's event-0 checkpoint. Crashers land in the
# package's testdata/fuzz/ for triage. Minimising a 10 KB interesting
# input can eat a whole lane (the default budget is 60 s an input), so
# it is capped: at 50 runs for the two lanes that take whole
# checkpoints, and at 2 s for the rest. Under a 2 s cap both workers
# spent most of the lane minimising: FuzzResume, where a run of a
# checkpoint that decodes resumes two small simulations, did 20-60 k
# execs in 13 s on 2 cores (~170 k at 50 runs), and FuzzDecodeSnapshot
# did 4-19 k, ending at 0-300 execs/s (110-125 k at 50 runs).
set -euo pipefail
# shellcheck source=scripts/ci/lib.sh
. "$(dirname "$0")/lib.sh"
cd "$(repo_root)"

lane() { go test "$1" -run '^$' -fuzz "^$2\$" -fuzztime 13s -fuzzminimizetime "${3:-2s}"; }
lane ./internal/config/ FuzzParseLaunch
lane ./internal/config/ FuzzResourceChaos
lane ./internal/core/ FuzzDecodeSnapshot 50x
lane ./internal/analysis/ FuzzCollectorRestore
lane ./internal/core/ FuzzFeedbackRestore
lane ./internal/core/ FuzzAdaptiveRestore
lane ./internal/core/ FuzzResume 50x
lane ./internal/serve/ FuzzLayoutJSON
