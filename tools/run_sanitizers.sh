#!/usr/bin/env bash
# Sanitizer gate for the census/analysis engine.
#
# Configures a dedicated build tree per sanitizer (-DANYCAST_SANITIZE=...),
# builds the concurrency-sensitive tests (storage_test included: collation
# fans per-file work over a thread pool), the sharded data-plane tests
# (sharded_test: budgeted builds write side-run files and read them back
# into views, and derived matrices share storage copy-on-write), the
# analysis-kernel property tests (kernel_test: guard-band fallbacks and the
# tests/oracle code), the incremental-analysis tests (daemon_test: derived
# rounds read the combine_min change record), the crash-point tests
# (every *DurableWrite* test: the census, watch and spill runs killed at
# each durable write), the flag parser (flags_test: strict numeric values
# and the effective values a census manifest records), and the
# file-format mutation loops (census manifests and .anc checkpoints,
# in storage_test), and runs them under that sanitizer. Run it from
# anywhere; build trees live in <repo>/build-<sanitizer> (gitignored).
#
#   tools/run_sanitizers.sh                 # thread, address, undefined
#   tools/run_sanitizers.sh thread          # one sanitizer
#   tools/run_sanitizers.sh address -R Census  # extra args go to ctest
#
# The first argument selects the sanitizer when it is one of
# thread|address|undefined|all; everything after it is passed to ctest
# verbatim (replacing the default test selection).
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

selection="all"
case "${1:-}" in
  thread|address|undefined|all)
    selection="$1"
    shift
    ;;
esac

if [ "$selection" = "all" ]; then
  sanitizers=(thread address undefined)
else
  sanitizers=("$selection")
fi

run_gate() {
  local sanitizer="$1"
  shift
  local build="$repo/build-$sanitizer"

  cmake -S "$repo" -B "$build" -DANYCAST_SANITIZE="$sanitizer" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build" -j "$(nproc)" \
    --target concurrency_test census_test fault_test integration_test \
             obs_test flight_recorder_test headline_test serving_test \
             telemetry_test kernel_test storage_test sharded_test daemon_test \
             flags_test

  # halt_on_error: a single finding fails the gate instead of scrolling
  # past. UBSAN reports are non-fatal by default, so ask for aborts too.
  local prefix=()
  case "$sanitizer" in
    thread)
      prefix=(env TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}")
      ;;
    address)
      prefix=(env ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}")
      ;;
    undefined)
      prefix=(env UBSAN_OPTIONS="halt_on_error=1 abort_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}")
      ;;
  esac

  if [ "$#" -gt 0 ]; then
    "${prefix[@]}" ctest --test-dir "$build" --output-on-failure "$@"
  else
    "${prefix[@]}" ctest --test-dir "$build" --output-on-failure \
      -R 'ThreadPool|ShardRanges|Parallel|Census|Resume|Fault|Metrics|Trace|Headline|Journal|Progress|Serving|Telemetry|LatencyHisto|TimeSeries|Slo|Kernel|Storage|Sharded|IncrementalAnalysis|ChangeRecord|DurableWrite|Flags|CensusManifest|FileFormatMutation'
  fi
  echo "$sanitizer sanitizer gate passed."
}

for sanitizer in "${sanitizers[@]}"; do
  run_gate "$sanitizer" "$@"
done
echo "Sanitizer gate passed: ${sanitizers[*]}."
