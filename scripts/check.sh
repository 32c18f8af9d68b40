#!/usr/bin/env bash
# Instrumented verification pipeline. By default runs eight phases:
#
#   1. AddressSanitizer + UndefinedBehaviorSanitizer over the full suite
#      (degenerate-input and chaos-soak tests under heap/UB checking)
#   2. ThreadSanitizer over the concurrency tests (the thread-pool
#      contract, cross-thread-count determinism sweeps, parallel soak,
#      the telemetry registry/span suite, and the multi-writer event log)
#   3. The layer-overhead gates on an unsanitized Release build
#      (bench_overhead: on clean frames the supervisor must cost <= 5% over
#      the bare counter, and tracing and the obs stack <= 2% each over the
#      supervisor; the bench exits nonzero past any budget)
#   4. The golden-corpus parity gate (Release build): fp32-vs-int8 and
#      1-vs-N-thread replays over data/golden must show zero divergences
#   5. The static-analysis gate (scripts/lint.sh): analyzer self-test,
#      hawc_analyze rule catalogue, header self-sufficiency, HAWC_WERROR
#      build, and clang-tidy when installed
#   6. The fleet chaos gate (Release build): the multi-pole soak test and
#      the fleet_service example, proving fault isolation, staleness
#      bounds, and watchdog recovery outside the sanitized builds too
#   7. The flight-recorder drill (Release build): the fault-injected
#      eight-pole postmortem example must dump a bundle that replays
#      bit-exactly and complete an SLO alert fire/resolve cycle
#   8. The corpus-container drill (Release build): stream every chunk of
#      both golden "HWCC" corpus containers (checksums + decode)
#
# Speed is judged elsewhere, as a same-host A/B of the polebench
# workloads against the merge-base: scripts/perf_ab.py.
#
# Setting HAWC_SANITIZE runs a single sanitizer configuration over the
# full suite instead (any -fsanitize= value works):
#
#   scripts/check.sh                  # all eight phases
#   HAWC_SANITIZE=thread scripts/check.sh
#   HAWC_SANITIZE=address,undefined scripts/check.sh -R chaos_soak
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:abort_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

run_suite() {  # run_suite <sanitizer> <build_dir> [ctest args...]
  local sanitize="$1" build_dir="$2"
  shift 2
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHAWC_SANITIZE="${sanitize}"
  cmake --build "${build_dir}" -j "$(nproc)"
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" "$@"
}

if [[ -n "${HAWC_SANITIZE:-}" ]]; then
  run_suite "${HAWC_SANITIZE}" "${repo_root}/build-sanitize" "$@"
  exit 0
fi

echo "== phase 1/8: address,undefined over the full suite =="
run_suite "address,undefined" "${repo_root}/build-sanitize" "$@"

echo "== phase 2/8: thread sanitizer over the concurrency tests =="
run_suite "thread" "${repo_root}/build-tsan" -R '^(thread_pool|determinism|telemetry|parity|container|fleet[a-z_]*|obs[a-z_]*)\.'

echo "== phase 3/8: layer-overhead gates (Release, supervisor <= 5%, trace and obs <= 2%) =="
perf_build="${repo_root}/build"
cmake -B "${perf_build}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${perf_build}" --target bench_overhead -j "$(nproc)"
"${perf_build}/bench/bench_overhead"
echo "layer-overhead gates OK"

echo "== phase 4/8: golden-corpus parity gate =="
cmake --build "${perf_build}" --target parity_checker -j "$(nproc)"
"${perf_build}/examples/parity_checker" check "${repo_root}/data/golden"
echo "parity gate OK"

echo "== phase 5/8: static-analysis gate =="
"${repo_root}/scripts/lint.sh" --self-test
"${repo_root}/scripts/lint.sh"
echo "static-analysis gate OK"

echo "== phase 6/8: fleet chaos gate (Release) =="
cmake --build "${perf_build}" --target test_fleet fleet_service -j "$(nproc)"
"${perf_build}/tests/test_fleet" --gtest_filter='fleet_chaos.*:fleet.*'
"${perf_build}/examples/fleet_service" 300 > /tmp/hawc_fleet_service.txt
grep -q "Staleness bound (10 ticks) holds: yes" /tmp/hawc_fleet_service.txt
echo "fleet chaos gate OK"

echo "== phase 7/8: flight-recorder drill (Release) =="
cmake --build "${perf_build}" --target pole_postmortem -j "$(nproc)"
"${perf_build}/examples/pole_postmortem" 240 /tmp/hawc_postmortem_drill.hawcpm \
  > /tmp/hawc_pole_postmortem.txt
grep -q "postmortem replay: bit-exact" /tmp/hawc_pole_postmortem.txt
grep -q "Alert poles_excluded: fired and resolved" /tmp/hawc_pole_postmortem.txt
echo "flight-recorder drill OK"

echo "== phase 8/8: corpus-container verify drill (Release) =="
cmake --build "${perf_build}" --target parity_checker -j "$(nproc)"
for corpus in clean degraded; do
  "${perf_build}/examples/parity_checker" verify "${repo_root}/data/golden/${corpus}.hwcc"
done
echo "corpus-container drill OK"
