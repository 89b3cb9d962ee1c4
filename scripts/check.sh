#!/usr/bin/env bash
# One-command verification: tier-1 build + full ctest, then the `stress`
# labeled suite rebuilt under ThreadSanitizer, then the fuzz smoke suite
# plus a short differential-fuzz burst rebuilt under AddressSanitizer
# (see ROADMAP.md).
#
#   scripts/check.sh            # full: tier-1 ctest + TSan stress + ASan fuzz
#   scripts/check.sh --smoke    # quick sanity on already-built binaries:
#                               # stress suite and fixed-seed fuzz smoke; no
#                               # reconfigure, no sanitizer rebuild
#
# The smoke mode is also registered as a CTest test (label `smoke`):
#   ctest -L smoke
# It deliberately avoids invoking ctest itself so it can run from inside it.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${AJR_BUILD_DIR:-${ROOT}/build}"
BUILD_TSAN="${AJR_TSAN_BUILD_DIR:-${ROOT}/build-tsan}"
BUILD_ASAN="${AJR_ASAN_BUILD_DIR:-${ROOT}/build-asan}"
JOBS="$(nproc 2>/dev/null || echo 4)"

smoke=0
for arg in "$@"; do
  case "$arg" in
    --smoke) smoke=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

if [[ "$smoke" == 1 ]]; then
  # Runs built binaries directly (no ctest recursion, no rebuild): the
  # stress suite shakes the runtime, and the fuzz smoke suite replays the
  # fixed-seed differential band and the injected-bug oracle self-tests.
  echo "== smoke: runtime stress suite (unsanitized) =="
  "${BUILD}/tests/engine_stress_test" --gtest_brief=1
  echo
  echo "== smoke: differential-fuzz fixed seeds + oracle self-test =="
  "${BUILD}/tests/fuzz_smoke_test" --gtest_brief=1
  echo
  echo "smoke check OK"
  exit 0
fi

echo "== tier-1: configure + build (${BUILD}) =="
cmake -B "${BUILD}" -S "${ROOT}" >/dev/null
cmake --build "${BUILD}" -j "${JOBS}"

echo
echo "== tier-1: full ctest =="
ctest --test-dir "${BUILD}" -j "${JOBS}" --output-on-failure

echo
echo "== stress under ThreadSanitizer (${BUILD_TSAN}) =="
cmake -B "${BUILD_TSAN}" -S "${ROOT}" -DAJR_SANITIZE=thread >/dev/null
cmake --build "${BUILD_TSAN}" -j "${JOBS}" --target engine_stress_test \
  fuzz_cancel_test parallel_executor_test wide_join_test shared_stress_test
ctest --test-dir "${BUILD_TSAN}" -L stress --output-on-failure

echo
echo "== fuzz under AddressSanitizer (${BUILD_ASAN}) =="
cmake -B "${BUILD_ASAN}" -S "${ROOT}" -DAJR_SANITIZE=address >/dev/null
cmake --build "${BUILD_ASAN}" -j "${JOBS}" --target fuzz_smoke_test \
  fuzz_differential
"${BUILD_ASAN}/tests/fuzz_smoke_test" --gtest_brief=1
"${BUILD_ASAN}/tests/fuzz_differential" --count 100 --jobs "${JOBS}"
"${BUILD_ASAN}/tests/fuzz_differential" --count 40 --wide --jobs "${JOBS}"
"${BUILD_ASAN}/tests/fuzz_differential" --count 60 --share --jobs "${JOBS}"

echo
echo "all checks OK"
