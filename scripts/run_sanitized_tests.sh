#!/usr/bin/env bash
# Build the test suite with ASan+UBSan (NOVA_SANITIZE=ON) in a separate
# build tree and run it. Any sanitizer report fails the run.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build-asan}"

cmake -B "${BUILD_DIR}" -S . -DNOVA_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug
cmake --build "${BUILD_DIR}" -j "$(nproc)"

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
# The bench golden diffs (label `golden`) run in the plain build only.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" -LE golden
