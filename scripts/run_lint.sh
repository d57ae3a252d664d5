#!/usr/bin/env bash
# Static-analysis gate, exactly what the CI `lint` job runs:
#   1. build nova-lint and its self-tests (the targets `ctest -L lint`
#      needs) and run the tool over src/, tests/, bench/, examples/ and
#      tools/ (non-zero exit on any unsuppressed finding). Per-root rule
#      sets via --roots keep the determinism rule scoped to the
#      simulated-machine sources; everything else runs everywhere.
#   2. re-run with --json and check the report schema (key presence,
#      zero count) so downstream consumers can rely on its shape;
#   3. if clang-tidy is installed, run the .clang-tidy checks over src/
#      (advisory by default: set LINT_TIDY_STRICT=1 to make it fatal,
#      since CI images do not all ship clang-tidy).
# Discarded [[nodiscard]] results and partial enum switches are compile
# errors in every build (top-level CMakeLists.txt), so compiling the
# tree is the build-and-test job's business, not this gate's.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build-lint}"

cmake -B "${BUILD_DIR}" -S .
cmake --build "${BUILD_DIR}" -j "$(nproc)" \
  --target nova_lint nova_lint_test nova_lint_model_test

LINT_ROOTS='src;tests=-determinism;bench=-determinism;examples=-determinism;tools=-determinism'

echo "== nova-lint =="
"${BUILD_DIR}/tools/nova_lint/nova_lint" --roots="${LINT_ROOTS}"

echo "== nova-lint --json schema =="
json="$("${BUILD_DIR}/tools/nova_lint/nova_lint" --json --roots="${LINT_ROOTS}")"
for key in '"findings":' '"count":0' '"suppressed":' '"baselined":' \
           '"files_scanned":' '"wall_ms":'; do
  if ! grep -qF "${key}" <<< "${json}"; then
    echo "nova-lint --json is missing ${key}" >&2
    exit 1
  fi
done

if command -v clang-tidy > /dev/null 2>&1; then
  echo "== clang-tidy =="
  # compile_commands.json is produced by the export flag; limit to src/.
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON > /dev/null
  mapfile -t tidy_files < <(find src -name '*.cc')
  if ! clang-tidy -p "${BUILD_DIR}" "${tidy_files[@]}"; then
    if [[ "${LINT_TIDY_STRICT:-0}" == "1" ]]; then
      exit 1
    fi
    echo "clang-tidy reported issues (advisory; LINT_TIDY_STRICT=1 to fail)"
  fi
else
  echo "clang-tidy not installed; skipping (.clang-tidy lists the checks)"
fi

echo "lint gate passed"
