#!/usr/bin/env bash
# Static lint gate, two layers:
#
#   1. clang-tidy (config in .clang-tidy) over the library sources against
#      a compile_commands.json. Degrades gracefully — skips with a notice —
#      when clang-tidy is not installed (e.g. the gcc-only dev container);
#      CI installs clang-tidy and enforces it.
#   2. tlb_lint (tools/tlb_lint), the in-tree analyzer for project rules
#      clang-tidy cannot express (determinism, locking discipline, SBO
#      hygiene). It has no external dependency, so it ALWAYS runs — a
#      missing clang-tidy never waives it.
#
# Usage:
#   scripts/lint.sh [build-dir]
#
# The build dir must have been configured by CMake (any options); the
# top-level CMakeLists.txt always exports compile_commands.json. If the
# build dir is missing, a lint-only tree is configured at build-lint/.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  BUILD_DIR=build-lint
  echo "lint.sh: no configured build dir; configuring ${BUILD_DIR}/" >&2
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTLB_BUILD_BENCH=OFF -DTLB_BUILD_EXAMPLES=OFF >/dev/null
fi

TIDY="${CLANG_TIDY:-}"
if [[ -z "${TIDY}" ]]; then
  for candidate in clang-tidy clang-tidy-18 clang-tidy-17 clang-tidy-16 \
                   clang-tidy-15 clang-tidy-14; do
    if command -v "${candidate}" >/dev/null 2>&1; then
      TIDY="${candidate}"
      break
    fi
  done
fi
if [[ -z "${TIDY}" ]]; then
  echo "lint.sh: clang-tidy not found; skipping tidy layer (install" \
       "clang-tidy or set CLANG_TIDY to enforce it)" >&2
else
  # Library sources are the gate; tests/bench/examples are covered by
  # -Wall -Wextra -Werror in CI instead (gtest/benchmark macros trip too
  # many tidy checks to keep the signal clean).
  mapfile -t sources < <(find src -name '*.cpp' | sort)
  echo "lint.sh: ${TIDY} over ${#sources[@]} sources (db: ${BUILD_DIR})" >&2
  "${TIDY}" -p "${BUILD_DIR}" --quiet "${sources[@]}"
  echo "lint.sh: clang-tidy clean" >&2
fi

echo "lint.sh: building tlb_lint" >&2
cmake --build "${BUILD_DIR}" --target tlb_lint -- -j "$(nproc)" >/dev/null
# tlb_lint walks every compiled tree: most rules are scoped to src/, but
# no-removed-gate also guards tests/, bench/ and examples/.
"${BUILD_DIR}/tools/tlb_lint/tlb_lint" --root . src tests bench examples
echo "lint.sh: tlb_lint clean" >&2
