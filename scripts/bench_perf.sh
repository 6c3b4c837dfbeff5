#!/usr/bin/env bash
# Message-plane perf snapshot: runs the substrate microbenches
# (micro_runtime, micro_gossip) and the end-to-end fig2_overall harness,
# and folds all three result sets into one BENCH_message_plane.json so CI
# can archive a perf trajectory point per commit. Smoke-sized by default
# (CI runners are noisy; the trajectory tracks shape, not absolutes) —
# pass TLB_BENCH_FULL=1 for the paper-scale fig2 configuration.
#
# Usage:
#   scripts/bench_perf.sh [build-dir] [out-json]   # defaults: build,
#                                                  # BENCH_message_plane.json
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_message_plane.json}"

if [[ ! -x "${BUILD_DIR}/bench/micro_runtime" ]]; then
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release \
    -DTLB_BUILD_BENCH=ON
  cmake --build "${BUILD_DIR}" -j "$(nproc)" \
    --target micro_runtime micro_gossip fig2_overall
fi

TMP="$(mktemp -d)"
trap 'rm -rf "${TMP}"' EXIT

# Substrate microbenches (google-benchmark JSON). The throughput filter
# covers the sequential 256/1024/4096-rank sweep and the 1-8 worker
# threaded scaling. No handler can heap-allocate: InlineHandler rejects
# any closure that does not fit inline at compile time.
"${BUILD_DIR}/bench/micro_runtime" \
  --benchmark_filter='BM_MessageThroughput' \
  --benchmark_format=json >"${TMP}/micro_runtime.json"
"${BUILD_DIR}/bench/micro_gossip" \
  --benchmark_format=json >"${TMP}/micro_gossip.json"

# End-to-end harness (paper Fig. 2). Smoke scale keeps the CI job in
# seconds; the full run reproduces the published table.
if [[ "${TLB_BENCH_FULL:-0}" == "1" ]]; then
  "${BUILD_DIR}/bench/fig2_overall" --json="${TMP}/fig2_overall.json" \
    >/dev/null
else
  "${BUILD_DIR}/bench/fig2_overall" --steps=40 --ranks-x=4 --ranks-y=4 \
    --json="${TMP}/fig2_overall.json" >/dev/null
fi

python3 - "${TMP}" "${OUT}" <<'PY'
import json
import sys

tmp, out = sys.argv[1], sys.argv[2]
doc = {"bench": "message_plane", "components": {}}
for name in ("micro_runtime", "micro_gossip", "fig2_overall"):
    with open(f"{tmp}/{name}.json", encoding="utf-8") as f:
        doc["components"][name] = json.load(f)
with open(out, "w", encoding="utf-8") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print(f"bench_perf.sh: wrote {out}")
PY
