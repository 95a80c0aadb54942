#!/usr/bin/env bash
# Tier-1 verify: full build + test suite, exactly as CI runs it, plus the
# multi-process TCP smoke test (node_server daemons + client over sockets),
# the persistence smoke test (file-backed daemons: store, SIGKILL, restart,
# recover, read back), a clang-tidy pass (skipped when the tool is absent),
# and two sanitizer lanes — ASan+UBSan and TSan+lock-ranks, both over the
# full test suite, TSan additionally over both smoke tests (set
# SIGMA_SKIP_SANITIZERS=1 to skip the sanitizer lanes for a quick local
# run).
set -euo pipefail
cd "$(dirname "$0")"

cmake -B build -S .
cmake --build build -j"$(nproc)"
ctest --output-on-failure -j"$(nproc)" --test-dir build

scripts/tcp_smoke.sh build
scripts/persist_smoke.sh build
scripts/registry_smoke.sh build

# Static analysis (no-op exit 0 on machines without clang-tidy).
scripts/run_clang_tidy.sh build

# The gate benches must run end-to-end (small scale) and emit valid
# machine-readable BENCH_<name>.json documents; the pipeline bench must
# also carry the metrics-plane and tracing-plane overhead A/B numbers,
# and the tracing overhead (default 1/256 sampling vs off) is gated at
# 2% — the trace plane must stay invisible when it isn't being read.
# CI sets SIGMA_BENCH_JSON_DIR so the BENCH_*.json files survive as
# uploaded artifacts; standalone runs use (and clean up) a temp dir.
if [[ -n "${SIGMA_BENCH_JSON_DIR:-}" ]]; then
  BENCH_OUT="$SIGMA_BENCH_JSON_DIR"
  mkdir -p "$BENCH_OUT"
else
  BENCH_OUT="$(mktemp -d /tmp/sigma-bench.XXXXXX)"
  trap 'rm -rf "$BENCH_OUT"' EXIT
fi
for b in fig_probe_latency fig_transport_pipeline fig7_messages \
         fig4a_client_throughput table2_workloads; do
  SIGMA_BENCH_SCALE="${SIGMA_BENCH_SCALE:-0.05}" \
      SIGMA_BENCH_JSON_DIR="$BENCH_OUT" "./build/bench/bench_$b"
done
python3 scripts/check_bench_json.py "$BENCH_OUT/BENCH_fig_probe_latency.json"
python3 scripts/check_bench_json.py "$BENCH_OUT/BENCH_fig7_messages.json"
python3 scripts/check_bench_json.py \
    "$BENCH_OUT/BENCH_fig4a_client_throughput.json"
python3 scripts/check_bench_json.py "$BENCH_OUT/BENCH_table2_workloads.json"
python3 scripts/check_bench_json.py \
    --require-metric metrics_off_mbps \
    --require-metric metrics_on_mbps \
    --require-metric metrics_overhead_pct \
    --require-metric trace_off_mbps \
    --require-metric trace_on_mbps \
    --max-metric trace_overhead_pct=2.0 \
    "$BENCH_OUT/BENCH_fig_transport_pipeline.json"

# Perf trajectory: append this run's numbers to bench/trend/trend.jsonl
# (keyed by commit + host + scale) and fail on a >20% throughput drop
# against the best comparable recorded run. The ledger is committed, so
# the repo carries its own performance history.
python3 scripts/bench_trend.py "$BENCH_OUT"/BENCH_*.json

if [[ "${SIGMA_SKIP_SANITIZERS:-0}" != "1" ]]; then
  # The transport/service stack is poll loops, pending-call handoffs and
  # shared write queues — exactly where the sanitizers earn their keep.
  cmake -B build-asan -S . -DSIGMA_SANITIZE=address,undefined \
      -DSIGMA_BUILD_BENCH=OFF -DSIGMA_BUILD_EXAMPLES=OFF
  cmake --build build-asan -j"$(nproc)"
  ctest --output-on-failure -j"$(nproc)" --test-dir build-asan

  # TSan lane: the full suite plus both multi-process smoke tests, with
  # the runtime lock-rank checker armed. tsan.supp carries documented
  # benign suppressions only (empty unless annotated otherwise) — a
  # report here is a real race, fix it rather than suppress it.
  cmake -B build-tsan -S . -DSIGMA_SANITIZE=thread -DSIGMA_LOCK_RANKS=ON \
      -DSIGMA_BUILD_BENCH=OFF
  cmake --build build-tsan -j"$(nproc)"
  TSAN_OPTIONS="suppressions=$PWD/tsan.supp halt_on_error=1" \
      ctest --output-on-failure -j"$(nproc)" --test-dir build-tsan
  TSAN_OPTIONS="suppressions=$PWD/tsan.supp halt_on_error=1" \
      scripts/tcp_smoke.sh build-tsan
  TSAN_OPTIONS="suppressions=$PWD/tsan.supp halt_on_error=1" \
      scripts/persist_smoke.sh build-tsan
  TSAN_OPTIONS="suppressions=$PWD/tsan.supp halt_on_error=1" \
      scripts/registry_smoke.sh build-tsan
fi
