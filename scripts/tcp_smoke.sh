#!/usr/bin/env bash
# Multi-process smoke test: launch two node_server daemons on localhost
# ephemeral ports (4 nodes total), run a backup + restore through them
# over TCP with transport_cluster, check the restore verifies, scrape
# the fleet's metrics plane with fleet_stats --json (RPCs were served,
# zero handshake failures), then run a fully-traced backup (sample 1),
# merge the daemons' flight recorders + the client's exit dump with
# fleet_trace, and gate the Chrome trace JSON: parseable, and at least
# one trace stitched across 2+ OS processes with resolvable parent edges.
# Usage: scripts/tcp_smoke.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
NODE_SERVER="$BUILD/tools/node_server"
CLIENT="$BUILD/examples/transport_cluster"
BENCH="$BUILD/bench/bench_fig_transport_pipeline"

[[ -x "$NODE_SERVER" ]] || { echo "missing $NODE_SERVER (build first)"; exit 1; }
[[ -x "$CLIENT" ]] || { echo "missing $CLIENT (build first)"; exit 1; }

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  for pid in "${PIDS[@]:-}"; do wait "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

start_daemon() {  # $1 = log file, $2 = first endpoint id
  "$NODE_SERVER" --port 0 --nodes 2 --first-endpoint "$2" \
      --trace-dump "$1.trace.bin" \
      > "$1" 2>&1 &
  PIDS+=($!)
  for _ in $(seq 1 100); do
    grep -q READY "$1" 2>/dev/null && return 0
    sleep 0.1
  done
  echo "daemon failed to start:"; cat "$1"; exit 1
}

echo "== starting 2 node_server daemons (2 nodes each)"
start_daemon "$WORK/d1.log" 100
start_daemon "$WORK/d2.log" 102
P1=$(sed -n 's/.*port=\([0-9]*\).*/\1/p' "$WORK/d1.log")
P2=$(sed -n 's/.*port=\([0-9]*\).*/\1/p' "$WORK/d2.log")
NODES="127.0.0.1:$P1:100,127.0.0.1:$P1:101,127.0.0.1:$P2:102,127.0.0.1:$P2:103"
echo "== fleet: $NODES"

echo "== backup + restore over TCP"
# --trace-sample 0: this client never dumps its flight recorder, so any
# trace it started would show up daemon-side only (dangling by design);
# the traced run below is the one the trace gate inspects.
OUT=$(timeout 120 "$CLIENT" --trace-sample 0 --tcp "$NODES")
echo "$OUT"
grep -q "(verified)" <<< "$OUT" || { echo "FAIL: restore not verified"; exit 1; }

echo "== scraping the live fleet with fleet_stats --json"
FLEET_STATS="$BUILD/tools/fleet_stats"
[[ -x "$FLEET_STATS" ]] || { echo "missing $FLEET_STATS (build first)"; exit 1; }
timeout 60 "$FLEET_STATS" --nodes "$NODES" --json > "$WORK/stats.json"
python3 - "$WORK/stats.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert len(doc["daemons"]) == 2, "expected 2 daemons, got %d" % len(doc["daemons"])
merged = doc["merged"]["counters"]
served = sum(v for k, v in merged.items()
             if k.startswith("svc.") and k.endswith(".requests_served"))
assert served > 0, "fleet served no RPCs: %r" % merged
assert merged.get("tcp.handshake_failures", 0) == 0, \
    "handshake failures: %r" % merged.get("tcp.handshake_failures")
print("fleet_stats: %d daemons, %d requests served, 0 handshake failures"
      % (len(doc["daemons"]), served))
PY

echo "== traced backup (sample=1) + fleet_trace merge"
FLEET_TRACE="$BUILD/tools/fleet_trace"
[[ -x "$FLEET_TRACE" ]] || { echo "missing $FLEET_TRACE (build first)"; exit 1; }
SIGMA_TRACE_DUMP="$WORK/client-trace.bin" \
    timeout 120 "$CLIENT" --trace-sample 1 --tcp "$NODES" > /dev/null
[[ -s "$WORK/client-trace.bin" ]] || { echo "FAIL: client wrote no trace dump"; exit 1; }

# SIGUSR2 asks a daemon for its flight recorder without disturbing it.
kill -USR2 "${PIDS[0]}"
for _ in $(seq 1 100); do
  grep -q "TRACE (SIGUSR2)" "$WORK/d1.log" 2>/dev/null && break
  sleep 0.1
done
grep -q "TRACE (SIGUSR2)" "$WORK/d1.log" || { echo "FAIL: no SIGUSR2 dump"; exit 1; }
[[ -s "$WORK/d1.log.trace.bin" ]] || { echo "FAIL: SIGUSR2 dump file empty"; exit 1; }

timeout 60 "$FLEET_TRACE" --nodes "$NODES" --local "$WORK/client-trace.bin" \
    --out "$WORK/trace.json"
python3 scripts/check_trace_json.py --require-cross-process "$WORK/trace.json"

# The SIGUSR2 file is the same format fleet_trace merges via --local.
timeout 60 "$FLEET_TRACE" --local "$WORK/d1.log.trace.bin" \
    --local "$WORK/client-trace.bin" --out "$WORK/trace-local.json"
python3 scripts/check_trace_json.py --require-cross-process "$WORK/trace-local.json"

if [[ -x "$BENCH" ]]; then
  echo "== pipeline bench over TCP (depth 4, small scale)"
  SIGMA_BENCH_SCALE="${SIGMA_BENCH_SCALE:-0.1}" SIGMA_BENCH_JSON_DIR="$WORK" \
      timeout 600 "$BENCH" --tcp "$NODES" --depth 4
  # The bench ran against the daemons and wrote its JSON.
  python3 scripts/check_bench_json.py \
      --require-metric depth4.mbps \
      "$WORK/BENCH_fig_transport_pipeline.json"
fi

echo "== tcp smoke OK"
