#!/usr/bin/env bash
# Multi-process smoke test of the fleet control plane: a registry_server,
# node_server daemons that register their endpoint ranges with it, and
# clients that discover the fleet with --registry instead of a
# hand-written node map. Three legs, each against FRESH daemons (memory
# backends, so dedup state never leaks between report comparisons):
#
#   1. baseline  — static-map wiring, the report every other leg must hit
#   2. registry  — same workload discovered via --registry: REGISTERED
#                  daemons, a fleet-view client, bit-identical report,
#                  fleet_stats --registry scrape, and a membership change
#                  (daemon joins, then leaves) that a watcher client pulls
#                  within one pull interval (ttl/3, ~1.7 s)
#   3. kill      — SIGKILL the registry while a client is mid-backup: the
#                  client finishes on its cached view with the identical
#                  report, and the daemons stay up
#
# Usage: scripts/registry_smoke.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
REGISTRY="$BUILD/tools/registry_server"
NODE_SERVER="$BUILD/tools/node_server"
CLIENT="$BUILD/examples/transport_cluster"
FLEET_STATS="$BUILD/tools/fleet_stats"

for bin in "$REGISTRY" "$NODE_SERVER" "$CLIENT" "$FLEET_STATS"; do
  [[ -x "$bin" ]] || { echo "missing $bin (build first)"; exit 1; }
done

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  for pid in "${PIDS[@]:-}"; do wait "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_for() {  # $1 = pattern, $2 = file, $3 = what
  for _ in $(seq 1 150); do
    grep -q "$1" "$2" 2>/dev/null && return 0
    sleep 0.1
  done
  echo "FAIL: timed out waiting for '$1' ($3):"; cat "$2" 2>/dev/null; exit 1
}

port_from() { sed -n 's/.*READY port=\([0-9]*\).*/\1/p' "$1" | head -1; }

start_registry() {  # $1 = log file, extra args follow
  local log="$1"; shift
  "$REGISTRY" --port 0 "$@" > "$log" 2>&1 &
  PIDS+=($!)
  wait_for READY "$log" registry_server
}

start_daemon() {  # $1 = log file, $2 = first endpoint, extra args follow
  local log="$1" first="$2"; shift 2
  "$NODE_SERVER" --port 0 --nodes 2 --first-endpoint "$first" "$@" \
      > "$log" 2>&1 &
  PIDS+=($!)
  wait_for READY "$log" node_server
}

# The deterministic slice of a transport_cluster run: backup sizes,
# restore verification, dedup ratio and the Fig. 7 message counts.
report_of() {
  grep -E "^(monday|tuesday|restored|cluster dedup ratio|fingerprint)" "$1"
}

echo "== leg 1: static-map baseline (2 fresh daemons)"
start_daemon "$WORK/s1.log" 100
start_daemon "$WORK/s2.log" 102
SP1=$(port_from "$WORK/s1.log"); SP2=$(port_from "$WORK/s2.log")
NODES="127.0.0.1:$SP1:100,127.0.0.1:$SP1:101,127.0.0.1:$SP2:102,127.0.0.1:$SP2:103"
timeout 120 "$CLIENT" --tcp "$NODES" > "$WORK/baseline.log"
grep -q "(verified)" "$WORK/baseline.log" || {
  echo "FAIL: baseline restore not verified"; cat "$WORK/baseline.log"; exit 1; }
report_of "$WORK/baseline.log" > "$WORK/baseline.report"
cat "$WORK/baseline.report"

echo "== leg 2: registry-discovered fleet (fresh registry + 2 fresh daemons)"
start_registry "$WORK/reg.log"
RPORT=$(port_from "$WORK/reg.log")
start_daemon "$WORK/d1.log" 100 --registry "127.0.0.1:$RPORT"
start_daemon "$WORK/d2.log" 102 --registry "127.0.0.1:$RPORT"
grep -q "REGISTERED registry=127.0.0.1:$RPORT" "$WORK/d1.log" || {
  echo "FAIL: daemon 1 did not register"; cat "$WORK/d1.log"; exit 1; }
grep -q "REGISTERED registry=127.0.0.1:$RPORT" "$WORK/d2.log" || {
  echo "FAIL: daemon 2 did not register"; cat "$WORK/d2.log"; exit 1; }

timeout 120 "$CLIENT" --registry "127.0.0.1:$RPORT" > "$WORK/discovered.log"
grep -q "(verified)" "$WORK/discovered.log" || {
  echo "FAIL: registry-mode restore not verified"; cat "$WORK/discovered.log"; exit 1; }
# The client took its 4-node map from the fleet view.
grep -q "REGISTRY nodes=4" "$WORK/discovered.log" || {
  echo "FAIL: expected a 4-node fleet view"; cat "$WORK/discovered.log"; exit 1; }
report_of "$WORK/discovered.log" > "$WORK/discovered.report"
diff -u "$WORK/baseline.report" "$WORK/discovered.report" || {
  echo "FAIL: registry-mode report differs from static baseline"; exit 1; }
echo "registry-mode report is identical to the static baseline"

echo "== fleet_stats --registry (node map from the fleet view)"
timeout 60 "$FLEET_STATS" --registry "127.0.0.1:$RPORT" --json > "$WORK/stats.json"
python3 - "$WORK/stats.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert len(doc["daemons"]) == 2, "expected 2 daemons, got %d" % len(doc["daemons"])
served = sum(v for k, v in doc["merged"]["counters"].items()
             if k.startswith("svc.") and k.endswith(".requests_served"))
assert served > 0, "fleet served no RPCs"
print("fleet_stats --registry: %d daemons, %d requests served"
      % (len(doc["daemons"]), served))
PY

echo "== membership change reaches a watching client"
timeout 120 "$CLIENT" --registry "127.0.0.1:$RPORT" --watch-updates 2 \
    > "$WORK/watch.log" 2>&1 &
WATCH_PID=$!
PIDS+=($WATCH_PID)
wait_for "REGISTRY nodes=4" "$WORK/watch.log" "watcher view"

# A third daemon joins: the watcher's next view pull brings the grown
# view.
start_daemon "$WORK/d3.log" 104 --registry "127.0.0.1:$RPORT"
D3_PID=${PIDS[-1]}
wait_for "FLEET-UPDATE.*nodes=6" "$WORK/watch.log" "join observed"

# ...and leaves cleanly (SIGTERM): the shrunken view is pulled the same way.
kill "$D3_PID"
wait_for "FLEET-UPDATE.*nodes=4" "$WORK/watch.log" "leave observed"
wait "$WATCH_PID" || {
  echo "FAIL: watcher client failed"; cat "$WORK/watch.log"; exit 1; }
echo "watcher saw both membership changes:"
grep FLEET-UPDATE "$WORK/watch.log"

echo "== leg 3: SIGKILL the registry mid-backup (fresh registry + daemons)"
start_registry "$WORK/reg2.log" --ttl-ms 1000
R2PORT=$(port_from "$WORK/reg2.log")
R2_PID=${PIDS[-1]}
start_daemon "$WORK/k1.log" 100 --registry "127.0.0.1:$R2PORT"
K1_PID=${PIDS[-1]}
start_daemon "$WORK/k2.log" 102 --registry "127.0.0.1:$R2PORT"
K2_PID=${PIDS[-1]}

timeout 120 "$CLIENT" --registry "127.0.0.1:$R2PORT" > "$WORK/killed.log" 2>&1 &
KCLIENT_PID=$!
PIDS+=($KCLIENT_PID)
# The REGISTRY line is flushed the moment the client holds its cached
# view — kill the registry before the backup finishes.
wait_for "REGISTRY nodes=4" "$WORK/killed.log" "client view"
kill -9 "$R2_PID"
wait "$KCLIENT_PID" || {
  echo "FAIL: client died after the registry was killed"; cat "$WORK/killed.log"; exit 1; }
grep -q "(verified)" "$WORK/killed.log" || {
  echo "FAIL: restore not verified after registry kill"; cat "$WORK/killed.log"; exit 1; }
report_of "$WORK/killed.log" > "$WORK/killed.report"
diff -u "$WORK/baseline.report" "$WORK/killed.report" || {
  echo "FAIL: post-kill report differs from static baseline"; exit 1; }
# The data plane outlived its control plane.
kill -0 "$K1_PID" 2>/dev/null || { echo "FAIL: daemon 1 died"; exit 1; }
kill -0 "$K2_PID" 2>/dev/null || { echo "FAIL: daemon 2 died"; exit 1; }
echo "client finished bit-identically on the cached view; daemons still up"

echo "== registry smoke OK"
