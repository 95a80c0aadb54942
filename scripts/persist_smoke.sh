#!/usr/bin/env bash
# Persistence smoke test (multi-process): run a backup + restore through
# file-backed node_server daemons, SIGKILL the daemons, restart them on
# the same data directories, and check that
#   (a) startup recovery (rebuild_indexes) reports exactly the sealed
#       containers found on disk, and
#   (b) the full client flow verifies against the recovered fleet;
# then a SIGTERM leg: a clean shutdown flushes and the fleet comes back
# with at least as many containers.
# Usage: scripts/persist_smoke.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
NODE_SERVER="$BUILD/tools/node_server"
CLIENT="$BUILD/examples/transport_cluster"

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

start_daemon() {  # $1 = log file, $2 = first endpoint id, $3 = data dir
  # Default policy (fsync on seal): the smoke drills the durable path.
  "$NODE_SERVER" --port 0 --nodes 2 --first-endpoint "$2" \
      --backend file --data-dir "$3" --container-mb 1 \
      > "$1" 2>&1 &
  PIDS+=($!)
  for _ in $(seq 1 100); do
    grep -q READY "$1" 2>/dev/null && return 0
    sleep 0.1
  done
  echo "daemon failed to start:"; cat "$1"; exit 1
}

start_fleet() {  # $1 = log suffix
  PIDS=()
  start_daemon "$WORK/d1-$1.log" 100 "$WORK/data1"
  start_daemon "$WORK/d2-$1.log" 102 "$WORK/data2"
  P1=$(sed -n 's/.*port=\([0-9]*\).*/\1/p' "$WORK/d1-$1.log")
  P2=$(sed -n 's/.*port=\([0-9]*\).*/\1/p' "$WORK/d2-$1.log")
  NODES="127.0.0.1:$P1:100,127.0.0.1:$P1:101,127.0.0.1:$P2:102,127.0.0.1:$P2:103"
}

count_disk_containers() {
  find "$WORK/data1" "$WORK/data2" -type f -name 'container-*' \
      ! -name '*.inprogress' | wc -l
}

# Each node directory holds its sealed container blobs and its manifest,
# nothing else: one file per container.
check_node_dirs() {  # $1 = when
  local dirs stray
  dirs=$(find "$WORK/data1" "$WORK/data2" -type d -name 'node-*' | wc -l)
  [[ "$dirs" -gt 0 ]] || { echo "FAIL: no node-* directories $1"; exit 1; }
  stray=$(find "$WORK/data1" "$WORK/data2" -regextype posix-extended \
      -path '*/node-*/*' -type f \
      ! -regex '.*/container-[0-9]+' \
      ! -name node.manifest)
  [[ -z "$stray" ]] || {
    echo "FAIL: unexpected files in node directories $1:"; echo "$stray";
    exit 1; }
}

sum_recovered() {  # $1 = log suffix
  sed -n 's/.*RECOVERED .*containers=\([0-9]*\).*/\1/p' \
      "$WORK/d1-$1.log" "$WORK/d2-$1.log" | awk '{s += $1} END {print s + 0}'
}

echo "== starting 2 file-backed node_server daemons (2 nodes each)"
start_fleet run1
echo "== fleet: $NODES"

echo "== backup + restore over TCP (run 1: everything stored fresh)"
OUT=$(timeout 120 "$CLIENT" --tcp "$NODES")
echo "$OUT"
grep -q "(verified)" <<< "$OUT" || { echo "FAIL: restore not verified"; exit 1; }

echo "== SIGKILL the fleet"
for pid in "${PIDS[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
for pid in "${PIDS[@]}"; do wait "$pid" 2>/dev/null || true; done

ON_DISK=$(count_disk_containers)
echo "== sealed containers on disk after kill: $ON_DISK"
[[ "$ON_DISK" -gt 0 ]] || { echo "FAIL: nothing was persisted"; exit 1; }
check_node_dirs "after run 1"

echo "== restarting the fleet on the same data dirs"
start_fleet run2
RECOVERED=$(sum_recovered run2)
echo "== recovery reported $RECOVERED containers"
[[ "$RECOVERED" -eq "$ON_DISK" ]] || {
  echo "FAIL: recovered $RECOVERED != $ON_DISK on disk";
  cat "$WORK"/d*-run2.log; exit 1; }
check_node_dirs "after recovery"

echo "== backup + restore over TCP (run 2: against recovered state)"
OUT=$(timeout 120 "$CLIENT" --tcp "$NODES")
echo "$OUT"
grep -q "(verified)" <<< "$OUT" || { echo "FAIL: restore not verified after recovery"; exit 1; }

echo "== scraping the recovered fleet with fleet_stats --json"
FLEET_STATS="$BUILD/tools/fleet_stats"
[[ -x "$FLEET_STATS" ]] || { echo "missing $FLEET_STATS (build first)"; exit 1; }
timeout 60 "$FLEET_STATS" --nodes "$NODES" --json > "$WORK/stats.json"
python3 - "$WORK/stats.json" "$RECOVERED" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
expected_recovered = int(sys.argv[2])
merged = doc["merged"]["counters"]
served = sum(v for k, v in merged.items()
             if k.startswith("svc.") and k.endswith(".requests_served"))
assert served > 0, "fleet served no RPCs: %r" % merged
assert merged.get("tcp.handshake_failures", 0) == 0, \
    "handshake failures: %r" % merged.get("tcp.handshake_failures")
recovered = sum(v for k, v in merged.items()
                if k.startswith("recovery.")
                and k.endswith(".containers_recovered"))
assert recovered == expected_recovered, \
    "scrape says %d containers recovered, logs said %d" \
    % (recovered, expected_recovered)
print("fleet_stats: %d requests served, %d containers recovered via scrape"
      % (served, recovered))
PY

echo "== SIGTERM the fleet (clean shutdown must flush)"
for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
for pid in "${PIDS[@]}"; do wait "$pid" 2>/dev/null || true; done

ON_DISK2=$(count_disk_containers)
[[ "$ON_DISK2" -ge "$ON_DISK" ]] || {
  echo "FAIL: containers shrank across clean shutdown"; exit 1; }

echo "== restarting once more after clean shutdown"
start_fleet run3
RECOVERED3=$(sum_recovered run3)
[[ "$RECOVERED3" -eq "$ON_DISK2" ]] || {
  echo "FAIL: recovered $RECOVERED3 != $ON_DISK2 on disk";
  cat "$WORK"/d*-run3.log; exit 1; }

echo "== persist smoke OK ($RECOVERED recovered after SIGKILL, $RECOVERED3 after SIGTERM)"
