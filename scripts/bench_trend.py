#!/usr/bin/env python3
"""Append bench results to the perf-trajectory ledger and gate regressions.

Every CI run feeds its BENCH_<name>.json files (see bench_util.h) through
this script. Each file becomes one JSONL entry in bench/trend/trend.jsonl:

  {"sha": "<git sha>", "when": "<ISO-8601 UTC>",
   "host": "<machine>/<N>cpu", "bench": "<name>",
   "params": {...}, "metrics": {...}}

so the repo's performance over time is data in the repo, not terminal
scrollback. The ledger then gates: for every throughput metric (a name
ending in "mbps", "per_sec" or "per_s" — higher is better), the new value
is compared against the best previously recorded value from a comparable
run (same bench, same host key, same "scale" and "transport" params). A
drop of more than --threshold percent (default 20) fails the run.

Comparisons never cross host keys, scales or transports — a laptop ledger
entry can't fail a CI runner, a scale-1.0 record can't fail a scale-0.05
smoke, and an in-process transport's record can't fail a TCP run.
New entries are appended BEFORE gating (a regressed run is still part of
the trajectory; appending it never lowers the recorded best, which is a
max over history).

Usage:
  bench_trend.py [--trend FILE] [--sha SHA] [--when ISO] [--host KEY]
                 [--threshold PCT] [--record-only] FILE [FILE...]

  --trend FILE     ledger path (default bench/trend/trend.jsonl relative
                   to the repo root this script lives in)
  --sha SHA        override the recorded commit (default: git rev-parse
                   HEAD, "unknown" outside a checkout)
  --when ISO       override the recorded timestamp (default: now, UTC)
  --host KEY       override the host key (default: platform machine +
                   cpu count)
  --threshold PCT  regression tolerance in percent (default 20)
  --record-only    append entries but skip the regression gate (seeding
                   a ledger from historical results)
"""
import json
import math
import os
import platform
import subprocess
import sys
import time

THROUGHPUT_SUFFIXES = ("mbps", "per_sec", "per_s")


def default_host_key():
    return "%s/%dcpu" % (platform.machine() or "unknown",
                         os.cpu_count() or 1)


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def is_throughput_metric(name):
    return name.lower().endswith(THROUGHPUT_SUFFIXES)


def load_bench(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or not isinstance(doc.get("bench"), str):
        raise ValueError("not a bench result (missing \"bench\")")
    if not isinstance(doc.get("metrics"), dict) or not doc["metrics"]:
        raise ValueError("no metrics")
    return doc


def comparable(entry, bench, host, params):
    recorded = entry.get("params") or {}
    return (entry.get("bench") == bench
            and entry.get("host") == host
            and recorded.get("scale") == params.get("scale")
            and recorded.get("transport") == params.get("transport"))


def main(argv):
    repo_root = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    trend_path = os.path.join(repo_root, "bench", "trend", "trend.jsonl")
    sha = None
    when = None
    host = None
    threshold = 20.0
    record_only = False
    files = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg in ("--trend", "--sha", "--when", "--host", "--threshold"):
            if i + 1 >= len(argv):
                print("bench_trend: %s needs a value" % arg, file=sys.stderr)
                return 2
            value = argv[i + 1]
            if arg == "--trend":
                trend_path = value
            elif arg == "--sha":
                sha = value
            elif arg == "--when":
                when = value
            elif arg == "--host":
                host = value
            else:
                try:
                    threshold = float(value)
                except ValueError:
                    print("bench_trend: bad --threshold %r" % value,
                          file=sys.stderr)
                    return 2
            i += 2
        elif arg == "--record-only":
            record_only = True
            i += 1
        elif arg in ("--help", "-h"):
            print(__doc__.strip())
            return 0
        else:
            files.append(arg)
            i += 1
    if not files:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    sha = sha or git_sha()
    when = when or time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    host = host or default_host_key()

    # Read the existing ledger (tolerating a missing file: first run).
    history = []
    if os.path.exists(trend_path):
        with open(trend_path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    history.append(json.loads(line))
                except ValueError:
                    print("bench_trend: %s:%d: unparsable entry skipped"
                          % (trend_path, lineno), file=sys.stderr)

    new_entries = []
    failures = []
    for path in files:
        try:
            doc = load_bench(path)
        except (OSError, ValueError) as e:
            print("bench_trend: %s: %s" % (path, e), file=sys.stderr)
            return 1
        bench = doc["bench"]
        params = doc.get("params") or {}
        metrics = doc["metrics"]
        scale = params.get("scale")
        transport = params.get("transport")

        entry = {"sha": sha, "when": when, "host": host, "bench": bench,
                 "params": params, "metrics": metrics}
        new_entries.append(entry)

        if record_only:
            continue
        # Gate each throughput metric against the best comparable record.
        for name, value in metrics.items():
            if not is_throughput_metric(name):
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            if not math.isfinite(value):
                continue
            best = None
            best_sha = None
            for old in history:
                if not comparable(old, bench, host, params):
                    continue
                old_value = (old.get("metrics") or {}).get(name)
                if not isinstance(old_value, (int, float)) \
                        or isinstance(old_value, bool) \
                        or not math.isfinite(old_value):
                    continue
                if best is None or old_value > best:
                    best = old_value
                    best_sha = old.get("sha", "?")
            if best is None or best <= 0:
                # A silently-skipped gate looks exactly like a passing one
                # in CI logs — say out loud that this metric had nothing
                # comparable to regress against (new bench, new host key,
                # a changed scale or transport) and that this run seeds
                # the ledger.
                print("bench_trend: NOTICE: %s %s has no comparable best "
                      "(host %s, scale %s, transport %s) — regression "
                      "gate skipped, this run seeds the ledger"
                      % (bench, name, host, scale, transport),
                      file=sys.stderr)
                continue
            drop_pct = (best - value) / best * 100.0
            if drop_pct > threshold:
                failures.append(
                    "%s %s: %.4g is %.1f%% below recorded best %.4g "
                    "(sha %s, host %s, scale %s, transport %s)"
                    % (bench, name, value, drop_pct, best,
                       (best_sha or "?")[:12], host, scale, transport))

    os.makedirs(os.path.dirname(trend_path), exist_ok=True)
    with open(trend_path, "a", encoding="utf-8") as f:
        for entry in new_entries:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
    print("bench_trend: recorded %d result(s) at %s (sha %s)"
          % (len(new_entries), trend_path, sha[:12]))

    if failures:
        for msg in failures:
            print("bench_trend: REGRESSION: " + msg, file=sys.stderr)
        print("bench_trend: %d metric(s) regressed more than %.0f%% "
              "against bench/trend/trend.jsonl" % (len(failures), threshold),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
