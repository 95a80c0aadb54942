#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

Runs one short linux-versions benchmark with one restored byte flipped
(run.py --corrupt-restore) and checks that the run is reported incorrect,
counts the failed restore and exits non-zero; then runs the same seed
untouched and checks that it passes. Run from the repository root:

  python3 fleetbench/test_gate.py

Exits 0 when both checks hold.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def bench(*extra):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "linux-versions", "--seed", "7",
         "--seconds", "1", "--trace", "0", *extra],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    problems = []
    code, result = bench("--corrupt-restore")
    if result is None:
        problems.append("corrupted run printed no result")
    else:
        if code == 0:
            problems.append("corrupted run exited 0")
        if result["correct"]:
            problems.append("corrupted run reported correct")
        if result["failed"] < 1:
            problems.append("corrupted run counted no failed operation")
    code, result = bench()
    if code != 0 or result is None or not result["correct"] \
            or result["failed"] != 0:
        problems.append("clean run did not pass (exit %s, result %s)"
                        % (code, result))
    for p in problems:
        print("test_gate: FAIL " + p, file=sys.stderr)
    if not problems:
        print("test_gate: ok (a flipped byte fails the run; a clean run "
              "passes)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
