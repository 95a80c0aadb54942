#!/usr/bin/env python3
"""Fleet benchmark entry point: build, run one workload, print the result.

Usage (from the repository root):
  python3 fleetbench/run.py --workload linux-versions --seed 1 --seconds 25 --trace 0

Builds the library, the node_server daemon and the fleet_bench client from
this checkout into $CARGO_TARGET_DIR/fleetbench (default
.bench_build/fleetbench), then runs fleet_bench, which starts and stops its
own daemons under .bench_run/. With --trace 1 the client's span file is
validated with scripts/check_trace_json.py.

The last stdout line is the result JSON
  {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
and the exit code is 0 only when the run was correct. Build output and
progress go to stderr. Without the repository's sources beside it the
script exits 2 and prints no result.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("linux-versions", "vm-fulls", "multi-stream")
# Generation, set-up and the round that overruns --seconds come on top.
RUN_SLACK_S = 150


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build incrementally; returns the binary paths."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "fleet_bench", "node_server"],
                   check=True, stdout=sys.stderr)
    return (os.path.join(build_dir, "fleet_bench"),
            os.path.join(build_dir, "tools", "node_server"))


def run_client(cmd, timeout_s):
    """Run the client in its own process group; whatever happens, kill
    the group (the client and any daemon it left) and reap it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log("client timed out after %ds" % timeout_s)
        out = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-restore", action="store_true",
                    help="gate self-test: flip one restored byte")
    args = ap.parse_args()

    for needed in ("CMakeLists.txt", "src", "tools", "scripts"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log("repository sources not found (%s missing beside %s)"
                % (needed, HERE))
            return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "fleetbench")
    # Compiler and client temporaries stay inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    os.environ["TMPDIR"] = tmp_dir
    try:
        client, node_server = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 2

    work_dir = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    trace_out = os.path.join(work_dir, "spans.json")
    cmd = [client, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--node-server", node_server, "--work-dir", work_dir]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    if args.corrupt_restore:
        cmd.append("--corrupt-restore")
    try:
        code, out = run_client(cmd, args.seconds + RUN_SLACK_S)
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        if result is None:
            log("client exited %s without a result" % code)
            return 1
        if args.trace and result["correct"]:
            check = subprocess.run(
                [sys.executable,
                 os.path.join(ROOT, "scripts", "check_trace_json.py"),
                 trace_out], stdout=sys.stderr)
            if check.returncode != 0:
                log("span file failed validation")
                result["correct"] = False
        if code != 0:
            result["correct"] = False
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
