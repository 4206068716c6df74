#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload consolidate|ingest|apply \
        --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the `perfbench` package (release
profile, offline) into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one
workload, and passes the benchmark's output and exit code through: the last
line of standard output is the JSON result. The build's own output goes to
standard error. Exit codes: 0 ok, 1 a correctness gate failed, 2 usage error
or missing sources, 3 build failure.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# The sources the benchmark compiles besides its own: without them (a
# directory holding only the benchmark) there is nothing to measure.
REQUIRED = ["Cargo.toml", os.path.join("crates", "cli", "src", "main.rs")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["consolidate", "ingest", "apply"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    return parser.parse_args(argv)


def group_alive(pgid):
    """Whether any process is still in process group `pgid`."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[2] the process group.
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def run_benchmark(binary, args, workdir):
    """Runs the benchmark in its own process group, then makes sure nothing
    it started (the `ec serve` child) outlives it."""
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    process = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = process.wait()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.time() + 10
        while group_alive(process.pid) and time.time() < deadline:
            time.sleep(0.05)
    return code


def main(argv):
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: repository sources missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    workdir = os.path.join(target, "perfbench-work")
    os.makedirs(workdir, exist_ok=True)
    sys.stdout.flush()
    return run_benchmark(os.path.join(target, "release", "perfbench"), args, workdir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
