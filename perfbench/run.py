#!/usr/bin/env python3
"""One benchmark run: build, pin, run, clean up.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Run it from the repository root. It builds the benchmark and the release
`mcc` binary from source into $CARGO_TARGET_DIR (default `.bench_build`),
pins itself to one CPU so every process it starts shares that CPU, and runs
the benchmark with its caches in a fresh directory on tmpfs. The last line
of standard output is the result as one JSON object. The exit status is
non-zero, with no result printed, when the build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("compile_cold", "fleet_hot", "fleet_mixed")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for manifest, extra in (
        (os.path.join(HERE, "Cargo.toml"), []),
        (os.path.join(ROOT, "Cargo.toml"), ["--package", "mcc", "--bin", "mcc"]),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest, *extra]
        subprocess.run(cmd, env=env, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def pin():
    """Pins this process, and so everything it starts, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def work_root():
    """tmpfs when the host has it: a disk-backed cache would time fsync."""
    shm = "/dev/shm"
    if os.path.isdir(shm) and os.access(shm, os.W_OK):
        return shm
    return os.path.join(ROOT, ".bench_work")


def group_alive(pgid):
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            return True
    return False


def stop_group(pgid):
    """Kills whatever is left of the run's process group and waits for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    try:
        build(target_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(f"build failed: {e}")
        return 1
    cpu = pin()
    base = work_root()
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="perfbench-", dir=base)
    spans = os.path.join(ROOT, ".bench_out", f"spans-{a.workload}-seed{a.seed}.jsonl")
    cmd = [
        os.path.join(target_dir, "release", "perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--mcc", os.path.join(target_dir, "release", "mcc"),
        "--work", work,
        "--spans", spans,
    ]
    log(f"pinned to CPU {cpu}; caches under {work}")
    # A terminated wrapper still stops what it started: SIGTERM unwinds
    # through the `finally` below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopped")
        code = 1
    finally:
        stop_group(proc.pid)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
