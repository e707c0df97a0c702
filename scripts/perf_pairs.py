#!/usr/bin/env python3
"""Paired parent/child runs of the repository benchmark, recorded in BENCH_perf.json.

    python3 scripts/perf_pairs.py [--parent REV] [--pairs N] [--work DIR] [--parent-dir DIR]
                                  [--workloads A,B] [--first-seed S] [--trace-seeds S1,S2]

Run it from the repository root. The child is the working tree; the parent
(default HEAD) is checked out in a `git worktree` under --work, unless
--parent-dir names an existing copy of it. When that copy is a git checkout,
the recorded parent revision is its HEAD, not --parent. A parent equal to a
clean HEAD is refused: it would record a commit against itself.

Each side builds into its own CARGO_TARGET_DIR under --work and runs its own
perfbench/run.py, untraced, for BENCHMARK.json's run_seconds. Pair i of a
workload runs seed first-seed + i (default first-seed 1) on both sides; the
parent goes first in even pairs and the child in odd ones. --workloads
limits the run to some of BENCHMARK.json's workloads, and a later
--first-seed re-checks a claim on seeds not used while developing it.

For each workload one record is appended to BENCH_perf.json. For every
end-to-end metric of BENCHMARK.json it holds each side's median and
quartiles, the pairs each side won (ties count for neither) in the
direction BENCHMARK.json gives, and the child's relative change against
the bound. It also holds every run's `correct` flag and both revisions'
non-test lines per crate: the lines above the first `#[cfg(test)]` of each
`src/**/*.rs`, the root package counted as `mcc`.

--trace-seeds adds the per-layer before/after. After a workload's untraced
pairs, each side makes one `--trace 1` run per listed seed, the sides
alternating which goes first, and the record gains a `per_layer` key: the
seeds, each traced run's side, order and `correct` flag, and for every
per-layer metric of BENCHMARK.json its value per side, one per seed in
`seeds` order (null where a run did not report it).
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(f"perf_pairs: {msg}", file=sys.stderr, flush=True)


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def revision(tree):
    """HEAD of the checkout at `tree`, marked when it has local changes."""
    return git("rev-parse", "HEAD", cwd=tree) + ("+worktree" if git("status", "--porcelain", cwd=tree) else "")


def is_checkout(tree):
    """Whether `tree` is the top of a git checkout of its own."""
    try:
        top = git("rev-parse", "--show-toplevel", cwd=tree)
    except (subprocess.CalledProcessError, OSError):
        return False
    return os.path.realpath(top) == os.path.realpath(tree)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def non_test_lines(tree):
    """Non-test lines per crate of the checkout at `tree`."""
    src_dirs = {"mcc": os.path.join(tree, "src")}
    crates = os.path.join(tree, "crates")
    for name in sorted(os.listdir(crates)):
        src_dirs[name] = os.path.join(crates, name, "src")
    counts = {}
    for name, src in src_dirs.items():
        total = 0
        for dirpath, _, files in os.walk(src):
            for f in files:
                if not f.endswith(".rs"):
                    continue
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    for line in fh:
                        if line.strip().startswith("#[cfg(test)]"):
                            break
                        total += 1
        if os.path.isdir(src):
            counts[name] = total
    return counts


def run_once(tree, target, workload, seed, seconds, trace=0):
    """One benchmark run; the parsed result line, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload} seed {seed} in {tree}: no result (exit {proc.returncode})")
        return None


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def compare(metric, parent, child):
    """Per-metric record: both sides' spread, pairs won, change against the bound."""
    sign = 1 if metric["better"] == "higher" else -1
    pairs = [(p, c) for p, c in zip(parent, child) if p is not None and c is not None]
    won = sum(1 for p, c in pairs if sign * (c - p) > 0)
    lost = sum(1 for p, c in pairs if sign * (c - p) < 0)
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"], "pairs": len(pairs),
           "child_won": won, "parent_won": lost}
    if pairs:
        ps, cs = summary([p for p, _ in pairs]), summary([c for _, c in pairs])
        base = ps["median"]
        # Positive means the child is worse than the parent.
        worse_by = -sign * (cs["median"] - base) / base if base else 0.0
        out.update(parent=ps, child=cs, worse_by=round(worse_by, 4), within_bound=worse_by <= metric["bound"])
    return out


def metric_value(res, name):
    """A metric's value in a parsed result line, or None."""
    return res["metrics"][name]["value"] if res and name in res.get("metrics", {}) else None


def per_layer_runs(bench, sides, workload, seeds, seconds):
    """One traced run per side per seed, alternating which side goes first."""
    runs = []
    results = {"parent": [], "child": []}
    for i, seed in enumerate(seeds):
        order = ["parent", "child"] if i % 2 == 0 else ["child", "parent"]
        for side in order:
            tree, target = sides[side]
            log(f"{workload} traced seed {seed}: {side}")
            res = run_once(tree, target, workload, seed, seconds, trace=1)
            results[side].append(res)
            runs.append({"seed": seed, "side": side, "first": side == order[0],
                         "correct": bool(res and res.get("correct"))})
    metrics = {m["name"]: {"unit": m["unit"], "better": m["better"],
                           **{side: [metric_value(r, m["name"]) for r in results[side]] for side in results}}
               for m in bench["per_layer"]}
    return {"seeds": seeds, "runs": runs, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    ap.add_argument("--work", default=os.path.join(ROOT, ".bench_pairs"), help="worktree and build directory")
    ap.add_argument("--parent-dir", help="an existing copy of the parent, used instead of a worktree")
    ap.add_argument("--workloads", help="comma-separated workloads (default: every one in BENCHMARK.json)")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first pair (default 1)")
    ap.add_argument("--trace-seeds", help="comma-separated seeds of the traced per-layer runs (default none)")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        chosen = a.workloads.split(",")
        unknown = sorted(set(chosen) - set(workloads))
        if unknown:
            ap.error(f"unknown workloads {unknown}; BENCHMARK.json has {workloads}")
        workloads = [w for w in workloads if w in chosen]
    seeds = [a.first_seed + i for i in range(a.pairs)]
    try:
        trace_seeds = [int(x) for x in a.trace_seeds.split(",")] if a.trace_seeds else []
    except ValueError:
        ap.error(f"--trace-seeds takes comma-separated integers, not {a.trace_seeds!r}")

    parent_tree = os.path.abspath(a.parent_dir) if a.parent_dir else None
    if parent_tree and is_checkout(parent_tree):
        parent_rev = revision(parent_tree)
    else:
        parent_rev = git("rev-parse", "--verify", f"{a.parent}^{{commit}}")
    child_rev = revision(ROOT)
    if parent_rev == child_rev == git("rev-parse", "HEAD"):
        ap.error(f"the parent {parent_rev} is the clean HEAD: there is no change to measure")
    work = os.path.abspath(a.work)
    os.makedirs(work, exist_ok=True)
    worktree = None
    if parent_tree is None:
        worktree = os.path.join(work, "parent")
        if os.path.exists(worktree):
            git("worktree", "remove", "--force", worktree)
        git("worktree", "add", "--detach", worktree, parent_rev)
        parent_tree = worktree
    sides = {
        "parent": (parent_tree, os.path.join(work, "target-parent")),
        "child": (ROOT, os.path.join(work, "target-child")),
    }
    lines = {side: non_test_lines(tree) for side, (tree, _) in sides.items()}
    out_path = os.path.join(ROOT, "BENCH_perf.json")
    try:
        for workload in workloads:
            runs = []
            results = {"parent": [], "child": []}
            for i, seed in enumerate(seeds):
                order = ["parent", "child"] if i % 2 == 0 else ["child", "parent"]
                for side in order:
                    tree, target = sides[side]
                    log(f"{workload} pair {i + 1}/{a.pairs} seed {seed}: {side}")
                    res = run_once(tree, target, workload, seed, seconds)
                    results[side].append(res)
                    runs.append({"pair": i + 1, "seed": seed, "side": side, "first": side == order[0],
                                 "correct": bool(res and res.get("correct")),
                                 "attempted": res.get("attempted") if res else None,
                                 "failed": res.get("failed") if res else None})

            def values(side, name):
                return [metric_value(r, name) for r in results[side]]

            record = {
                "bench": "perf_pairs",
                "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
                "workload": workload,
                "parent_rev": parent_rev,
                "child_rev": child_rev,
                "run_seconds": seconds,
                "seeds": seeds,
                "trace": 0,
                "host": {"cpu": cpu_model(), "cpus": os.cpu_count()},
                "metrics": {m["name"]: compare(m, values("parent", m["name"]), values("child", m["name"]))
                            for m in bench["end_to_end"]},
                "runs": runs,
                "non_test_lines": lines,
            }
            if trace_seeds:
                record["per_layer"] = per_layer_runs(bench, sides, workload, trace_seeds, seconds)
            history = []
            if os.path.exists(out_path):
                with open(out_path, encoding="utf-8") as f:
                    history = json.load(f)
            history.append(record)
            with open(out_path, "w", encoding="utf-8") as f:
                json.dump(history, f, indent=1)
                f.write("\n")
            log(f"{workload}: record appended to {out_path}")
    finally:
        if worktree:
            git("worktree", "remove", "--force", worktree)
    return 0


if __name__ == "__main__":
    sys.exit(main())
