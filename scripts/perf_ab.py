#!/usr/bin/env python3
"""Same-host A/B of the pole benchmark between two git revisions.

    scripts/perf_ab.py BASE HEAD [WORKLOAD...]
    scripts/perf_ab.py --self-test

Checks BASE and HEAD out into temporary git worktrees and builds each
through its own polebench/run.py, each side into its own build directory.
Then it runs 10 pairs per workload (default: every workload in BASE's
BENCHMARK.json). Pair i runs seed i on both sides, the side that runs
first alternates from pair to pair, and every run lasts BENCHMARK.json's
run_seconds. For each end-to-end metric it prints the base median, the
head median, head/base, the base interquartile range and the pairs head
won (ties count for neither side).

Exits 1 when a run fails its correctness gate, when HEAD fails a larger
share of its attempts than BASE, or when a HEAD median is worse than the
BASE median by more than the metric's bound. Bounds come from BASE's
BENCHMARK.json, so a change cannot loosen the gate it is judged by.
Exits 2 without a verdict when the two sides' hosts differ in CPU, nproc
or kernel ISA (`# meta` line), or when a run prints no result.
--self-test checks the verdict on canned samples.
"""

import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10
HOST_KEYS = ("cpu", "nproc", "kernel_isa")
META = "# meta "


def git(root, *args):
    return subprocess.run(["git", "-C", root, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def build(tree, target):
    """Build through the tree's own polebench/run.py into `target`."""
    path = os.path.join(tree, "polebench", "run.py")
    spec = importlib.util.spec_from_file_location("run_" + os.path.basename(tree), path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    os.environ["CARGO_TARGET_DIR"] = target
    try:
        run.build()
    finally:
        del os.environ["CARGO_TARGET_DIR"]


def run_once(tree, target, workload, seed, seconds):
    """One polebench run: its result JSON, with the `# meta` line under "meta"."""
    cmd = [sys.executable, os.path.join(tree, "polebench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=dict(os.environ, CARGO_TARGET_DIR=target),
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["meta"] = next(json.loads(l[len(META):]) for l in lines if l.startswith(META))
    except (IndexError, ValueError, StopIteration):
        print(f"perf_ab: {workload} seed {seed} in {tree} printed no result\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        sys.exit(2)
    return result


def host_mismatch(base_meta, head_meta):
    return [k for k in HOST_KEYS if base_meta.get(k) != head_meta.get(k)]


def verdict(bench, base, head):
    """Table rows and failure reasons from each side's results in pair order."""
    failures = []
    for side, runs in (("base", base), ("head", head)):
        failures += [f"{side} seed {i + 1}: correctness gate failed"
                     for i, r in enumerate(runs) if not r["correct"]]
    share = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
             for runs in (base, head)]
    if share[1] > share[0]:
        failures.append(f"head fails {share[1]:.4%} of attempts, base {share[0]:.4%}")
    rows = []
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        b = [r["metrics"][name]["value"] for r in base]
        h = [r["metrics"][name]["value"] for r in head]
        bm, hm = statistics.median(b), statistics.median(h)
        q1, _, q3 = statistics.quantiles(b, n=4, method="inclusive")
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
        worse = hm - bm if lower else bm - hm
        if worse > m["bound"] * abs(bm):
            failures.append(f"{name}: head median {hm:g} is worse than base {bm:g} "
                            f"by more than {m['bound']:.0%}")
        rows.append((f"{name} ({m['unit']})", f"{bm:.4g}", f"{hm:.4g}",
                     f"{hm / bm:.3f}" if bm else "-", f"{q3 - q1:.3g}", f"{wins}/{len(b)}"))
    return rows, failures


def print_table(rows):
    rows = [("metric", "base median", "head median", "head/base", "base IQR", "head wins")] + rows
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    for r in rows:
        print("  " + "  ".join(cell.ljust(w) if c == 0 else cell.rjust(w)
                               for c, (cell, w) in enumerate(zip(r, widths))))


def compare(bench, trees, targets, workload):
    """Run the pairs of one workload; True when HEAD passes."""
    seconds = bench["run_seconds"]
    print(f"== {workload}: {PAIRS} pairs, {seconds} s a run", flush=True)
    runs = {"base": [], "head": []}
    for seed in range(1, PAIRS + 1):
        order = ("base", "head") if seed % 2 else ("head", "base")
        for side in order:
            runs[side].append(run_once(trees[side], targets[side], workload, seed, seconds))
        metas = runs["base"][-1]["meta"], runs["head"][-1]["meta"]
        if seed == 1:
            for side, meta in zip(("base", "head"), metas):
                print(f"  {side} {META}{json.dumps(meta)}")
        differ = host_mismatch(*metas)
        if differ:
            print(f"perf_ab: refusing to compare, the hosts differ in {', '.join(differ)}",
                  file=sys.stderr)
            sys.exit(2)
    rows, failures = verdict(bench, runs["base"], runs["head"])
    print_table(rows)
    for why in failures:
        print(f"  FAIL {workload}: {why}")
    print(f"  {workload}: {'FAIL' if failures else 'ok'}", flush=True)
    return not failures


def self_test():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "BENCHMARK.json")) as f:
        bench = json.load(f)

    def runs(p50=11.7, served=0.961, attempted=14747, failed=0, correct=True):
        out = []
        for i in range(PAIRS):
            values = {m["name"]: 1.0 for m in bench["end_to_end"]}
            values.update(frame_ms_p50=p50 * (1 + 0.01 * (i % 3)), served_ratio=served)
            out.append({"correct": correct, "attempted": attempted, "failed": failed,
                        "metrics": {k: {"value": v} for k, v in values.items()}})
        return out

    cases = [
        ("A/A passes", runs(), runs(), True),
        ("30% slower frame_ms_p50 fails", runs(), runs(p50=11.7 * 1.3), False),
        ("served_ratio 0.0003 apart at unequal attempts passes",
         runs(served=0.9610, attempted=13766), runs(served=0.9607), True),
        ('"correct": false fails', runs(), runs(correct=False), False),
        ("a larger failed share fails", runs(), runs(failed=3), False),
    ]
    ok = True
    for name, base, head, want in cases:
        passed = not verdict(bench, base, head)[1]
        ok &= passed == want
        print(f"{'ok  ' if passed == want else 'FAIL'}  {name}")
    host = {"cpu": "Xeon", "nproc": 4, "kernel_isa": "avx2", "seed": 1}
    refused = host_mismatch(host, dict(host, nproc=8)) == ["nproc"]
    ok &= refused and not host_mismatch(host, dict(host, seed=2))
    print(f"{'ok  ' if ok else 'FAIL'}  a host fingerprint mismatch is refused")
    return 0 if ok else 1


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) < 2 or any(a.startswith("-") for a in argv):
        print(__doc__, file=sys.stderr)
        return 2
    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    revs = {side: git(root, "rev-parse", "--verify", rev + "^{commit}")
            for side, rev in (("base", argv[0]), ("head", argv[1]))}
    tmp = tempfile.mkdtemp(prefix="perf_ab-")
    trees, targets = {}, {}
    try:
        for side, rev in revs.items():
            print(f"{side} {rev}: building", flush=True)
            trees[side] = os.path.join(tmp, side)
            git(root, "worktree", "add", "--detach", trees[side], rev)
            targets[side] = os.path.join(tmp, "build-" + side)
            build(trees[side], targets[side])
        with open(os.path.join(trees["base"], "BENCHMARK.json")) as f:
            bench = json.load(f)
        workloads = argv[2:] or [w["name"] for w in bench["workloads"]]
        passed = [compare(bench, trees, targets, w) for w in workloads]
        return 0 if all(passed) else 1
    finally:
        for tree in trees.values():
            subprocess.run(["git", "-C", root, "worktree", "remove", "--force", tree],
                           capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
