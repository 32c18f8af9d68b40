#!/usr/bin/env python3
"""Self-tests of the pole benchmark. Run from the repository root:

    python3 polebench/selftest.py

Checks that
  * the same seed gives identical frames and another seed other frames
    (walkway, crowd and the fleet container);
  * on small runs of every workload the correctness gate passes, which
    includes the traced classify breakdown reproducing the int8
    classifier's verdict on every cluster process() classified, and every
    pass's counts (fleet: outcome histories) matching the 1-lane reference;
  * every printed metric is declared in BENCHMARK.json with the same unit
    and a direction, and every declared metric is printed.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build step)

# Small load sizes: distinct frames (fleet: per pole) and timed steps.
SMALL = {"walkway": ("18", "8"), "crowd": ("12", "8"), "fleet": ("8", "8")}


def fail(why):
    print(f"FAIL  {why}")
    sys.exit(1)


def check_declarations(bench):
    for key in ("end_to_end", "per_layer"):
        for m in bench[key]:
            if not m.get("unit") or m.get("better") not in ("lower", "higher"):
                fail(f"{key} metric {m.get('name')} lacks a unit or a direction")
    for m in bench["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            fail(f"end_to_end metric {m['name']} has bound {m['bound']}")
    print("ok    every declared metric has a unit and a direction")


def check_run(binary, bench, workload, trace):
    frames, steps = SMALL[workload]
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace), "--frames", frames, "--min-steps", steps,
           "--golden", os.path.join(run.ROOT, "data", "golden")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} trace={trace}: no output ({proc.stderr.strip()})")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        gates = [l for l in lines if l.startswith("GATE FAILURE")]
        fail(f"{workload} trace={trace}: correctness gate failed: {gates}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        extra = sorted(set(printed) - set(declared))
        missing = sorted(set(declared) - set(printed))
        units = sorted(n for n in set(printed) & set(declared) if printed[n] != declared[n])
        fail(f"{workload} trace={trace}: undeclared {extra}, unprinted {missing}, "
             f"unit mismatch {units}")
    print(f"ok    {workload} trace={trace}: gate passes, {len(printed)} metrics all declared")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_declarations(bench)
    binary = run.build()
    if subprocess.run([binary, "--selftest"]).returncode != 0:
        fail("seeded input generation")
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            check_run(binary, bench, workload, trace)
    print("polebench self-tests passed")


if __name__ == "__main__":
    main()
