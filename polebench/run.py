#!/usr/bin/env python3
"""Build and run the pole benchmark.

    python3 polebench/run.py --workload walkway|crowd|fleet --seed N \
        --seconds S --trace 0|1

Run from the repository root. The script builds polebench/ together with
the HAWC-CC libraries from src/ in Release into $CARGO_TARGET_DIR (default
.bench_build), then runs one workload. Everything the benchmark prints goes
to stdout; its last line is the result JSON. A traced run (--trace 1) also
writes its spans as a Chrome trace next to the build. Exits non-zero when
the build fails, the inputs are missing, or the correctness gate fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "polebench")


def build():
    """Configure once, then build incrementally. Returns the binary path."""
    for needed in ("src/CMakeLists.txt", "CMakeLists.txt", "data/golden"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"polebench: {needed} is missing; run from a full checkout")
    out = build_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=log, stderr=log, check=True)
    return os.path.join(out, "polebench")


def source_id():
    """Commit when run from a git checkout, plus a digest of the sources."""
    digest = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "polebench", "data/golden"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    ident = "tree-" + digest.hexdigest()[:12]
    if os.path.exists(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            ident = "git-" + head.stdout.strip()[:12] + " " + ident
    return ident


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["walkway", "crowd", "fleet"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"polebench: build failed ({e})")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", os.path.join(ROOT, "data", "golden"), "--source-id", source_id()]
    if args.trace:
        spans = os.path.join(build_dir(), f"spans-{args.workload}-{args.seed}.json")
        cmd += ["--trace-out", spans]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"polebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
