#!/usr/bin/env python3
"""Build and run the cubeSSD benchmark.

    python3 cubebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The first run configures and
builds the harness (cubebench/CMakeLists.txt, which compiles the
library from ../src) in $CARGO_TARGET_DIR/cubebench, default
.bench_build/cubebench; later runs rebuild only what changed.

The harness prints a host record, every metric by name and unit, and
as its last line one JSON object {"correct", "attempted", "failed",
"metrics"}: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. It exits non-zero without a result when it cannot measure
(for example an SLO probe that does not bracket the knee, or a latency
metric that is flat or has too few samples beyond its p99.9).

Extra harness options pass through: --sink-spin-ns NS adds a busy-wait
of NS per completion in the tenants_open sink (the sensitivity test).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oltp_fresh", "web_eol", "tenants_open")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"cubebench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "cubebench"


def build():
    """Configure once, then build incrementally; build logs go to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no cubeSSD sources next to the benchmark ({ROOT / 'src'})")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"], check=True,
                   stdout=sys.stderr)
    return out / "cubebench"


def source_ids():
    """Git SHA when the tree is a git checkout, and a digest of the
    sources the harness compiles (the checkout may not be a git tree)."""
    sha = "none"
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            sha = res.stdout.strip()
    digest = hashlib.sha256()
    files = sorted(p for d in ("src", "bench", "cubebench")
                   for p in (ROOT / d).rglob("*")
                   if p.is_file() and p.suffix in (".h", ".cc", ".txt"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--sink-spin-ns", type=float, default=0.0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except subprocess.CalledProcessError as err:
        fail(f"build failed: {err}")
    sha, digest = source_ids()
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace, "--git-sha", sha, "--source-digest", digest]
    if args.sink_spin_ns:
        cmd += ["--sink-spin-ns", str(args.sink_spin_ns)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(res.stdout)
    if res.returncode != 0:
        fail(f"harness exited with code {res.returncode}")
    result = json.loads(res.stdout.splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")


if __name__ == "__main__":
    main()
