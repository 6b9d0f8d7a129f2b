#!/usr/bin/env python3
"""Build llp_bench from this checkout and run one workload.

    python3 llp_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures the repository's
top-level CMake project into .bench_build/, with llp_bench/CMakeLists.txt
adding the benchmark target, and builds that target and the libraries it
links (build output goes to stderr); later calls rebuild only what changed.
The benchmark's stdout is passed through, so its last line is the result
object. Every run is also appended to .bench_build/records.jsonl, the input
of compare.py; a traced run (--trace 1) writes its Chrome trace to
.bench_build/trace_<NAME>.json.
The exit code is the benchmark's: 0 only when every output check passed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"


def fail(message, code=2):
    print(f"llp_bench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no repository sources in {ROOT}")
    configure = ["cmake", "-S", str(ROOT), "-B", str(BUILD),
                 f"-DCMAKE_PROJECT_llp_INCLUDE={BENCH / 'CMakeLists.txt'}"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", str(BUILD), "--target", "llp_bench",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 3)


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    build()

    cmd = [str(BUILD / "llp_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work", str(BUILD / "work"),
           "--record", str(BUILD / "records.jsonl"), "--sha", git_sha()]
    if args.trace:
        cmd += ["--traced", str(BUILD / f"trace_{args.workload}.json")]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(p.stdout)
    sys.stdout.flush()

    # The metric names must be exactly those BENCHMARK.json declares.
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    kind = "per_layer" if args.trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    if result is not None and p.returncode == 0:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            fail(f"metrics differ from BENCHMARK.json {kind}: "
                 f"{sorted(set(got.items()) ^ set(want.items()))}", 1)
    sys.exit(p.returncode)


if __name__ == "__main__":
    main()
