#!/usr/bin/env python3
"""Build and run the tempest benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload core-ilp --seed 1 --seconds 20 --trace 0

Run from the repository root. The simulator libraries and the runner
are built from source into $CARGO_TARGET_DIR (default .bench_build);
the run's files live in a temporary directory under it, removed on
exit. The last stdout line is the JSON result; build output goes to
stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the runner; return its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "tempest_perfbench",
         "-j", "2"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "tempest_perfbench")


def declared_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", help="write the traced run's spans "
                    "(JSON lines) to this file")
    args = ap.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    tmp = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    try:
        cmd = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--tmp", tmp]
        if args.spans_out:
            cmd += ["--spans-out", args.spans_out]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: run timed out", file=sys.stderr)
            return 1
        lines = proc.stdout.rstrip("\n").split("\n")
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            print(f"perfbench: runner exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        want = declared_metrics(args.trace)
        if list(result["metrics"]) != want:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            print("perfbench: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(want) ^ set(result['metrics']))}",
                  file=sys.stderr)
            return 1
        sys.stdout.write(proc.stdout)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
