#!/usr/bin/env python3
"""Paired perf-smoke gate: head vs. base build on the same host.

Runs the ``bench_wallclock`` smoke binaries of two builds -- the
base (the merge base, built in the same CI job) and the head (the
change) -- ``--pairs`` times each, alternating base and head (and
swapping which goes first in every other pair, so neither build
always runs on a warmer machine). Each run's serial throughput is
the best of its 1-thread rows. The hard gate is

    median(head serial) / median(base serial) >= --serial-floor

(default 0.85): a like-for-like comparison of two builds measured
side by side, interleaved, on one host.

Everything else is advisory and only prints warnings: the head's
serial, multi-thread and fabric (worker-process) rows against the
best entries ever recorded in BENCH_wallclock.json. Those entries
come from other machines and other days, so a best-ever comparison
measures the host as much as the code; it never fails the check.
The advisory check reuses the head's first paired run.

Usage:
    python3 tools/perf_smoke.py --build-dir build
        --base-build-dir build-base [--serial-floor 0.85] [--history BENCH_wallclock.json]
        [--threshold 0.10]

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from statistics import median


def repo_root():
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(here)


def serial_best(runs):
    vals = [r.get("sim_cycles_per_second") for r in runs
            if isinstance(r, dict) and r.get("threads") == 1
            and isinstance(r.get("sim_cycles_per_second"),
                           (int, float))]
    return max(vals) if vals else None


def threaded_best(runs):
    """Best recorded throughput per thread count (> 1)."""
    best = {}
    for r in runs:
        if not isinstance(r, dict):
            continue
        t = r.get("threads")
        v = r.get("sim_cycles_per_second")
        if (isinstance(t, int) and t > 1 and
                isinstance(v, (int, float))):
            best[t] = max(best.get(t, 0), v)
    return best


def best_recorded_serial(history):
    """Best serial throughput across the whole history.

    The advisory check compares against the best entry ever
    recorded, not the most recent one: a regression that slipped
    into one recording must not lower the bar for the next. Returns
    (baseline, entry) or (None, None).
    """
    best, best_entry = None, None
    for entry in history:
        if not isinstance(entry, dict):
            continue
        v = serial_best(entry.get("runs", []))
        if v is not None and (best is None or v > best):
            best, best_entry = v, entry
    return best, best_entry


def best_recorded_threaded(history):
    best = {}
    for entry in history:
        if not isinstance(entry, dict):
            continue
        for t, v in threaded_best(entry.get("runs", [])).items():
            best[t] = max(best.get(t, 0), v)
    return best


def fabric_pools(section):
    """workers -> sim_cycles_per_second of a bench fabric section.

    The multi-process sweep fabric rows are advisory-only, like
    thread rows: process-pool throughput depends on the machine's
    core count and fork/IPC cost, so a drop warns but never fails.
    """
    pools = {}
    if not isinstance(section, dict):
        return pools
    for r in section.get("pools", []):
        if not isinstance(r, dict):
            continue
        w = r.get("workers")
        v = r.get("sim_cycles_per_second")
        if (isinstance(w, int) and w > 0 and
                isinstance(v, (int, float))):
            pools[w] = max(pools.get(w, 0), v)
    return pools


def best_recorded_fabric(history):
    """Best recorded fabric throughput per worker count."""
    best = {}
    for entry in history:
        if not isinstance(entry, dict):
            continue
        for w, v in fabric_pools(entry.get("fabric")).items():
            best[w] = max(best.get(w, 0), v)
    return best


def smoke_run(binary):
    """One smoke run of a bench_wallclock binary; returns its JSON.

    Runs in a scratch directory with TEMPEST_BENCH_JSON set, so no
    build (old or new) can write into the checkout.
    """
    env = dict(os.environ)
    env["TEMPEST_SMOKE"] = "1"
    with tempfile.TemporaryDirectory(prefix="perf_smoke_") as tmp:
        out = os.path.join(tmp, "bench.json")
        env["TEMPEST_BENCH_JSON"] = out
        subprocess.run([binary], env=env, cwd=tmp, check=True,
                       stdout=subprocess.DEVNULL)
        with open(out) as f:
            return json.load(f)


PAIRS = 5


def paired_runs(base_binary, head_binary):
    """PAIRS alternated smoke runs of each build: the JSON payloads
    as (base list, head list)."""
    base, head = [], []
    for i in range(PAIRS):
        order = [(base_binary, base), (head_binary, head)]
        if i % 2:
            order.reverse()
        for binary, sink in order:
            sink.append(smoke_run(binary))
    return base, head


def serial_of(binary, payloads):
    """Serial throughput of each run; every run must have one."""
    vals = [serial_best(p.get("runs", [])) for p in payloads]
    if None in vals:
        raise RuntimeError(f"{binary} produced no serial rows")
    return vals


def advise(label, current, recorded, threshold):
    """Print a best-ever comparison; warn on a drop, never fail."""
    ratio = current / recorded
    print(f"perf-smoke: {label} {current / 1e6:.2f} Mcycles/s vs best "
          f"recorded {recorded / 1e6:.2f} Mcycles/s ({ratio:.2f}x, "
          "advisory)")
    if ratio < 1.0 - threshold:
        print(f"::warning title=perf-smoke::{label} is "
              f"{(1.0 - ratio) * 100.0:.0f}% below the best recorded "
              "bench entry; advisory only (recorded entries come from "
              "other hosts)", file=sys.stderr)


def advise_history(history_path, payload, threshold):
    """Best-ever comparisons of one head run against the history."""
    try:
        with open(history_path) as f:
            history = json.load(f).get("history", [])
    except (OSError, json.JSONDecodeError, AttributeError) as e:
        print(f"perf-smoke: no usable history at {history_path} ({e})")
        return
    if not isinstance(history, list):
        return
    runs = payload.get("runs", [])
    baseline, _entry = best_recorded_serial(history)
    current = serial_best(runs)
    if baseline and current:
        advise("serial throughput", current, baseline, threshold)
    recorded = best_recorded_threaded(history)
    for t, v in sorted(threaded_best(runs).items()):
        if recorded.get(t):
            advise(f"{t}-thread throughput", v, recorded[t], threshold)
    recorded = best_recorded_fabric(history)
    for w, v in sorted(fabric_pools(payload.get("fabric")).items()):
        if recorded.get(w):
            advise(f"fabric {w}-worker throughput", v, recorded[w],
                   threshold)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="head build (default: build)")
    parser.add_argument("--base-build-dir", required=True,
                        help="base build to pair against")
    parser.add_argument("--serial-floor", type=float, default=0.85,
                        help="fail when median head serial throughput "
                             "is below this fraction of the base's "
                             "(default: 0.85)")
    parser.add_argument("--history", default=None,
                        help="recorded trajectory for the advisory "
                             "check (default: BENCH_wallclock.json at "
                             "the repo root)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="fractional drop below the best recorded "
                             "entry that prints a warning "
                             "(default: 0.10)")
    args = parser.parse_args()

    root = repo_root()

    def binary_in(build_dir):
        return os.path.join(root, build_dir, "bench", "bench_wallclock")

    head = binary_in(args.build_dir)
    base = binary_in(args.base_build_dir)
    for binary in (head, base):
        if not os.path.exists(binary):
            print(f"perf-smoke: {binary} not found")
            return 1
    base_payloads, head_payloads = paired_runs(base, head)
    history = args.history or os.path.join(root, "BENCH_wallclock.json")
    advise_history(history, head_payloads[0], args.threshold)

    base_runs = serial_of(base, base_payloads)
    head_runs = serial_of(head, head_payloads)
    ratio = median(head_runs) / median(base_runs)
    fmt = " ".join
    print("perf-smoke: base serial Mcycles/s: " +
          fmt(f"{v / 1e6:.2f}" for v in base_runs))
    print("perf-smoke: head serial Mcycles/s: " +
          fmt(f"{v / 1e6:.2f}" for v in head_runs))
    print(f"perf-smoke: paired serial ratio median(head)/median(base) "
          f"= {ratio:.3f} (floor {args.serial_floor:.2f})")
    if ratio < args.serial_floor:
        print("::error title=perf-smoke::serial throughput is "
              f"{(1.0 - ratio) * 100.0:.0f}% below the base build "
              f"measured alongside it (floor {args.serial_floor:.2f}x); "
              "failing the check", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
