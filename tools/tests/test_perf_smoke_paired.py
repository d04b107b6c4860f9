#!/usr/bin/env python3
"""Tests for perf_smoke.py's paired serial gate.

Fake bench_wallclock binaries stand in for a base and a head build:
each records its turn in a shared log and writes a smoke JSON with a
fixed serial throughput. The gate must run the two alternately, five
times each (swapping which goes first every other pair), fail when the head's
median is below 0.85x of the base's, and pass otherwise.
"""

import os
import stat
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PERF_SMOKE = os.path.join(HERE, os.pardir, "perf_smoke.py")

FAKE = """#!{python}
import json, os
with open({log!r}, "a") as f:
    f.write({name!r} + "\\n")
with open(os.environ["TEMPEST_BENCH_JSON"], "w") as f:
    json.dump({{"runs": [{{"threads": 1,
                          "sim_cycles_per_second": {rate}}},
                         {{"threads": 8,
                          "sim_cycles_per_second": 1.0}}]}}, f)
"""

failures = []


def check(ok, message):
    print(f"[{'ok  ' if ok else 'FAIL'}] {message}")
    if not ok:
        failures.append(message)


def fake_build(root, name, rate, log):
    bench = os.path.join(root, name, "bench")
    os.makedirs(bench)
    path = os.path.join(bench, "bench_wallclock")
    with open(path, "w") as f:
        f.write(FAKE.format(python=sys.executable, log=log, name=name,
                            rate=rate))
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
    return os.path.join(root, name)


def gate(base_rate, head_rate):
    """Run the gate; return (exit code, order the builds ran in)."""
    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "order.log")
        base = fake_build(tmp, "base", base_rate, log)
        head = fake_build(tmp, "head", head_rate, log)
        r = subprocess.run(
            [sys.executable, PERF_SMOKE, "--build-dir", head,
             "--base-build-dir", base,
             "--history", os.path.join(tmp, "no_history.json")],
            capture_output=True, text=True)
        with open(log) as f:
            order = f.read().split()
    return r.returncode, order


def main():
    rc, order = gate(4.0e6, 4.0e6)
    check(rc == 0, "equal builds pass")
    # Five pairs and no unpaired run: the advisory history check
    # reuses a paired head run.
    check(order == ["base", "head", "head", "base"] * 2 +
          ["base", "head"],
          f"base and head alternate, first mover swapped ({order})")

    rc, _ = gate(4.0e6, 0.80 * 4.0e6)
    check(rc == 1, "a head at 0.80x of the base fails")

    rc, _ = gate(4.0e6, 0.90 * 4.0e6)
    check(rc == 0, "a head at 0.90x of the base passes")

    rc, _ = gate(4.0e6, 1.50 * 4.0e6)
    check(rc == 0, "a faster head passes")

    if failures:
        print(f"\n{len(failures)} check(s) FAILED")
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
