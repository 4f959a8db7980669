#!/usr/bin/env python3
"""Re-run every deterministic BENCH_*.json baseline and diff it bit for bit.

Usage: repro_check.py [--build DIR] [--keep DIR]

Each committed baseline records the exact flags that produced it in
`provenance.flags`. This script re-runs the producing binary with those
flags (as `--name=value`, the only form that carries empty strings), the
`json` flag pointed at a fresh file, and P2PANON_BENCH_SCALE unset, then
requires the fresh report's `bench`, `values` and `sections` to equal the
committed ones as canonical JSON (`json.dumps(..., sort_keys=True)`), so
an integer that turns into a float counts as a difference. `provenance`
(git sha, host resources, flags) is ignored.

It checks all five deterministic baselines. With --keep DIR the fresh
reports are written there (one per baseline, same file name) for a
follow-up gate run; otherwise a temporary directory is used and removed.

Exits 0 when every baseline reproduces, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Baseline file -> producing binary under <build>/bench.
BASELINES = {
    "BENCH_table2.json": "table2_performance",
    "BENCH_byzantine.json": "chaos_sweep",
    "BENCH_membership.json": "chaos_sweep",
    "BENCH_overload.json": "chaos_sweep",
    "BENCH_anonymity.json": "chaos_sweep",
}
COMPARED = ("bench", "values", "sections")


def canonical(doc, key):
    return json.dumps(doc.get(key), sort_keys=True)


def reproduce(baseline_path, binary, out_path):
    with open(baseline_path, "r", encoding="utf-8") as fh:
        committed = json.load(fh)
    flags = dict(committed["provenance"]["flags"])
    flags["json"] = out_path
    argv = [binary] + [f"--{name}={value}" for name, value in flags.items()]
    env = dict(os.environ)
    env.pop("P2PANON_BENCH_SCALE", None)
    start = time.monotonic()
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        return wall, [f"exit {proc.returncode}: {proc.stderr.strip()}"]
    with open(out_path, "r", encoding="utf-8") as fh:
        fresh = json.load(fh)
    diffs = [f"'{key}' differs" for key in COMPARED
             if canonical(committed, key) != canonical(fresh, key)]
    # Name the first few differing values, the usual place a change shows.
    old, new = committed.get("values") or {}, fresh.get("values") or {}
    diffs += [f"values.{k}: {old.get(k)!r} -> {new.get(k)!r}"
              for k in sorted(set(old) | set(new))
              if json.dumps(old.get(k)) != json.dumps(new.get(k))][:8]
    return wall, diffs


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0])
    parser.add_argument("--build", default=os.path.join(ROOT, "build"),
                        help="CMake build tree holding bench/ binaries")
    parser.add_argument("--keep", default="",
                        help="write the fresh reports into this directory")
    args = parser.parse_args(argv[1:])

    failed = 0
    with tempfile.TemporaryDirectory(prefix="repro_check_") as tmp:
        out_dir = args.keep or tmp
        os.makedirs(out_dir, exist_ok=True)
        for name, binary in BASELINES.items():
            wall, diffs = reproduce(os.path.join(ROOT, name),
                                    os.path.join(args.build, "bench", binary),
                                    os.path.join(out_dir, name))
            status = "identical" if not diffs else "DIFFERS"
            print(f"{name}: {status} ({wall:.1f} s)")
            for diff in diffs:
                print(f"  - {diff}")
            failed += bool(diffs)
    if failed:
        print(f"FAIL: {failed} baseline(s) did not reproduce")
        return 1
    print("OK: every baseline reproduces bit for bit")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
