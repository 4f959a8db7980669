#!/usr/bin/env python3
"""Smoke test for e2ebench, run from the repository root:

    python3 e2ebench/smoke_test.py

Runs every workload e2ebench knows (BENCHMARK.json times a subset) at the
reduced "small" size, untraced and traced, and checks that each run is
correct, exits 0 and prints every metric named in BENCHMARK.json with its
unit. Then checks that e2ebench's paper_cell replay matches
harness::run_durability_experiment (--cross-check 1) and that a corrupted
pinned fingerprint makes the run fail with exit code 1. Exits non-zero on
the first failed check.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = ["bash", os.path.join("e2ebench", "run.sh")]
WORKLOADS = ("paper_cell", "anon_load", "onion_crypto")


def bench(*args):
    """Runs the benchmark; returns (exit code, stdout, parsed last line)."""
    proc = subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, proc.stdout, result


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)
    print("ok: " + message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    listed = [w["name"] for w in spec["workloads"]]
    check(set(listed) <= set(WORKLOADS),
          "BENCHMARK.json lists only known workloads %s" % listed)
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, out, result = bench("--workload", workload, "--size",
                                      "small", "--seconds", "1", "--trace",
                                      trace)
            label = "%s small --trace %s" % (workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  label + " runs correctly")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  label + " attempted %d, failed %d" %
                  (result["attempted"], result["failed"]))
            metrics = result["metrics"]
            missing = [n for n in expected[trace] if n not in metrics]
            wrong = [n for n, unit in expected[trace].items()
                     if n in metrics and metrics[n]["unit"] != unit]
            extra = [n for n in metrics if n not in expected[trace]]
            check(not missing and not wrong and not extra,
                  label + " reports exactly the %d named metrics with their "
                  "units (missing %s, wrong unit %s, extra %s)" %
                  (len(expected[trace]), missing, wrong, extra))

    code, out, result = bench("--workload", "paper_cell", "--size", "small",
                              "--seconds", "0", "--cross-check", "1")
    check(code == 0 and "matches harness::run_durability_experiment" in out,
          "e2ebench's paper_cell replay reproduces run_durability_experiment")

    # Corrupt one pinned value of anon_load's small section.
    with open(os.path.join(ROOT, "e2ebench", "pins.txt")) as f:
        pins = f.read()
    section = pins.index("[anon_load small 1]")
    at = pins.index("delivered=", section) + len("delivered=")
    corrupted = pins[:at] + "9" + pins[at:]
    scratch = os.path.join(ROOT, ".bench_build", "e2ebench", "smoke")
    os.makedirs(scratch, exist_ok=True)
    bad_pins = os.path.join(scratch, "corrupted_pins.txt")
    with open(bad_pins, "w") as f:
        f.write(corrupted)
    code, out, result = bench("--workload", "anon_load", "--size", "small",
                              "--seconds", "0", "--pins", bad_pins)
    check(code == 1 and result is not None and not result["correct"] and
          "MISMATCH against the pinned fingerprint" in out,
          "a corrupted pinned fingerprint fails the run")
    print("smoke test passed")


if __name__ == "__main__":
    main()
