#!/usr/bin/env python3
"""Self-test for scripts/check_bench.py.

Usage: check_bench_test.py

Every committed BENCH_*.json must pass its gate, and for every bench a
set of mutated copies -- each breaking one claim the gate exists to
protect -- must fail it. A gate that passes a broken report checks
nothing. Exits 0 when both hold, 1 otherwise.
"""

import contextlib
import copy
import glob
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench  # noqa: E402

ROOT = check_bench.ROOT


def set_value(key, value):
    def mutate(doc):
        doc["values"][key] = value
    return mutate


def scale_value(key, factor):
    def mutate(doc):
        doc["values"][key] *= factor
    return mutate


def swap_values(a, b):
    def mutate(doc):
        values = doc["values"]
        values[a], values[b] = values[b], values[a]
    return mutate


def set_row(section, column, value, **where):
    """Sets `column` on the first row of `section` matching `where`."""
    def mutate(doc):
        for row in doc["sections"][section]:
            if all(row[k] == v for k, v in where.items()):
                row[column] = value
                return
        raise AssertionError(f"no {section} row matches {where}")
    return mutate


def first_arm_value(suffix, value):
    def mutate(doc):
        doc["values"][f"{doc['sections']['arms'][0]}_{suffix}"] = value
    return mutate


# baseline file -> [(what the mutant breaks, mutation)]
MUTANTS = {
    "BENCH_table2.json": [
        ("swapped SimEra/SimRep biased durability",
         swap_values("SimEra(k=4,r=4).biased.durability_s",
                     "SimRep(r=2).biased.durability_s")),
        ("CurMix biased attempts above the ceiling",
         set_value("CurMix.biased.construct_attempts", 2.0)),
    ],
    "BENCH_erasure.json": [
        ("encode_MBps halved", scale_value("encode_MBps", 0.5)),
    ],
    "BENCH_crypto.json": [
        ("relay path allocates", set_value("relay_path_allocs", 1)),
        ("chacha20 speedup below the floor",
         set_value("chacha20_speedup", 2.9)),
        ("x25519 rate below 80% of the baseline",
         scale_value("x25519_per_s", 0.75)),
    ],
    "BENCH_byzantine.json": [
        ("tags arm delivers wrong bytes",
         set_row("byzantine", "wrong", 1, arm="tags")),
        ("invariant violation in one cell",
         set_row("byzantine", "violations", 1, arm="off")),
    ],
    "BENCH_membership.json": [
        ("control fingerprint drifted",
         set_value("control_fingerprint", "0:0")),
        ("resilient below the random floor under stale injection",
         set_value("durability_stale-inject_resilient", 0.0)),
    ],
    "BENCH_overload.json": [
        ("a control segment was shed",
         set_value("sheds_control_simrep2_flash_shed", 1)),
        ("flash interactive p99 unbounded",
         set_value("interactive_p99_us_curmix_flash_shed", 10 ** 9)),
    ],
    "BENCH_anonymity.json": [
        ("cover traffic does not cut correlation",
         set_value("corr_success_simera4_cover", 1.0)),
        ("compromise not monotone in f",
         set_value("pred_compromise_curmix_f20", 0.0)),
    ],
    "BENCH_scale.json": [
        ("events_per_sec below the floor",
         first_arm_value("events_per_sec", 19_999.0)),
        ("profiler overhead at the ceiling",
         first_arm_value("profiler_overhead_pct", 3.0)),
    ],
}


def gate(doc, tmpdir, name):
    """check_bench failures for `doc` written as `name` (output muted)."""
    path = os.path.join(tmpdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with contextlib.redirect_stdout(io.StringIO()):
        return check_bench.check(path)


class CheckBenchTest(unittest.TestCase):
    def test_committed_baselines_pass(self):
        paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
        self.assertEqual(len(paths), len(MUTANTS))
        for path in paths:
            with self.subTest(path=os.path.basename(path)):
                with contextlib.redirect_stdout(io.StringIO()):
                    self.assertEqual(check_bench.check(path), [])

    def test_every_bench_has_a_rule_set_and_mutants(self):
        benches = set()
        for name in MUTANTS:
            with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
                benches.add(json.load(fh)["bench"])
        self.assertEqual(benches, set(check_bench.RULES))

    def test_mutants_fail(self):
        with tempfile.TemporaryDirectory() as tmpdir:
            for name, mutants in MUTANTS.items():
                with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
                    original = json.load(fh)
                for what, mutate in mutants:
                    with self.subTest(bench=name, mutant=what):
                        doc = copy.deepcopy(original)
                        mutate(doc)
                        self.assertNotEqual(gate(doc, tmpdir, name), [])


if __name__ == "__main__":
    unittest.main()
