#!/usr/bin/env python3
"""Tests of the output check in contract.py.

    python3 perfbench/test_contract.py

Runs from anywhere; reads BENCHMARK.json from the repository root.
"""

import copy
import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import contract  # noqa: E402

with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def raw_output(trace):
    """A well-formed binary output carrying every metric of the spec."""
    metrics = [{"name": m["name"], "unit": m["unit"], "value": 1.25, "n": 7}
               for m in SPEC["per_layer" if trace else "end_to_end"]]
    return {"workload": SPEC["workloads"][0]["name"], "trace": int(trace),
            "correct": True, "attempted": 100, "failed": 0, "notes": [],
            "metrics": metrics, "detail": []}


class SpecTest(unittest.TestCase):
    def test_benchmark_json_meets_the_contract(self):
        contract.check_spec(SPEC)

    def test_every_end_to_end_bound_is_at_most_a_quarter(self):
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25, m["name"])

    def test_setup_bound_is_the_largest(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_rejects_a_bound_above_a_quarter(self):
        spec = copy.deepcopy(SPEC)
        spec["end_to_end"][0]["bound"] = 0.3
        with self.assertRaises(contract.ContractError):
            contract.check_spec(spec)

    def test_rejects_a_repeated_name(self):
        spec = copy.deepcopy(SPEC)
        spec["per_layer"].append(dict(spec["per_layer"][0]))
        with self.assertRaises(contract.ContractError):
            contract.check_spec(spec)


class OutputTest(unittest.TestCase):
    def check(self, raw, trace=False):
        return contract.to_result(raw, SPEC, trace)

    def test_well_formed_output_becomes_the_result_line(self):
        for trace in (False, True):
            result = self.check(raw_output(trace), trace)
            self.assertEqual(set(result), contract.RESULT_KEYS)
            want = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
            self.assertEqual(set(result["metrics"]), want)
            for m in result["metrics"].values():
                self.assertEqual(set(m), {"value", "unit"})
            json.loads(json.dumps(result))

    def test_failures_make_the_run_incorrect(self):
        raw = raw_output(False)
        raw["failed"] = 3
        self.assertFalse(self.check(raw)["correct"])

    def assert_rejected(self, mutate, trace=False):
        raw = raw_output(trace)
        mutate(raw)
        with self.assertRaises(contract.ContractError):
            self.check(raw, trace)

    def test_rejects_a_missing_metric(self):
        self.assert_rejected(lambda r: r["metrics"].pop())

    def test_rejects_an_unknown_metric(self):
        self.assert_rejected(lambda r: r["metrics"].append(
            {"name": "extra", "unit": "s", "value": 1.0, "n": 1}))

    def test_rejects_a_repeated_metric(self):
        self.assert_rejected(lambda r: r["metrics"].append(dict(r["metrics"][0])))

    def test_rejects_a_non_finite_value(self):
        for bad in (math.nan, math.inf, None, "1.0", True):
            self.assert_rejected(lambda r, b=bad: r["metrics"][0].update(value=b))

    def test_rejects_a_missing_or_wrong_unit(self):
        self.assert_rejected(lambda r: r["metrics"][0].pop("unit"))
        self.assert_rejected(lambda r: r["metrics"][0].update(unit="parsecs"))
        self.assert_rejected(lambda r: r["metrics"][0].update(unit=""))

    def test_rejects_a_missing_sample_count(self):
        self.assert_rejected(lambda r: r["metrics"][0].pop("n"))
        self.assert_rejected(lambda r: r["metrics"][0].update(n=0))
        self.assert_rejected(lambda r: r["metrics"][0].update(n=2.5))

    def test_rejects_bad_counts(self):
        self.assert_rejected(lambda r: r.update(attempted=0))
        self.assert_rejected(lambda r: r.update(failed=-1))
        self.assert_rejected(lambda r: r.update(failed=101))
        self.assert_rejected(lambda r: r.pop("correct"))

    def test_trace_runs_need_the_per_layer_metrics(self):
        raw = raw_output(False)
        with self.assertRaises(contract.ContractError):
            self.check(raw, trace=True)

    def test_result_line_must_have_exactly_its_keys(self):
        result = self.check(raw_output(False))
        result["extra"] = 1
        with self.assertRaises(contract.ContractError):
            contract.check_result(result, SPEC, False)


if __name__ == "__main__":
    unittest.main()
