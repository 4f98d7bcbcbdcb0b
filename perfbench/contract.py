"""Checks of the benchmark's output against its contract.

The C++ binary prints one JSON object as its last stdout line, with every
metric as {name, unit, value, n}. `to_result` checks that object against
BENCHMARK.json and turns it into the contract's result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics":
     {name: {"value": ..., "unit": ...}}}

With --trace 0 the metrics are exactly the end_to_end metrics, with
--trace 1 exactly the per_layer metrics. Every metric must carry a unit,
a finite value and a sample count of at least 1.
"""

import math
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class ContractError(Exception):
    pass


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_spec(spec):
    """Raises ContractError if BENCHMARK.json breaks the contract's limits."""
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != want:
        raise ContractError(f"BENCHMARK.json keys {sorted(spec)} != {sorted(want)}")
    names = set()

    def name(n):
        if not isinstance(n, str) or not NAME_RE.match(n) or n in names:
            raise ContractError(f"bad or repeated name {n!r}")
        names.add(n)

    if not 2 <= len(spec["workloads"]) <= 8:
        raise ContractError("need 2 to 8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            raise ContractError(f"bad workload {w!r}")
        name(w["name"])
    if not 1 <= len(spec["end_to_end"]) <= 16:
        raise ContractError("need 1 to 16 end_to_end metrics")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"}:
            raise ContractError(f"bad end_to_end metric {m!r}")
        name(m["name"])
        if not UNIT_RE.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            raise ContractError(f"bad unit/better in {m!r}")
        if not (_is_number(m["bound"]) and 0 < m["bound"] <= 0.25):
            raise ContractError(f"bound out of range in {m!r}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise ContractError("setup_s (s, lower) is required")
    if not 1 <= len(spec["per_layer"]) <= 128:
        raise ContractError("need 1 to 128 per_layer metrics")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            raise ContractError(f"bad per_layer metric {m!r}")
        name(m["name"])
        if not UNIT_RE.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            raise ContractError(f"bad unit/better in {m!r}")
    rs = spec["run_seconds"]
    if not (_is_int(rs) and 1 <= rs <= 60):
        raise ContractError("run_seconds must be a whole number from 1 to 60")


def to_result(raw, spec, trace):
    """Checks the binary's JSON object; returns the contract result dict."""
    if not isinstance(raw, dict):
        raise ContractError("output is not a JSON object")
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in raw:
            raise ContractError(f"missing key {key!r}")
    if not isinstance(raw["correct"], bool):
        raise ContractError("correct must be a boolean")
    attempted, failed = raw["attempted"], raw["failed"]
    if not (_is_int(attempted) and attempted >= 1):
        raise ContractError("attempted must be a whole number >= 1")
    if not (_is_int(failed) and 0 <= failed <= attempted):
        raise ContractError("failed must be a whole number in [0, attempted]")

    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = {}
    for m in raw["metrics"]:
        name = m.get("name")
        if not isinstance(name, str) or not NAME_RE.match(name):
            raise ContractError(f"bad metric name {name!r}")
        if name in metrics:
            raise ContractError(f"metric {name} reported twice")
        unit = m.get("unit")
        if not isinstance(unit, str) or not UNIT_RE.match(unit):
            raise ContractError(f"metric {name} has no valid unit")
        value = m.get("value")
        if not _is_number(value) or not math.isfinite(value):
            raise ContractError(f"metric {name} has no finite value")
        n = m.get("n")
        if not (_is_int(n) and n >= 1):
            raise ContractError(f"metric {name} has no sample count >= 1")
        if name not in expected:
            raise ContractError(f"metric {name} is not in BENCHMARK.json")
        if unit != expected[name]:
            raise ContractError(
                f"metric {name} unit {unit!r} != BENCHMARK.json {expected[name]!r}")
        metrics[name] = {"value": value, "unit": unit}
    missing = sorted(set(expected) - set(metrics))
    if missing:
        raise ContractError(f"metrics missing: {', '.join(missing)}")
    result = {
        "correct": raw["correct"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    check_result(result, spec, trace)
    return result


def check_result(result, spec, trace):
    """Checks the final result line itself, exactly as printed."""
    if set(result) != RESULT_KEYS:
        raise ContractError(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    expected = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != expected:
        raise ContractError("result metrics differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"}:
            raise ContractError(f"metric {name} must have exactly value and unit")
        if not _is_number(m["value"]) or not math.isfinite(m["value"]):
            raise ContractError(f"metric {name} value is not finite")
