"""Smoke test of the benchmark: the same pipeline on P_3, in a few seconds.

    python3 -m pytest benchmarks/test_smoke.py
"""

import copy
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _run(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke_p3",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def _check_result(result: dict, kind: str) -> dict:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(workloads.WORKLOADS["smoke_p3"].requests)
    units = {k: m["unit"] for k, m in result["metrics"].items()}
    assert units == _declared(kind)
    return {k: m["value"] for k, m in result["metrics"].items()}


def test_end_to_end_metrics():
    values = _check_result(_run(0), "end_to_end")
    assert all(v > 0 for v in values.values())


def test_per_layer_metrics_add_up():
    values = _check_result(_run(1), "per_layer")
    layers = sum(values[name] for name in spans.LAYERS)
    total = layers + values["trace.unattributed_s"]
    assert math.isclose(total, values["trace.total_s"], rel_tol=1e-9)
    assert values["biorder.squares_found"] == 240
    assert values["biorder.triangles_found"] == 63
    assert values["diagram.product_calls"] >= values["diagram.product_distinct"] > 0


def test_gate_reports_perturbed_pins():
    wl = workloads.WORKLOADS["smoke_p3"]
    p = run.run_pass(wl, range(len(wl.requests)))
    pins = workloads.PINS["smoke_p3"]
    assert p.check(pins) == 0

    def failures(edit) -> int:
        perturbed = copy.deepcopy(pins)
        edit(perturbed)
        return p.check(perturbed)

    # A class pin fails every request of that rank; a request pin only its own.
    assert failures(lambda q: q["classes"][1].update(squares=241)) == 2
    assert failures(lambda q: q["classes"][1].update(squares_sha256="0" * 64)) == 2
    assert failures(lambda q: q["classes"][0].update(triangles=64)) == 1
    assert failures(lambda q: q["requests"]["ig_squares@1"].update(relators=180)) == 1
    assert failures(
        lambda q: q["requests"]["pg_squares@1"].update(
            verdict=("finite", None, 2, "S_2", "certified")
        )
    ) == 1
