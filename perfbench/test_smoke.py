"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from isacthz.mcsim import McEstimate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _reference_rows(table: str) -> list:
    rows = []
    for key, values in workloads.load_reference()["tables_cold"][table].items():
        scheme, r1, db = key.split("|")
        rows.append({"scheme": scheme, "r1_m": r1, "threshold_db": db,
                     **dict(zip(workloads.COVERAGE_COLUMNS, map(str, values)))})
    return rows


def test_perturbed_table_cell_fails():
    table = "coverage_derivation"
    reference = workloads.load_reference()["tables_cold"][table]
    rows = _reference_rows(table)
    assert workloads.check_table(table, rows, reference) == set()

    nudged = copy.deepcopy(rows)
    nudged[4]["p_cm"] = str(float(nudged[4]["p_cm"]) - 1e-3)
    assert workloads.check_table(table, nudged, reference) == {4}

    # without a reference, the range and monotonicity checks still bite
    out_of_range = copy.deepcopy(rows)
    out_of_range[2]["p_ms"] = "1.5"
    assert workloads.check_table(table, out_of_range, None) == {2}
    rising = copy.deepcopy(rows)
    rising[2]["p_cvp"] = str(float(rising[1]["p_cvp"]) + 1e-3)
    assert workloads.check_table(table, rising, None) == {2}


def test_perturbed_inversion_cell_fails():
    grid = workloads.load_reference()["inversion_warm"]
    db = workloads.INVERSION_THRESHOLD_DB
    assert workloads.check_grid(grid, db, grid)[:2] == (252, 0)
    nudged = copy.deepcopy(grid)
    nudged[5][7] += 1e-4
    assert workloads.check_grid(nudged, db, grid)[:2] == (252, 1)
    nudged[5][7] = "QuadratureError: did not converge"
    assert workloads.check_grid(nudged, db, None)[:2] == (252, 1)


def test_perturbed_estimate_fails():
    oracle = workloads.McOracle(1, tiny=True)
    ref = workloads.load_reference()["mc_oracle"]
    sigma = 1e-3

    def outputs(shift_blockage, shift_open):
        def est(name, shift=0.0):
            return McEstimate(ref[name] + shift, sigma, 10_000)
        return {
            "blockage": {"blockage": est("blockage", shift_blockage)},
            "timeout": {"timeout": est("timeout")},
            "misalignment": {k: est(k) for k in ("p_err", "p_to", "p_ms")},
            "coverage_urban": {"coverage_urban": est("coverage_urban")},
            "coverage_open": {"coverage_open": est("coverage_open", shift_open)},
        }

    assert oracle.check(outputs(3.9 * sigma, 0.019))[:2] == (5, 0)
    assert oracle.check(outputs(4.1 * sigma, 0.0))[:2] == (5, 1)
    assert oracle.check(outputs(0.0, 0.021))[:2] == (5, 1)


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_traced_and_untraced_outputs_are_identical(cls):
    wl = cls(1, tiny=True)
    wl.setup()
    plain = wl.run_pass()
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        wl.setup()
        traced = wl.run_pass(tracer)
    assert traced.outputs == plain.outputs
    assert wl.check(plain.outputs)[1] == 0
    assert len(tracer.names) > 0
    # leaving the block restores every patched name
    assert workloads.coverage.coverage_probability.__module__ == "isacthz.coverage"
    assert not hasattr(workloads.coverage.coverage_probability, "__wrapped__")
