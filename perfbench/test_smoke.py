"""Smoke tests of the benchmark on MINI-sized workloads (about a minute).

Run from the root of the checkout::

    python3 -m pytest perfbench/test_smoke.py -q

They drive ``perfbench/run.py --smoke`` end to end, so both workload
code paths (serial and pooled global-local) run with their output
checks, predictor sampling included, and assert the metric names and
units ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_json_matches_workloads():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import FULL, SMOKE

    assert [w["name"] for w in BENCH["workloads"]] == list(FULL) == list(SMOKE)
    assert [w["why"] for w in BENCH["workloads"]] == [w.why for w in FULL.values()]


def detail_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-2])["detail"]


@pytest.fixture(scope="module")
def traced():
    procs = {name: run(name, 1) for name in ("cls1_global_local", "cls1_global_local_pool2")}
    # The traced pooled run runs its serial twin and compares trees itself.
    twin = detail_of(procs["cls1_global_local_pool2"])["twin"]
    assert twin["status"] == "match" and all(twin["job"]["checks"].values()), twin
    return {name: result_of(proc) for name, proc in procs.items()}


# The serial workload runs before the pooled one, so the pooled run finds
# its twin's tree digest and compares against it.
@pytest.mark.parametrize("workload", ["cls1_global_local", "cls1_global_local_pool2"])
def test_end_to_end_metrics_and_checks(workload):
    proc = run(workload, 0)
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # The run's reduction is the median over the first job's predictors,
    # and rescoring the timed predictor reproduced the timed flow.
    first = detail_of(proc)["jobs"][0]
    samples = first["reduction_samples"]
    assert len(samples) == 3 and first["checks"]["samples_reproduce_flow"]
    assert result["metrics"]["variation_reduction_pct"]["value"] == sorted(samples)[1]
    if workload == "cls1_global_local_pool2":
        twin = detail_of(proc)["twin"]
        assert twin["status"] == "match" and twin["twin"] == "cls1_global_local"


def test_per_layer_metrics_and_shares(traced):
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    values = {}
    for name, result in traced.items():
        assert result["correct"], name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        values[name] = {k: v["value"] for k, v in result["metrics"].items()}

    serial = values["cls1_global_local"]
    assert all(serial[k] == 0 for k in units if k.startswith("parallel."))
    assert serial["local.featurize_calls"] > 0 and serial["sta.move_evals"] > 0
    assert serial["eco.realize_calls"] > 0 and serial["eco.tables_built"] > 0
    pooled = values["cls1_global_local_pool2"]
    assert pooled["parallel.calls"] > 0 and pooled["parallel.call_wait_s"] > 0
    assert serial["eco.table_hit_rate"] == pytest.approx(
        serial["eco.table_hits"] / (serial["eco.table_hits"] + serial["eco.tables_built"])
    )


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("cls1_global_local", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
