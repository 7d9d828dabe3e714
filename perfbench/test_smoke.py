"""The benchmark's own tests: catalog, smoke-size runs of every workload, and refusal without sources.

Run with ``python -m pytest -q perfbench``. Each smoke run is a subprocess
of ``run.py --size smoke``, a few seconds at most.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from workloads import SIZES, scored_cells, trained_cells  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(run_py: Path, workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def test_catalog_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]] == \
        [tuple(m) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == metrics.per_layer_catalog("full")
    assert set(WORKLOADS) == set(SIZES["full"]) == set(SIZES["smoke"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_and_passes_the_gate(workload, trace):
    proc = _run(HERE / "run.py", workload, trace, HERE.parent)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    # the gate checks every cell of every repetition and then the outputs
    cells = scored_cells("smoke") if workload == "infer" else trained_cells(workload, "smoke")
    assert result["attempted"] > len(cells)
    expected = ([(m, u) for m, u, _, _ in metrics.END_TO_END] if trace == 0
                else metrics.per_layer_catalog("smoke"))
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    lines = proc.stdout.splitlines()[:-1]
    for name, unit in expected:
        assert any(line.split()[:1] == [name] and line.endswith(" " + unit) for line in lines), name


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / HERE.name / "run.py", "infer", 0, tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
