"""Smoke tests for the benchmark's own code, at a tiny size."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from urania import evaluate  # noqa: E402
from urania.geocentric import GeocentricPosition  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = harness.Sizes(stream=40, side_queries=10, side_processes=1, io_passes=1)


def run(workload, trace=0):
    return harness.run(workload, seed=3, seconds=0.05, trace=trace, root=ROOT, sizes=TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_reported(workload, trace):
    final, report = run(workload, trace)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    assert report["failed_frac"] == 0.0
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in final["metrics"].items()
    }
    for name, m in final["metrics"].items():
        assert math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] != 0, name
    assert report["counts"]["opcount.table.transcendental_calls"] == 0


def test_bad_answer_raises_failed_frac(monkeypatch):
    real = evaluate.geocentric_at_table

    def off_by_ten_degrees(tables, planet, jd, counter=None):
        pos = real(tables, planet, jd, counter=counter)
        return GeocentricPosition(lam=(pos.lam + 10.0) % 360.0, beta=pos.beta, delta=pos.delta)

    monkeypatch.setattr(evaluate, "geocentric_at_table", off_by_ten_degrees)
    final, report = run("table-sweep")
    assert not final["correct"] and final["failed"] > 0
    assert report["failed_frac"] > 0
    assert "deviates between modes" in report["failures"]


def test_raising_query_counts_as_failed(tmp_path, monkeypatch):
    ctx = harness.prepare(tmp_path, 3, TINY, harness.Tracer())

    def broken(tables, planet, jd, counter=None):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(evaluate, "geocentric_at_table", broken)
    before = ctx.gate.failed
    harness.sweep(ctx, harness.Tracer(), "table", count=10)
    assert ctx.gate.failed > before
    assert ctx.gate.reasons["raised ZeroDivisionError"] > 0


def test_counts_repeat_at_one_seed(tmp_path):
    first = harness.prepare(tmp_path / "a", 5, TINY, harness.Tracer()).counts
    second = harness.prepare(tmp_path / "b", 5, TINY, harness.Tracer()).counts
    assert first == second


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "table-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
