"""Tiny-scale runs of every workload through the real runner."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as runner
from layers import LAYER_METRICS
from spans import Span, self_times

BENCH = Path(runner.__file__).resolve().parent
ROOT = BENCH.parent


def _drive(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_every_workload_smoke_runs_traced_and_untraced():
    done = _drive(
        "--workload", "all", "--seed", "5", "--seconds", "0",
        "--trace", "1", "--scale", "0.02",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    for workload in runner.WORKLOADS:
        for name, unit, _better in LAYER_METRICS:
            metric = result["metrics"][f"{workload}.{name}"]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], float)
        assert f"== {workload}:" in done.stdout
    # The written spans' self times add up to the traced run's wall time.
    trace = json.loads(
        (BENCH / "out" / "trace-cello-offline-seed5.json").read_text()
    )["spans"]
    assert "core.mwis.build_graph" in trace["names"]
    spans = [
        Span(trace["names"][n], start, end, parent)
        for n, start, end, parent in zip(
            trace["name"], trace["start_s"], trace["end_s"], trace["parent"]
        )
    ]
    assert spans[0].name == "run"
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_untraced_result_line_has_every_end_to_end_metric():
    done = _drive(
        "--workload", "serve-online", "--seed", "2", "--seconds", "0",
        "--trace", "0", "--scale", "0.02",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] == runner.MIN_RUNS * 400
    assert {name for name in result["metrics"]} == {n for n, _u, _b in runner.E2E_METRICS}
    for name, _unit, _better in runner.E2E_METRICS:
        assert result["metrics"][name]["value"] > 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        runner.E2E_METRICS
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        LAYER_METRICS
    )
    assert [w["name"] for w in spec["workloads"]] == list(runner.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _drive(
        "--workload", "cello-online", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
