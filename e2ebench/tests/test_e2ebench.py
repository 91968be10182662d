"""The benchmark's own tests: BENCHMARK.json's schema and tiny smoke runs.

The smoke runs call ``e2ebench/run.py`` as a subprocess at the tiny
scale (seconds, not minutes) and check the result line's shape against
BENCHMARK.json, so a run the benchmark's contract would refuse fails
here first.
"""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def _run(*args: str, cwd: Path = ROOT, timeout: float = 300) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_benchmark_json_schema():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    command = SPEC["command"]
    assert 1 <= len(command) <= 32 and all(isinstance(a, str) and len(a) <= 200 for a in command)
    assert not any(a.startswith("/") or ".." in a.split("/") for a in command)
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    for entry in entries:
        assert NAME.match(entry["name"]), entry
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher"), metric
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def _expected(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_untraced_run_reports_every_end_to_end_metric(workload):
    seconds = "3" if workload == "serve-mixed" else "2"
    completed = _run("--workload", workload, "--seed", "3", "--seconds", seconds, "--scale", "tiny")
    result = _result(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == _expected("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert '"fingerprint"' in completed.stdout and '"why": ' in completed.stdout


def test_tiny_traced_runs_repeat_their_counts():
    # 30 s: two independent streams, as at full scale
    args = ("--workload", "oreo-tpch", "--seed", "5", "--seconds", "30", "--trace", "1", "--scale", "tiny")
    first = _run(*args)
    second = _run(*args)
    for completed in (first, second):
        result = _result(completed)
        assert result["correct"] is True
        got = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert got == _expected("per_layer")
        assert result["metrics"]["trace.unaccounted_frac"]["value"] < 0.05
    assert "compared with" in second.stdout


def test_tiny_traced_serve_run_links_server_spans():
    completed = _run(
        "--workload", "serve-mixed", "--seed", "5", "--seconds", "10", "--trace", "1",
        "--scale", "tiny",
    )
    metrics = _result(completed)["metrics"]
    # the warm-up consolidation, then one after the fifth ingest
    assert metrics["core.switches"]["value"] == 2
    assert metrics["queries.parse_s"]["value"] > 0
    assert metrics["server.admission_s"]["value"] > 0
    assert metrics["engine.wal_append_s"]["value"] > 0
    assert metrics["trace.unaccounted_frac"]["value"] < 0.2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", "oreo-tpch", "--seed", "1", "--seconds", "1", cwd=tmp_path, timeout=60)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def _spans_module():
    spec = importlib.util.spec_from_file_location("e2ebench_spans", BENCH_DIR / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_self_time_subtracts_the_union_of_parallel_children():
    spans = _spans_module()
    parent = spans.Span(1, "engine.fanout", 0.0, None, end=10.0)
    children = [
        spans.Span(2, "engine.facade", 1.0, 1, end=6.0),
        spans.Span(3, "engine.facade", 2.0, 1, end=7.0),  # overlaps the first
        spans.Span(4, "engine.merge", 8.0, 1, end=12.0),  # clipped at the parent's end
    ]
    tree = spans.SpanTree([parent, *children])
    assert tree.self_time(parent) == pytest.approx(10.0 - 6.0 - 2.0)
    assert tree.self_time(children[0]) == pytest.approx(5.0)
