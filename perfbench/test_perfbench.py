"""The benchmark's own tests: contract checks and smoke-size runs.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Every workload runs at smoke size in both modes, so a change that
breaks a command, a correctness check or the layer tracer shows here
in about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from common import BENCH_DIR, ROOT, tail
from run import WORKLOADS, histogram_quantile

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def catalog() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_contract(catalog):
    assert set(catalog) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert catalog["paths"] == ["perfbench"]
    assert 1 <= catalog["run_seconds"] <= 60
    names = [w["name"] for w in catalog["workloads"]]
    assert sorted(names) == sorted(WORKLOADS)
    for workload in catalog["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    seen = set(names)
    for entry in catalog["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in catalog["end_to_end"] + catalog["per_layer"]:
        assert NAME.match(entry["name"]) and entry["name"] not in seen
        seen.add(entry["name"])
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    for entry in catalog["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    setup = [e for e in catalog["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(e["bound"] for e in catalog["end_to_end"])}]


def test_every_layer_metric_names_what_it_should_move(catalog):
    with open(BENCH_DIR / "layer_map.json", encoding="utf-8") as handle:
        layer_map = json.load(handle)
    assert list(layer_map) == [e["name"] for e in catalog["per_layer"]]
    end_to_end = {e["name"] for e in catalog["end_to_end"]}
    for name, entry in layer_map.items():
        assert entry["layer"], name
        assert set(entry) <= {"layer", "moves", "no_change_on", "note"}, name
        for move in entry["moves"]:
            assert move["metric"] in end_to_end, name
            assert move["workload"] in WORKLOADS, name
        assert set(entry["no_change_on"]) <= set(WORKLOADS), name


def _run(workload: str, trace: int, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_smoke(catalog, workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = catalog["per_layer"] if trace else catalog["end_to_end"]
    assert list(result["metrics"]) == [e["name"] for e in section]
    for entry in section:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        if not trace:
            assert metric["value"] > 0, entry["name"]
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        # Layer self times never exceed the command they were charged in.
        walls = [k for k in values if k.startswith("cmd.") and k.endswith(".wall_s")]
        assert any(values[k] > 0 for k in walls)
        assert values["parse.passes_per_row"] >= 1.0
    assert not (ROOT / ".perfbench_work").exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("audit-lb", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert tail(range(10)) == (None, None)
    assert tail(range(1, 21)) == (50.0, 10)
    assert tail(range(1, 1001)) == (99.0, 990)


def test_histogram_quantile_interpolates_within_a_bucket():
    text = "\n".join([
        'repro_serve_request_seconds_bucket{op="act",le="0.001"} 50',
        'repro_serve_request_seconds_bucket{op="act",le="0.005"} 100',
        'repro_serve_request_seconds_bucket{op="act",le="+Inf"} 100',
        'repro_serve_request_seconds_bucket{op="flush",le="0.001"} 0',
    ])
    assert histogram_quantile(text, 0.5) == pytest.approx(0.001)
    assert histogram_quantile(text, 0.75) == pytest.approx(0.003)
