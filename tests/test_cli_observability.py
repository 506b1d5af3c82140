"""The observability flags ``harvest``, ``evaluate`` and ``serve`` share.

All three commands run through one instrument lifecycle in
``repro.__main__``: the same six flags install the same per-run
instruments, print the same summaries, write the same metrics dump,
manifest and history record, and put the process-wide no-op
instruments back afterwards.
"""

import json

import pytest

from repro.__main__ import main
from repro.obs import (
    NULL_METRICS,
    NULL_MONITORS,
    NULL_PROFILER,
    NULL_TRACER,
    RunHistory,
    get_metrics,
    get_monitors,
    get_profiler,
    get_tracer,
)
from tests.conftest import make_uniform_dataset

#: The manifest ``config`` keys of each command; readers of saved
#: manifests and run histories key on them.
CONFIG_KEYS = {
    "harvest": {"scenario", "rows", "batch_size", "seed", "policy", "out",
                "ledger", "shard_size", "workers"},
    "evaluate": {"backend", "mode", "policies", "estimators", "chunk_size",
                 "workers", "seed", "bootstrap"},
    "serve": {"scenario", "policy", "swap_policies", "pool_rows", "seed",
              "shard_size", "burst", "eval_every"},
}


def _command(kind, tmp_path):
    """The uninstrumented argv of one parametrized case."""
    if kind == "harvest":
        return ["harvest", "machinehealth", str(tmp_path / "mh.jsonl"),
                "--rows", "2000", "--seed", "3"]
    if kind == "serve":
        return ["serve", "synthetic", "--burst", "2000", "--pool-rows", "64",
                "--log", str(tmp_path / "serve.jsonl")]
    log = tmp_path / "log.jsonl"
    make_uniform_dataset(500, seed=11).save_jsonl(str(log))
    backend = kind.split("-")[1]
    return ["evaluate", str(log), "--backend", backend,
            "--policy", "uniform", "--policy", "constant:1",
            "--bootstrap", "50", "--seed", "7"]


@pytest.mark.parametrize(
    "kind", ["harvest", "evaluate-chunked", "evaluate-vectorized", "serve"]
)
def test_all_flags_share_one_lifecycle(kind, tmp_path, capsys):
    argv = _command(kind, tmp_path)
    command = argv[0]
    metrics_out = tmp_path / "metrics.prom"
    manifest_out = tmp_path / "manifest.json"
    history = str(tmp_path / "runs.jsonl")
    if command != "serve":
        assert main(argv) == 0
        plain_out = capsys.readouterr().out

    code = main(argv + [
        "--trace", "--monitors", "--profile",
        "--metrics-out", str(metrics_out),
        "--manifest", str(manifest_out),
        "--history", history,
    ])
    captured = capsys.readouterr()

    assert code == 0
    manifest = json.loads(manifest_out.read_text())
    assert manifest["command"] == command
    assert set(manifest["config"]) == CONFIG_KEYS[command]
    assert manifest["spans"]
    assert "# TYPE " in metrics_out.read_text()
    records = RunHistory(history).records()
    assert [record["command"] for record in records] == [command]
    assert "trace (top spans by wall time):" in captured.err
    assert "health: " in captured.err
    assert "profile" in captured.err
    assert get_tracer() is NULL_TRACER
    assert get_metrics() is NULL_METRICS
    assert get_monitors() is NULL_MONITORS
    assert get_profiler() is NULL_PROFILER
    if command != "serve":
        assert captured.out == plain_out


def test_serve_trace_records_a_serve_span(tmp_path, capsys):
    manifest_out = tmp_path / "manifest.json"
    code = main(["serve", "synthetic", "--burst", "2000", "--pool-rows", "64",
                 "--trace", "--manifest", str(manifest_out)])
    err = capsys.readouterr().err
    assert code == 0
    assert "trace (top spans by wall time):" in err
    assert "  serve " in err
    spans = json.loads(manifest_out.read_text())["spans"]
    assert [span["name"] for span in spans] == ["serve"]
    assert spans[0]["attributes"] == {"scenario": "synthetic", "burst": 2000}


def test_uninstrumented_run_installs_nothing(tmp_path, capsys, monkeypatch):
    import repro.__main__ as cli

    def refuse(*_args, **_kwargs):
        raise AssertionError("an uninstrumented run built an instrument")

    for name in ("Tracer", "MetricsRegistry", "MonitorSuite", "SpanProfiler"):
        monkeypatch.setattr(cli, name, refuse)
    assert main(_command("harvest", tmp_path)) == 0
    assert main(_command("serve", tmp_path)) == 0
    capsys.readouterr()
