"""Smoke tests for the command-line entry point and quickstart."""

import subprocess
import sys

import pytest

from repro.__main__ import main, parse_policy
from tests.conftest import make_uniform_dataset


def test_python_m_repro_prints_catalog():
    result = subprocess.run(
        [sys.executable, "-m", "repro"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert "Harvesting Randomness" in result.stdout
    assert "fig3" in result.stdout
    assert "table2" in result.stdout
    assert "pytest benchmarks/" in result.stdout


def test_quickstart_example_runs():
    result = subprocess.run(
        [sys.executable, "examples/quickstart.py"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "harvested 5000 exploration points" in result.stdout
    assert "constant[1]" in result.stdout


def test_main_module_returns_zero():
    assert main([]) == 0


@pytest.fixture
def log_path(tmp_path):
    path = tmp_path / "exploration.jsonl"
    make_uniform_dataset(200, seed=11).save_jsonl(str(path))
    return str(path)


class TestEvaluateSubcommand:
    def _run(self, extra, capsys):
        code = main(["evaluate"] + extra)
        out = capsys.readouterr().out
        return code, out

    def test_default_backend_is_vectorized(self, log_path, capsys):
        code, out = self._run([log_path], capsys)
        assert code == 0
        assert "backend: vectorized" in out
        assert "uniform-random" in out
        assert "ips" in out

    def test_backends_print_identical_estimates(self, log_path, capsys):
        args = [
            log_path,
            "--policy", "constant:1",
            "--policy", "eps:0:0.2",
            "--estimator", "ips",
            "--estimator", "snips",
        ]
        code_v, out_v = self._run(args + ["--backend", "vectorized"], capsys)
        code_s, out_s = self._run(args + ["--backend", "scalar"], capsys)
        code_c, out_c = self._run(
            args + ["--backend", "chunked", "--chunk-size", "33"], capsys
        )
        assert code_v == code_s == code_c == 0
        # Identical tables modulo the backend banner line.
        strip = lambda out: out.splitlines()[1:]  # noqa: E731
        assert strip(out_v) == strip(out_s) == strip(out_c)

    def test_chunked_banner_reports_chunks(self, log_path, capsys):
        code, out = self._run(
            [log_path, "--backend", "chunked", "--chunk-size", "64"], capsys
        )
        assert code == 0
        assert "backend: chunked" in out
        assert "4 chunks" in out  # 200 rows / 64 per chunk

    def test_chunked_workers_match_serial(self, log_path, capsys):
        # --workers drives only the seeded bootstrap: the estimates and
        # the intervals must not move with it.
        args = [
            log_path,
            "--backend", "chunked",
            "--chunk-size", "25",
            "--policy", "constant:1",
            "--estimator", "ips",
            "--estimator", "dr",
            "--bootstrap", "300",
            "--seed", "5",
        ]
        code_1, out_1 = self._run(args + ["--workers", "1"], capsys)
        code_2, out_2 = self._run(args + ["--workers", "2"], capsys)
        assert code_1 == code_2 == 0
        assert "bootstrap[ips, n_boot=300, seed=5]" in out_1
        assert out_1 == out_2

    @pytest.mark.parametrize("flag, value, message", [
        ("--workers", "0", "--workers must be >= 1"),
        ("--workers", "-2", "--workers must be >= 1"),
        ("--chunk-size", "0", "--chunk-size must be >= 1"),
        ("--bootstrap", "5", "--bootstrap must be 0 (off) or >= 10"),
        ("--bootstrap", "-3", "--bootstrap must be 0 (off) or >= 10"),
    ])
    def test_rejects_bad_numeric_flags(
        self, log_path, capsys, flag, value, message
    ):
        code = main(["evaluate", log_path, "--backend", "chunked",
                     flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.strip() == f"error: {message}"
        assert captured.out == ""

    def test_default_backend_restored_after_run(self, log_path, capsys):
        from repro.core.engine import get_default_backend, set_default_backend

        self._run([log_path, "--backend", "scalar"], capsys)
        # The flag is an explicit process-wide switch, documented as such.
        assert get_default_backend() == "scalar"
        set_default_backend("vectorized")

    def test_empty_log_errors(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["evaluate", str(path)]) == 1

    def test_bad_policy_spec_rejected(self):
        with pytest.raises(Exception):
            parse_policy("nonsense:1:2:3")


class TestValidationModeFlag:
    def _dirty_log(self, tmp_path):
        import json

        path = tmp_path / "dirty.jsonl"
        lines = []
        dataset = make_uniform_dataset(100, seed=19)
        for i, interaction in enumerate(dataset):
            record = {
                "context": interaction.context,
                "action": interaction.action,
                "reward": interaction.reward,
                "propensity": interaction.propensity,
                "timestamp": interaction.timestamp,
            }
            line = json.dumps(record)
            if i % 10 == 5:
                line = line[: len(line) // 2]  # truncate every 10th
            lines.append(line)
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_strict_default_fails_on_dirty_log(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(["evaluate", self._dirty_log(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "line" in captured.err

    def test_quarantine_mode_evaluates_and_reports(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(
            ["evaluate", self._dirty_log(tmp_path), "--mode", "quarantine"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "ips" in captured.out
        assert "rejected" in captured.err

    def test_repair_mode_accepted(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(
            ["evaluate", self._dirty_log(tmp_path), "--mode", "repair"]
        )
        assert code == 0


class TestBootstrapFlag:
    def _run(self, extra, capsys):
        code = main(["evaluate"] + extra)
        out = capsys.readouterr().out
        return code, out

    def _bootstrap_lines(self, out):
        return [l for l in out.splitlines() if l.startswith("bootstrap[")]

    def test_bootstrap_prints_interval_per_policy(self, log_path, capsys):
        code, out = self._run(
            [log_path, "--policy", "constant:1", "--policy", "uniform",
             "--bootstrap", "200"],
            capsys,
        )
        assert code == 0
        lines = self._bootstrap_lines(out)
        assert len(lines) == 2
        assert all("[" in line and "]" in line for line in lines)

    def test_seeded_bootstrap_reproduces_bit_for_bit(self, log_path, capsys):
        args = [log_path, "--policy", "constant:1",
                "--bootstrap", "300", "--seed", "9"]
        _, out_a = self._run(list(args), capsys)
        _, out_b = self._run(list(args), capsys)
        assert self._bootstrap_lines(out_a) == self._bootstrap_lines(out_b)
        assert "seed=9" in self._bootstrap_lines(out_a)[0]

    def test_seeded_bootstrap_workers_match_serial(self, log_path, capsys):
        args = [log_path, "--policy", "constant:1",
                "--bootstrap", "600", "--seed", "4"]
        _, serial = self._run(args + ["--workers", "1"], capsys)
        _, parallel = self._run(args + ["--workers", "3"], capsys)
        assert self._bootstrap_lines(serial) == self._bootstrap_lines(parallel)

    def test_bootstrap_works_on_chunked_backend(self, log_path, capsys):
        args = [log_path, "--policy", "constant:1",
                "--bootstrap", "300", "--seed", "9"]
        _, in_memory = self._run(list(args), capsys)
        _, chunked = self._run(
            args + ["--backend", "chunked", "--chunk-size", "40"], capsys
        )
        # The IPS terms feeding the bootstrap are identical, so the
        # seeded intervals agree exactly across backends.
        assert (
            self._bootstrap_lines(in_memory)
            == self._bootstrap_lines(chunked)
        )


class TestObservabilityFlags:
    def _run(self, extra, capsys):
        code = main(["evaluate"] + extra)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_trace_prints_top_spans(self, log_path, capsys):
        code, out, err = self._run([log_path, "--trace"], capsys)
        assert code == 0
        assert "trace (top spans by wall time):" in err
        assert "estimate" in err

    def test_trace_leaves_estimates_unchanged(self, log_path, capsys):
        code_plain, out_plain, _ = self._run([log_path], capsys)
        code_traced, out_traced, _ = self._run([log_path, "--trace"], capsys)
        assert code_plain == code_traced == 0
        assert out_plain == out_traced

    def test_metrics_out_writes_prometheus_text(self, log_path, tmp_path,
                                                capsys):
        metrics_path = tmp_path / "metrics.prom"
        code, _out, _err = self._run(
            [log_path, "--metrics-out", str(metrics_path)], capsys
        )
        assert code == 0
        text = metrics_path.read_text()
        assert "# TYPE repro_estimator_verdicts_total counter" in text
        assert "repro_engine_rows_ingested_total" in text

    def test_metrics_out_dash_prints_to_stdout(self, log_path, capsys):
        code, out, _err = self._run([log_path, "--metrics-out", "-"], capsys)
        assert code == 0
        assert "repro_estimator_verdicts_total" in out

    def test_instruments_restored_after_run(self, log_path, capsys):
        from repro.obs.metrics import NullMetrics, get_metrics
        from repro.obs.tracing import NullTracer, get_tracer

        code, _out, _err = self._run(
            [log_path, "--trace", "--metrics-out", "-"], capsys
        )
        assert code == 0
        assert isinstance(get_tracer(), NullTracer)
        assert isinstance(get_metrics(), NullMetrics)

    def test_manifest_written_and_reported(self, log_path, tmp_path, capsys):
        import json

        manifest_path = tmp_path / "run_manifest.json"
        code, _out, err = self._run(
            [log_path,
             "--backend", "chunked", "--chunk-size", "64", "--workers", "2",
             "--policy", "uniform", "--policy", "constant:1",
             "--bootstrap", "300", "--seed", "3",
             "--manifest", str(manifest_path)],
            capsys,
        )
        assert code == 0
        assert str(manifest_path) in err
        data = json.loads(manifest_path.read_text())
        assert data["schema_version"] == 1
        assert data["command"] == "evaluate"
        assert data["config"]["backend"] == "chunked"
        assert len(data["results"]) == 2  # 2 policies × 1 estimator
        assert all("bootstrap" in r for r in data["results"])
        assert "sha256" in data["input"]
        span_names = {s["name"] for s in data["spans"]}
        assert "evaluate.jsonl" in span_names
        assert "bootstrap.replicates" in span_names
        assert "engine.chunk_folds" in data["metrics"]

        # The report subcommand renders the saved manifest.
        code = main(["report", str(manifest_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "top spans by wall time" in out
        assert "uniform-random" in out
        assert "metric totals" in out

    def test_report_missing_file_errors(self, tmp_path, capsys):
        code = main(["report", str(tmp_path / "absent.json")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_report_rejects_bad_schema(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 99}')
        code = main(["report", str(path)])
        assert code == 1
        assert "schema version" in capsys.readouterr().err


class TestAutoEstimator:
    def test_auto_estimator_runs(self, log_path, capsys):
        from repro.__main__ import main

        code = main(
            ["evaluate", log_path, "--estimator", "auto",
             "--policy", "constant:1"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "constant[1]" in captured.out

    def test_unreliable_estimates_flagged_on_stderr(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        # Degenerate log: deterministic choice truthfully logged as
        # propensity 1 — the Table 2 trap the CLI must call out.
        path = tmp_path / "degenerate.jsonl"
        lines = [
            json.dumps(
                {
                    "context": {"load": i / 100},
                    "action": i % 2,
                    "reward": 0.5,
                    "propensity": 1.0,
                    "timestamp": float(i),
                }
            )
            for i in range(101)
        ]
        path.write_text("\n".join(lines) + "\n")
        code = main(
            ["evaluate", str(path), "--policy", "constant:1",
             "--estimator", "ips"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "!" in captured.out  # unreliable marker in the table
        assert "UNRELIABLE" in captured.err


class TestHarvestSubcommand:
    def test_machinehealth_harvest_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "mh.jsonl")
        code = main(
            ["harvest", "machinehealth", out, "--rows", "200", "--seed", "3"]
        )
        stdout = capsys.readouterr().out
        assert code == 0
        assert "harvested 200 rows" in stdout
        assert "machinehealth" in stdout
        # The harvested log feeds straight back into evaluate.
        code = main(["evaluate", out, "--policy", "uniform"])
        assert code == 0
        assert "uniform-random" in capsys.readouterr().out

    def test_loadbalance_harvest(self, tmp_path, capsys):
        out = str(tmp_path / "lb.jsonl")
        code = main(["harvest", "loadbalance", out, "--rows", "150"])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "harvested 150 rows" in stdout

    def test_cache_harvest(self, tmp_path, capsys):
        out = str(tmp_path / "cache.jsonl")
        code = main(
            ["harvest", "cache", out, "--rows", "3000", "--seed", "1"]
        )
        stdout = capsys.readouterr().out
        assert code == 0
        # Cache rows = evictions, fewer than requests but nonzero.
        assert "harvested" in stdout
        assert "cache" in stdout

    def test_batch_size_invariance_through_cli(self, tmp_path, capsys):
        small = str(tmp_path / "small.jsonl")
        large = str(tmp_path / "large.jsonl")
        base = ["harvest", "machinehealth", "--rows", "120", "--seed", "5"]
        assert main(base[:2] + [small] + base[2:] + ["--batch-size", "1"]) == 0
        assert main(base[:2] + [large] + base[2:] + ["--batch-size", "8192"]) == 0
        capsys.readouterr()
        with open(small) as f_small, open(large) as f_large:
            assert f_small.read() == f_large.read()

    def test_rejects_bad_rows(self, tmp_path, capsys):
        code = main(
            ["harvest", "machinehealth", str(tmp_path / "x.jsonl"),
             "--rows", "0"]
        )
        assert code == 1
        assert "must be positive" in capsys.readouterr().err

    def test_rejects_zero_batch_size(self, tmp_path, capsys):
        code = main(
            ["harvest", "machinehealth", str(tmp_path / "x.jsonl"),
             "--batch-size", "0"]
        )
        assert code == 1
        assert "batch-size" in capsys.readouterr().err

    def test_rejects_unknown_policy(self, tmp_path, capsys):
        code = main(
            ["harvest", "machinehealth", str(tmp_path / "x.jsonl"),
             "--rows", "50", "--policy", "nonsense:9"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_observability_flags(self, tmp_path, capsys):
        out = str(tmp_path / "mh.jsonl")
        metrics_out = tmp_path / "metrics.prom"
        manifest_out = tmp_path / "manifest.json"
        code = main(
            ["harvest", "machinehealth", out, "--rows", "100",
             "--trace", "--metrics-out", str(metrics_out),
             "--manifest", str(manifest_out)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "top spans by wall time" in captured.err
        exposition = metrics_out.read_text()
        assert "repro_harvest_rows_generated_total" in exposition
        assert "repro_harvest_batch_seconds" in exposition
        import json

        manifest = json.loads(manifest_out.read_text())
        assert manifest["command"] == "harvest"
        assert manifest["results"][0]["rows_generated"] == 100


class TestServeSubcommand:
    def test_burst_serves_logs_and_verifies(self, tmp_path, capsys):
        import json

        log = str(tmp_path / "serve.jsonl")
        manifest_out = str(tmp_path / "manifest.json")
        code = main(
            ["serve", "synthetic", "--burst", "500", "--pool-rows", "64",
             "--seed", "4", "--log", log, "--manifest", manifest_out,
             "--clients", "2", "--ask", "32"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "serving synthetic on 127.0.0.1" in captured.err
        assert "burst: 500 decisions" in captured.err
        manifest = json.loads(open(manifest_out).read())
        assert manifest["command"] == "serve"
        assert manifest["serving"]["served"] == 500
        assert manifest["serving"]["incumbent"]["name"] == "incumbent"
        # The serve log is a verifiable chain against its manifest…
        assert main(["verify-ledger", log, "--manifest", manifest_out]) == 0
        capsys.readouterr()
        # …and the offline evaluate toolchain ingests it unchanged.
        assert main(["evaluate", log, "--policy", "uniform"]) == 0
        assert "uniform-random" in capsys.readouterr().out

    def test_swap_policy_candidates_are_registered(self, tmp_path, capsys):
        import json

        manifest_out = str(tmp_path / "manifest.json")
        code = main(
            ["serve", "synthetic", "--burst", "100", "--pool-rows", "64",
             "--log", str(tmp_path / "s.jsonl"),
             "--swap-policy", "greedy=constant:1",
             "--swap-policy", "explore=eps:0:0.2",
             "--manifest", manifest_out]
        )
        capsys.readouterr()
        assert code == 0
        manifest = json.loads(open(manifest_out).read())
        assert manifest["config"]["swap_policies"] == [
            "greedy=constant:1", "explore=eps:0:0.2"
        ]

    def test_monitors_flag_prints_serving_health(self, tmp_path, capsys):
        code = main(
            ["serve", "synthetic", "--burst", "200", "--pool-rows", "64",
             "--monitors"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "serve.latency" in captured.err
        assert "serve.errors" in captured.err
        assert "health: OK" in captured.err

    def test_rejects_bad_swap_spec(self, capsys):
        code = main(
            ["serve", "synthetic", "--burst", "10",
             "--swap-policy", "no-equals-sign"]
        )
        assert code == 1
        assert "--swap-policy" in capsys.readouterr().err

    def test_rejects_bad_pool_rows(self, capsys):
        code = main(["serve", "synthetic", "--burst", "10",
                     "--pool-rows", "0"])
        assert code == 1
        assert "--pool-rows" in capsys.readouterr().err
