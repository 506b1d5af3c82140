"""Unit tests for the perf regression gate (benchmarks/perf/gate.py)."""

import json

import pytest

from benchmarks.perf.gate import check_regressions, main


def artifact(single=2.9, klass=90.0, chunked=4.0, boot=0.5,
             instr=1.0, harvest=(25.0, 60.0, 13.0), ledger=0.95,
             obs=0.95, serve=75_000.0):
    return {
        "single_policy_ips": {"speedup": single},
        "class_search": {"speedup": klass},
        "chunked": {"relative_throughput": chunked},
        "bootstrap": {"parallel_speedup": boot},
        "instrumentation": {"relative_throughput": instr},
        "harvest": {
            "machinehealth": {"speedup": harvest[0]},
            "loadbalance": {"speedup": harvest[1]},
            "cache": {"speedup": harvest[2]},
        },
        "ledger": {"relative_throughput": ledger},
        "obs": {"monitor_overhead": {"relative_throughput": obs}},
        "serve": {"decisions_per_sec": serve},
    }


class TestCheckRegressions:
    def test_matching_baseline_passes(self):
        assert check_regressions(artifact(), artifact()) == []

    def test_improvement_passes(self):
        assert check_regressions(artifact(5.0, 200.0), artifact()) == []

    def test_drop_within_tolerance_passes(self):
        current = artifact(2.9 * 0.75, 90.0 * 0.75)
        assert check_regressions(current, artifact(), tolerance=0.30) == []

    def test_drop_beyond_tolerance_fails(self):
        current = artifact(2.9 * 0.6, 90.0)
        failures = check_regressions(current, artifact(), tolerance=0.30)
        assert len(failures) == 1
        assert "single-policy" in failures[0]

    def test_both_metrics_reported(self):
        failures = check_regressions(
            artifact(0.5, 10.0), artifact(), tolerance=0.30
        )
        assert len(failures) == 2

    def test_metric_missing_from_baseline_is_not_a_regression(self):
        baseline = {"class_search": {"speedup": 90.0}}
        assert check_regressions(artifact(), baseline) == []

    def test_metric_missing_from_current_raises(self):
        with pytest.raises(KeyError):
            check_regressions({"class_search": {}}, artifact())

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            check_regressions(artifact(), artifact(), tolerance=1.5)


class TestAbsoluteFloors:
    def test_ledger_at_floor_passes(self):
        assert check_regressions(artifact(ledger=0.9), artifact()) == []

    def test_ledger_below_floor_fails(self):
        failures = check_regressions(artifact(ledger=0.85), artifact())
        assert len(failures) == 1
        assert "ledger" in failures[0]
        assert "absolute floor" in failures[0]

    def test_floor_ignores_baseline_value(self):
        # A generous baseline cannot loosen an absolute floor: 0.85 fails
        # even though it is within 30% of a 1.0 baseline.
        failures = check_regressions(
            artifact(ledger=0.85), artifact(ledger=1.0), tolerance=0.30
        )
        assert len(failures) == 1

    def test_old_artifact_without_ledger_is_skipped(self):
        current = artifact()
        del current["ledger"]
        baseline = artifact()
        del baseline["ledger"]
        assert check_regressions(current, baseline) == []

    def test_monitor_overhead_at_floor_passes(self):
        assert check_regressions(artifact(obs=0.9), artifact()) == []

    def test_monitor_overhead_below_floor_fails(self):
        failures = check_regressions(artifact(obs=0.85), artifact())
        assert len(failures) == 1
        assert "monitor overhead" in failures[0]
        assert "absolute floor" in failures[0]

    def test_old_artifact_without_obs_is_skipped(self):
        current = artifact()
        del current["obs"]
        baseline = artifact()
        del baseline["obs"]
        assert check_regressions(current, baseline) == []

    def test_serve_at_floor_passes(self):
        assert check_regressions(artifact(serve=50_000.0), artifact()) == []

    def test_serve_below_floor_fails(self):
        failures = check_regressions(artifact(serve=42_000.0), artifact())
        assert len(failures) == 1
        assert "serve decisions/sec" in failures[0]
        assert "absolute floor" in failures[0]

    def test_serve_floor_ignores_generous_baseline(self):
        # 42k is within 30% of a 100k baseline, but the floor is absolute.
        failures = check_regressions(
            artifact(serve=42_000.0), artifact(serve=100_000.0),
            tolerance=0.30,
        )
        assert len(failures) == 1

    def test_old_artifact_without_serve_is_skipped(self):
        current = artifact()
        del current["serve"]
        baseline = artifact()
        del baseline["serve"]
        assert check_regressions(current, baseline) == []


class TestGateCli:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_passing_run_exits_zero(self, tmp_path, capsys):
        current = self.write(tmp_path, "current.json", artifact())
        baseline = self.write(tmp_path, "baseline.json", artifact())
        code = main(
            [current, "--baseline", baseline,
             "--history-dir", str(tmp_path / "history")]
        )
        assert code == 0
        assert "perf gate passed" in capsys.readouterr().out

    def test_regressed_run_exits_one(self, tmp_path, capsys):
        current = self.write(tmp_path, "current.json", artifact(1.0, 10.0))
        baseline = self.write(tmp_path, "baseline.json", artifact())
        code = main(
            [current, "--baseline", baseline, "--no-history"]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_committed_smoke_baseline_is_loadable(self):
        from benchmarks.perf.gate import DEFAULT_BASELINE

        with open(DEFAULT_BASELINE, "r", encoding="utf-8") as f:
            baseline = json.load(f)
        assert check_regressions(artifact(), baseline, tolerance=0.30) == []


class TestTrendCheck:
    """History append + monotone-drift warnings (advisory, never fatal)."""

    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def run_gate(self, tmp_path, current, history_dir):
        baseline = self.write(tmp_path, "baseline.json", artifact())
        return main(
            [self.write(tmp_path, "current.json", current),
             "--baseline", baseline,
             "--history-dir", str(history_dir)]
        )

    def test_every_run_appended(self, tmp_path):
        history_dir = tmp_path / "history"
        for _ in range(2):
            assert self.run_gate(tmp_path, artifact(), history_dir) == 0
        lines = (history_dir / "runs.jsonl").read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["kind"] == "bench"
        assert {"git_sha", "timestamp", "cpu_count"} <= set(record)
        assert record["metrics"]["single_policy_ips.speedup"] == 2.9
        assert (
            record["metrics"]["obs.monitor_overhead.relative_throughput"]
            == 0.95
        )

    def test_three_run_monotone_drop_warns_without_failing(
        self, tmp_path, capsys
    ):
        history_dir = tmp_path / "history"
        for speedup in (3.0, 2.9, 2.8):
            code = self.run_gate(
                tmp_path, artifact(single=speedup), history_dir
            )
            assert code == 0  # a drift warns, never gates
        err = capsys.readouterr().err
        assert "TREND WARNING" in err
        assert "single_policy_ips.speedup" in err

    def test_non_monotone_history_stays_quiet(self, tmp_path, capsys):
        history_dir = tmp_path / "history"
        for speedup in (3.0, 2.8, 2.9):
            assert self.run_gate(
                tmp_path, artifact(single=speedup), history_dir
            ) == 0
        assert "TREND WARNING" not in capsys.readouterr().err

    def test_no_history_flag_writes_nothing(self, tmp_path):
        baseline = self.write(tmp_path, "baseline.json", artifact())
        current = self.write(tmp_path, "current.json", artifact())
        assert main([current, "--baseline", baseline, "--no-history"]) == 0
        assert not (tmp_path / "history").exists()

    def test_unwritable_history_degrades_to_note(self, tmp_path, capsys):
        baseline = self.write(tmp_path, "baseline.json", artifact())
        current = self.write(tmp_path, "current.json", artifact())
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        code = main(
            [current, "--baseline", baseline,
             "--history-dir", str(blocker / "history")]
        )
        assert code == 0
        assert "history: skipped" in capsys.readouterr().err
