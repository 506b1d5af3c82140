"""Parse-once ingest for the chunked JSONL engine.

:func:`repro.core.engine.evaluate_jsonl_chunked` reads a log once,
through :class:`repro.core.validation.ColumnarReader`, and folds from a
temporary spill instead of re-reading the JSON.  This suite pins what
that must not change and what it must fix:

- the reader accepts, repairs and quarantines exactly what the per-row
  oracle :func:`repro.core.validation.validated_interactions` does, and
  its chunks equal the per-row ``Dataset(...).columns()`` views;
- packed contexts featurize bit for bit like the per-row
  :class:`~repro.core.features.Featurizer`, colliding names included;
- estimates, standard errors, verdicts and bootstrap terms equal the
  ones the per-row implementation produced (``chunked_golden.json``)
  at chunk sizes 1, 7, N and N+1, serially and with two workers;
- a log that grows, or ends in a torn line, is judged as one snapshot;
- ledger bindings are checked on every backend.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.__main__ import main
from repro.audit.ledger import ChainFollower
from repro.chaos.corruption import LogCorruptor
from repro.core import engine
from repro.core.columns import (
    ColumnSpill,
    DatasetColumns,
    PackedContexts,
    SpillError,
    pinned_action_space,
)
from repro.core.engine import evaluate_jsonl_chunked
from repro.core.estimators.direct import DirectMethodEstimator
from repro.core.estimators.doubly_robust import DoublyRobustEstimator
from repro.core.estimators.fallback import FallbackEstimator
from repro.core.estimators.ips import (
    ClippedIPSEstimator,
    IPSEstimator,
    SNIPSEstimator,
)
from repro.core.estimators.switch import SwitchEstimator
from repro.core.features import Featurizer
from repro.core.policies import (
    ConstantPolicy,
    EpsilonGreedyPolicy,
    LinearThresholdPolicy,
    UniformRandomPolicy,
)
from repro.core.types import ActionSpace, Dataset, RewardRange
from repro.core.validation import (
    ColumnarReader,
    Quarantine,
    RecordValidator,
    validated_interactions,
)
from repro.obs.metrics import use_metrics
from repro.obs.tracing import use_tracer
from repro.serve.gate import GateDecision, evaluate_candidate

GOLDEN = Path(__file__).with_name("chunked_golden.json")

N = 157
PROPENSITIES = (0.4, 0.3, 0.2, 0.1)


# ---------------------------------------------------------------------------
# logs


def write_log(path, n: int = N, seed: int = 3) -> str:
    """A skewed 4-action log with mixed int/float contexts and key orders."""
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(n):
            action = int(rng.choice(4, p=PROPENSITIES))
            load = round(float(rng.uniform()), 6)
            queue = int(rng.integers(0, 9))
            if i % 5 == 0:
                context = {"queue": queue, "load": load}
            else:
                context = {"load": load, "queue": queue,
                           "zone": float(rng.integers(0, 3))}
            reward = float(np.clip(
                load * (action + 1) / 4 + 0.02 * queue + rng.normal(0, 0.05),
                0.0, 1.0,
            ))
            handle.write(json.dumps({
                "context": context,
                "action": action,
                "reward": reward,
                "propensity": PROPENSITIES[action],
                "timestamp": float(i),
            }) + "\n")
    return str(path)


def write_corrupt_log(tmp_path, seed: int = 3) -> str:
    clean = write_log(tmp_path / "clean.jsonl", seed=seed)
    corrupt = str(tmp_path / "corrupt.jsonl")
    LogCorruptor(rate=0.12, seed=seed).corrupt_file(clean, corrupt)
    return corrupt


def golden_policies():
    weights = np.array([[0.5, -0.1, 0.2], [-0.3, 0.2, 0.1],
                        [0.1, 0.05, -0.2], [0.0, 0.0, 0.05]])
    return [
        UniformRandomPolicy(),
        ConstantPolicy(1),
        EpsilonGreedyPolicy(ConstantPolicy(2), 0.25),
        LinearThresholdPolicy(weights, ["load", "queue"]),
    ]


def golden_estimators():
    return [
        IPSEstimator(),
        ClippedIPSEstimator(max_weight=4.0),
        SNIPSEstimator(),
        DirectMethodEstimator(),
        DoublyRobustEstimator(),
        SwitchEstimator(tau=3.0),
        FallbackEstimator(),
    ]


def summarize(evaluation) -> dict:
    """Everything that must stay bit-identical, as exact JSON."""
    results = {}
    for policy, row in zip(evaluation.policy_names, evaluation.results):
        for result in row:
            diagnostics = result.diagnostics
            assert result.n == evaluation.n
            results[f"{policy} x {result.estimator}"] = {
                "value": float(result.value).hex(),
                "std_error": float(result.std_error).hex(),
                "verdict": diagnostics.verdict if diagnostics else None,
                "reasons": list(diagnostics.reasons) if diagnostics else None,
            }
    terms = {
        f"{policy} x {estimator}": hashlib.sha256(
            np.ascontiguousarray(vector, dtype=np.float64).tobytes()
        ).hexdigest()
        for (policy, estimator), vector in sorted(evaluation.terms.items())
    }
    return {
        "n": evaluation.n,
        "n_chunks": evaluation.n_chunks,
        "results": results,
        "terms": terms,
        "quarantine": evaluation.quarantine.report(),
    }


def golden_cases():
    for mode in ("strict", "quarantine"):
        for chunk_size in (1, 7, N, N + 1):
            yield mode, chunk_size


def run_case(tmp_path, mode: str, chunk_size: int, workers: int) -> dict:
    path = (
        write_log(tmp_path / "log.jsonl")
        if mode == "strict"
        else write_corrupt_log(tmp_path)
    )
    return summarize(evaluate_jsonl_chunked(
        path, golden_policies(), golden_estimators(),
        chunk_size=chunk_size, workers=workers, mode=mode,
        collect_terms=True,
    ))


def record_golden(tmp_path) -> str:
    """The golden file's text under the importable engine (serial runs)."""
    return "{\n" + ",\n".join(
        f"{json.dumps(f'{mode}/{size}')}: "
        + json.dumps(run_case(tmp_path, mode, size, 1), sort_keys=True)
        for mode, size in golden_cases()
    ) + "\n}\n"


# ---------------------------------------------------------------------------
# bit-identical estimates


class TestGoldenEstimates:
    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN, encoding="utf-8") as handle:
            return json.load(handle)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode, chunk_size", list(golden_cases()))
    def test_matches_per_row_implementation(
        self, golden, tmp_path, mode, chunk_size, workers
    ):
        got = run_case(tmp_path, mode, chunk_size, workers)
        assert got == golden[f"{mode}/{chunk_size}"]

    def test_golden_exercises_quarantine_and_diagnostics(self, golden):
        assert golden["quarantine/7"]["quarantine"]["n_rejected"] > 0
        assert any(
            entry["reasons"]
            for case in golden.values()
            for entry in case["results"].values()
        )


# ---------------------------------------------------------------------------
# the reader against the per-row oracle


def oracle(path, mode, validator=None):
    quarantine = Quarantine(record_metrics=False)
    with open(path, encoding="utf-8") as handle:
        rows = list(validated_interactions(
            handle, mode=mode, validator=validator, quarantine=quarantine,
            source_name=path,
            chain=ChainFollower(strict_links=mode == "strict"),
        ))
    return rows, quarantine


def read(path, mode, chunk_size, validator=None):
    quarantine = Quarantine(record_metrics=False)
    reader = ColumnarReader(
        path, chunk_size, mode=mode, validator=validator,
        quarantine=quarantine,
        chain=ChainFollower(strict_links=mode == "strict"),
    )
    return list(reader), quarantine, reader


def full_report(quarantine) -> tuple:
    return (
        dict(quarantine.counts),
        dict(quarantine.repairs),
        [(r.line_number, r.reason, r.detail, r.raw) for r in quarantine.rejected],
    )


def assert_chunks_match_rows(chunks, rows, chunk_size, space, reward_range):
    assert sum(chunk.n for chunk in chunks) == len(rows)
    assert [chunk.n for chunk in chunks[:-1]] == [chunk_size] * (len(chunks) - 1)
    featurizer = Featurizer(n_dims=32)
    for index, chunk in enumerate(chunks):
        got = DatasetColumns.from_chunk(chunk, space, reward_range)
        want = Dataset(
            rows[index * chunk_size:(index + 1) * chunk_size],
            action_space=space, reward_range=reward_range,
        ).columns()
        for name in ("actions", "rewards", "propensities", "timestamps",
                     "eligible_mask", "eligible_counts"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.n_actions == want.n_actions
        assert got.uniform_eligibility == want.uniform_eligibility
        assert got.canonical_order == want.canonical_order
        assert (got.hashed_matrix(featurizer).tobytes()
                == want.hashed_matrix(featurizer).tobytes())
        names = sorted({k for context in want.contexts for k in context})
        names.append("absent")
        assert (got.feature_matrix(names).tobytes()
                == want.feature_matrix(names).tobytes())
        assert [got.contexts[t] for t in range(got.n)] == [
            {k: float(v) for k, v in context.items()}
            for context in want.contexts
        ]


WEIRD_LINES = [
    "",
    "   ",
    "[1, 2, 3]",
    '"just a string"',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5}',
    '{"context": [1, 2], "action": 1, "reward": 0.5, "propensity": 0.5}',
    '{"context": {"a": null}, "action": 1, "reward": 0.5, "propensity": 0.5}',
    '{"context": {"a": "1.5"}, "action": 1, "reward": 0.5, "propensity": 0.5}',
    '{"context": {"a": true}, "action": true, "reward": false, "propensity": true}',
    '{"context": {"a": 1}, "action": 2.0, "reward": 0.5, "propensity": 0.5}',
    '{"context": {"a": 1}, "action": 2.5, "reward": 0.5, "propensity": 0.5}',
    '{"context": {"a": 1}, "action": -1, "reward": 0.5, "propensity": 0.5}',
    '{"context": {"a": 1}, "action": "1", "reward": "0.5", "propensity": "0.5"}',
    '{"context": {"a": 1}, "action": 7, "reward": 0.5, "propensity": 0.5}',
    '{"context": {"a": 1}, "action": 1, "reward": NaN, "propensity": 0.5}',
    '{"context": {"a": 1}, "action": 1, "reward": 1.5, "propensity": 0.5}',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5, "propensity": 1.5}',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5, "propensity": -0.5}',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5, "propensity": Infinity}',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5, "propensity": 0.5, "timestamp": "x"}',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5, "propensity": 0.5, "timestamp": "7"}',
    '{"context": {"a": 1}, "action": [1], "reward": 0.5, "propensity": 0.5}',
    '{"context": {"a": 1}, "action": {"a": 1}, "reward": 0.5, "propensity": 0.5}',
    '{"context": {"a": 1}, "action": 1, "reward": [0.5], "propensity": 0.5}',
    '{"context": {"a": 1}, "action": 1, "reward": {"r": 0.5}, "propensity": 0.5}',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5, "propensity": [0.5]}',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5, "propensity": {"p": 0.5}}',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5, "propensity": null}',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5, "propensity": 0.5, "timestamp": [7]}',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5, "propensity": 0.5, "timestamp": {"t": 7}}',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5, "propensity": 0.5, "timestamp": null}',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5, "propensity": 0.5, "metadata": null}',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5, "propensity": 0.5, "metadata": [["k", 1]]}',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5, "propensity": 0.5, "full_rewards": [0.1, 0.2]}',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5, "propensity": 0.5, "full_rewards": [0.1, NaN]}',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5, "propensity": 0.5, "full_rewards": ["0.1"]}',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5, "propensity": 0.5, "full_rewards": {"0": 1}}',
    '{"context": {"b": 2, "a": 1}, "action": 0, "reward": 0.25, "propensity": 0.25}',
    '{"context": {}, "action": 0, "reward": 0.25, "propensity": 0.25}',
    '{"context": {"a": 1}, "action": 1, "rew',
    '{"context": {"a": 1}, "action": 1, "reward": 0.5, "propensity": 0.5}',
]


class TestReaderMatchesOracle:
    @pytest.mark.parametrize("mode", ["strict", "quarantine", "repair"])
    @pytest.mark.parametrize("chunk_size", [1, 3, 64])
    @pytest.mark.parametrize("ledger", [False, True])
    def test_chaos_corpus(self, tmp_path, ledgered, mode, chunk_size, ledger):
        if ledger:
            path = str(tmp_path / "corrupt.jsonl")
            LogCorruptor(rate=0.05, seed=9).corrupt_file(str(ledgered), path)
        else:
            path = write_corrupt_log(tmp_path)
        if mode == "strict":
            with pytest.raises(ValueError) as want:
                oracle(path, mode)
            with pytest.raises(ValueError) as got:
                read(path, mode, chunk_size)
            assert str(got.value) == str(want.value)
            return
        rows, want = oracle(path, mode)
        chunks, got, reader = read(path, mode, chunk_size)
        assert want.n_rejected > 0
        assert full_report(got) == full_report(want)
        assert reader.rows == len(rows)
        space = pinned_action_space(observed=sorted({r.action for r in rows}))
        assert_chunks_match_rows(chunks, rows, chunk_size, space, None)

    @pytest.mark.parametrize("mode", ["quarantine", "repair"])
    @pytest.mark.parametrize("chunk_size", [1, 4, 100])
    @pytest.mark.parametrize("bounded", [False, True])
    def test_every_rule_path(self, tmp_path, mode, chunk_size, bounded):
        path = str(tmp_path / "weird.jsonl")
        Path(path).write_text("\n".join(WEIRD_LINES) + "\n", encoding="utf-8")
        space = ActionSpace(3) if bounded else None
        reward_range = RewardRange(0.0, 1.0) if bounded else None

        def validator():
            return RecordValidator(action_space=space, reward_range=reward_range)

        rows, want = oracle(path, mode, validator())
        chunks, got, _ = read(path, mode, chunk_size, validator())
        assert full_report(got) == full_report(want)
        pinned = space or pinned_action_space(
            observed=sorted({r.action for r in rows})
        )
        assert_chunks_match_rows(chunks, rows, chunk_size, pinned, reward_range)

    @pytest.mark.parametrize("mode", ["strict", "quarantine", "repair"])
    @pytest.mark.parametrize("chunk_size", [1, 4])
    @pytest.mark.parametrize(
        "field", ["action", "reward", "propensity", "timestamp"]
    )
    def test_batch_of_container_values(self, tmp_path, mode, chunk_size, field):
        # Every staged value a list: numpy must never see the shape.
        path = str(tmp_path / "lists.jsonl")
        record = {"context": {"a": 1}, "action": 1, "reward": 0.5,
                  "propensity": 0.5, "timestamp": 1.0}
        lines = [json.dumps({**record, field: [record[field]]})] * 3
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        if mode == "strict":
            with pytest.raises(ValueError) as want:
                oracle(path, mode)
            with pytest.raises(ValueError) as got:
                read(path, mode, chunk_size)
            assert str(got.value) == str(want.value)
            assert "line 1: " in str(got.value)
            return
        rows, want = oracle(path, mode)
        chunks, got, _ = read(path, mode, chunk_size)
        assert full_report(got) == full_report(want)
        assert want.n_rejected == 3 and not rows and not chunks

    def test_stateful_validator_takes_the_per_row_path(self, tmp_path):
        path = str(tmp_path / "ts.jsonl")
        lines = [
            json.dumps({"context": {"a": 1.0}, "action": 0, "reward": 0.5,
                        "propensity": 0.5, "timestamp": t})
            for t in (1.0, 3.0, 2.0, 4.0, 0.5)
        ]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        validator = RecordValidator(monotone_timestamps=True)
        rows, want = oracle(path, "repair", validator)
        chunks, got, _ = read(path, "repair", 2, validator)
        assert full_report(got) == full_report(want)
        assert want.n_repaired == 2
        assert [float(t) for c in chunks for t in c.timestamps] == [
            r.timestamp for r in rows
        ]


# ---------------------------------------------------------------------------
# packed featurization


def colliding_names(featurizer, count=3):
    """``count`` feature names that hash to one slot."""
    by_slot: dict = {}
    for i in range(10_000):
        name = f"f{i}"
        slot = featurizer._slot(name)[0]
        by_slot.setdefault(slot, []).append(name)
        if len(by_slot[slot]) == count:
            return by_slot[slot]
    raise AssertionError("no collision found")


class TestPackedFeaturization:
    def test_hashed_matrix_equals_per_row_featurizer_with_collisions(self):
        featurizer = Featurizer(n_dims=8)
        names = colliding_names(featurizer) + ["x", "y", "z"]
        rng = np.random.default_rng(11)
        contexts = []
        for _ in range(400):
            present = [n for n in names if rng.uniform() < 0.8]
            rng.shuffle(present)
            contexts.append({
                name: float(rng.choice([-1, 1]) * 10 ** rng.uniform(-8, 16))
                for name in present
            })
        packed = PackedContexts.pack(contexts)
        got = packed.hashed_matrix(featurizer)
        want = featurizer.matrix(contexts)
        assert got.tobytes() == want.tobytes()
        # The collision is real: summing the colliding names in one
        # fixed order instead of each row's own order changes bits.
        slot = featurizer._slot(names[0])[0]
        fixed = np.zeros(len(contexts))
        for name in names[:3]:
            sign = featurizer._slot(name)[1]
            fixed += np.array([sign * c.get(name, 0.0) for c in contexts])
        assert fixed.tobytes() != want[:, slot].tobytes()

    def test_feature_matrix_and_rebuilt_dicts(self):
        contexts = [{"b": 2.0, "a": -0.0}, {"a": 1.5}, {}]
        packed = PackedContexts.pack(contexts)
        assert [packed[t] for t in range(3)] == contexts
        assert list(packed[1:]) == contexts[1:]
        matrix = packed.feature_matrix(["a", "b", "c"])
        want = np.array([[-0.0, 2.0, 0.0, 1.0], [1.5, 0.0, 0.0, 1.0],
                         [0.0, 0.0, 0.0, 1.0]])
        assert matrix.tobytes() == want.tobytes()

    def test_pack_refuses_non_numbers(self):
        with pytest.raises(TypeError, match="not numeric"):
            PackedContexts.pack([{"a": True}])


# ---------------------------------------------------------------------------
# spill lifecycle and row accounting


class TestSpill:
    def test_round_trip_and_deleted_on_close(self, tmp_path):
        chunks, _, _ = read(write_log(tmp_path / "log.jsonl"), "strict", 50)
        with ColumnSpill() as spill:
            for chunk in chunks:
                spill.append(chunk)
            path = spill.path
            assert os.path.exists(path)
            for where, chunk in zip(spill.chunks, chunks):
                back = spill.load(where)
                for name in ("actions", "rewards", "propensities", "timestamps"):
                    assert getattr(back, name).tobytes() == getattr(chunk, name).tobytes()
                assert back.contexts.values.tobytes() == chunk.contexts.values.tobytes()
                assert back.contexts.order.tobytes() == chunk.contexts.order.tobytes()
                assert back.contexts.keys == chunk.contexts.keys
        assert not os.path.exists(path)

    def test_spill_deleted_when_the_fold_fails(self, tmp_path, monkeypatch):
        seen = []
        original = ColumnSpill.__init__

        def spy(self, *args):
            original(self, *args)
            seen.append(self.path)

        monkeypatch.setattr(ColumnSpill, "__init__", spy)

        class Exploding(ConstantPolicy):
            def probabilities_batch(self, columns):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            evaluate_jsonl_chunked(
                write_log(tmp_path / "log.jsonl"), [Exploding(0)],
                [IPSEstimator()], chunk_size=40,
            )
        assert seen and not any(os.path.exists(p) for p in seen)
        # Beside the log, so a tmpfs temp directory never holds it.
        assert all(os.path.dirname(p) == str(tmp_path) for p in seen)

    def test_unwritable_directory_falls_back_to_the_temp_directory(
        self, tmp_path
    ):
        with ColumnSpill(str(tmp_path / "missing")) as spill:
            assert os.path.dirname(spill.path) == tempfile.gettempdir()

    def test_spill_write_error_is_not_a_log_read_error(
        self, tmp_path, monkeypatch, capsys
    ):
        def full_disk(self, chunk):
            raise SpillError(f"cannot write the column spill {self.path}: "
                             "[Errno 28] No space left on device")

        monkeypatch.setattr(ColumnSpill, "append", full_disk)
        log = write_log(tmp_path / "log.jsonl")
        assert main(["evaluate", log, "--backend", "chunked"]) == 1
        err = capsys.readouterr().err
        assert "cannot write the column spill" in err
        assert "cannot read" not in err

    def test_write_failure_raises_spill_error(self, tmp_path, monkeypatch):
        chunks, _, _ = read(write_log(tmp_path / "log.jsonl"), "strict", 50)
        with ColumnSpill(str(tmp_path)) as spill:
            def enospc(data):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(spill._file, "write", enospc)
            with pytest.raises(SpillError, match="No space left"):
                spill.append(chunks[0])

    def test_ingest_span_accounts_for_every_row(self, tmp_path):
        path = write_corrupt_log(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"context": {"load": 0.1}, "act')
        with use_tracer() as tracer, use_metrics() as metrics:
            evaluation = evaluate_jsonl_chunked(
                path, [UniformRandomPolicy()], [IPSEstimator()],
                chunk_size=16, mode="repair",
            )
        span = next(
            s for s in tracer.span_tree()[0]["children"]
            if s["name"] == "evaluate.validation"
        )["attributes"]
        with open(path, "rb") as handle:
            data = handle.read()
        assert span["torn_bytes"] == len(data) - evaluation.snapshot.offset > 0
        assert span["lines"] == data.count(b"\n")
        assert span["rows"] == evaluation.n
        assert span["rejected"] == evaluation.quarantine.n_rejected > 0
        assert span["repaired"] == evaluation.quarantine.n_repaired
        assert span["spill_bytes"] >= evaluation.n * 32
        ingested = metrics.counter("engine.rows_ingested", backend="chunked")
        assert ingested.value == evaluation.n
        assert sum(c["attributes"]["rows"] for c in tracer.span_tree()[0][
            "children"][1]["children"]) == evaluation.n


# ---------------------------------------------------------------------------
# snapshot consistency


POLICIES = [UniformRandomPolicy(), ConstantPolicy(1)]
ESTIMATORS = [IPSEstimator(), DoublyRobustEstimator()]


def evaluate(path, **kwargs):
    return evaluate_jsonl_chunked(path, POLICIES, ESTIMATORS, **kwargs)


def values(evaluation):
    return [[r.value for r in row] for row in evaluation.results]


def prefix_file(path, offset, out) -> str:
    with open(path, "rb") as src, open(out, "wb") as dst:
        dst.write(src.read(offset))
    return str(out)


class TestSnapshot:
    def test_rows_appended_between_passes_are_not_folded(
        self, tmp_path, monkeypatch
    ):
        path = write_log(tmp_path / "log.jsonl", n=5000, seed=4)
        extra = write_log(tmp_path / "extra.jsonl", n=3000, seed=5)
        clean = evaluate(path, chunk_size=512)
        original = engine._fold_spill_serial

        def grow_then_fold(*args):
            with open(extra, "rb") as src, open(path, "ab") as dst:
                dst.write(src.read())
            return original(*args)

        monkeypatch.setattr(engine, "_fold_spill_serial", grow_then_fold)
        with use_metrics() as metrics:
            grown = evaluate(path, chunk_size=512)
        assert os.path.getsize(path) > grown.snapshot.offset
        assert grown.n == grown.snapshot.rows == 5000
        assert metrics.counter(
            "engine.rows_ingested", backend="chunked"
        ).value == 5000
        assert values(grown) == values(clean)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_concurrent_appender(self, tmp_path, workers):
        path = write_log(tmp_path / "log.jsonl", n=4000, seed=6)
        rows = Path(write_log(tmp_path / "more.jsonl", n=4000, seed=7)
                    ).read_text(encoding="utf-8").splitlines(keepends=True)
        stop = threading.Event()

        def append():
            # Each row lands in two writes, so readers meet torn tails.
            with open(path, "a", encoding="utf-8") as handle:
                for row in rows:
                    if stop.is_set():
                        return
                    handle.write(row[:20])
                    handle.flush()
                    time.sleep(0.0002)
                    handle.write(row[20:])
                    handle.flush()

        writer = threading.Thread(target=append)
        writer.start()
        try:
            grown = evaluate(path, chunk_size=300, workers=workers)
        finally:
            stop.set()
            writer.join(timeout=30)
        assert not writer.is_alive()
        snapshot = grown.snapshot
        assert grown.n == snapshot.rows >= 4000
        prefix = prefix_file(path, snapshot.offset, tmp_path / "prefix.jsonl")
        judged = evaluate(prefix, chunk_size=300)
        assert judged.n == grown.n
        assert values(judged) == values(grown)
        assert judged.snapshot.offset == snapshot.offset

    @pytest.mark.parametrize("mode", ["strict", "quarantine"])
    def test_torn_last_line_is_left_out_not_refused(self, tmp_path, mode):
        path = write_log(tmp_path / "log.jsonl", n=300)
        complete = os.path.getsize(path)
        fragment = '{"context": {"load": 0.5}, "action": 1, "rew'
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(fragment)
        evaluation = evaluate(path, chunk_size=64, mode=mode)
        assert evaluation.n == 300
        assert not evaluation.quarantine
        assert evaluation.snapshot.offset == complete
        assert evaluation.snapshot.torn_bytes == len(fragment)
        assert evaluation.snapshot.lines == 300

    def test_unterminated_last_line_that_parses_is_kept(self, tmp_path):
        path = write_log(tmp_path / "log.jsonl", n=300)
        data = Path(path).read_bytes()
        Path(path).write_bytes(data.rstrip(b"\n"))
        evaluation = evaluate(path, chunk_size=64)
        assert evaluation.n == 300
        assert evaluation.snapshot.torn_bytes == 0
        assert evaluation.snapshot.offset == len(data) - 1

    def test_torn_line_inside_the_log_is_still_a_defect(self, tmp_path):
        path = write_log(tmp_path / "log.jsonl", n=50)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"context": {"lo\n')
        with pytest.raises(ValueError, match="invalid JSON at line 51"):
            evaluate(path, chunk_size=64)

    def test_cli_reports_the_torn_tail(self, tmp_path, capsys):
        path = write_log(tmp_path / "log.jsonl", n=100)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"context"')
        code = main(["evaluate", path, "--backend", "chunked",
                     "--policy", "uniform"])
        captured = capsys.readouterr()
        assert code == 0
        assert "(100 interactions" in captured.out
        assert "left out an unterminated last line (10 bytes)" in captured.err


# ---------------------------------------------------------------------------
# ledger bindings on every backend


@pytest.fixture(scope="module")
def ledgered(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ledgered")
    log = tmp / "log.jsonl"
    assert main(["harvest", "loadbalance", str(log), "--rows", "2000",
                 "--seed", "5", "--ledger"]) == 0
    return log


@pytest.fixture()
def tampered(ledgered, tmp_path):
    lines = ledgered.read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        record = json.loads(line)
        if record["metadata"]["ledger"]["ordinal"] == 10:
            assert record["propensity"] == 0.5
            record["propensity"] = 0.25
            lines[index] = json.dumps(record)
    path = tmp_path / "tampered.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestLedgerBindings:
    @pytest.mark.parametrize("backend", ["vectorized", "chunked"])
    @pytest.mark.parametrize("mode", ["strict", "quarantine", "repair"])
    def test_tampered_record_caught_on_every_backend(
        self, tampered, capsys, backend, mode
    ):
        code = main(["evaluate", tampered, "--backend", backend,
                     "--mode", mode, "--policy", "uniform"])
        captured = capsys.readouterr()
        if mode == "strict":
            assert code == 1
            assert "ledger: record hash mismatch at ordinal 10" in captured.err
        else:
            assert code == 0
            assert "(1999 interactions" in captured.out
            assert "ledger" in captured.err

    def test_gate_refuses_a_tampered_log(self, tampered):
        decision = evaluate_candidate(
            tampered, "cand", ConstantPolicy(0), UniformRandomPolicy()
        )
        assert not decision.promote
        assert "record hash mismatch" in decision.reasons[0]

    def test_gate_snapshot_pins_a_verifiable_prefix(
        self, ledgered, tmp_path, capsys
    ):
        path = tmp_path / "live.jsonl"
        data = ledgered.read_bytes()
        path.write_bytes(data + b'{"context": {"conns_0": 1.0')
        decision = evaluate_candidate(
            str(path), "cand", ConstantPolicy(0), UniformRandomPolicy()
        )
        snapshot = decision.snapshot
        assert decision.n == snapshot["rows"] == 2000
        assert snapshot["offset"] == len(data)
        assert snapshot["torn_bytes"] > 0
        assert GateDecision.from_dict(
            json.loads(json.dumps(decision.to_dict()))
        ) == decision
        prefix = prefix_file(path, snapshot["offset"], tmp_path / "judged.jsonl")
        capsys.readouterr()
        assert main(["verify-ledger", prefix,
                     "--expect-head", snapshot["head"]]) == 0
        assert main(["verify-ledger", prefix,
                     "--expect-head", "0" * 64]) != 0
