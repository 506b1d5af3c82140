"""Property-style equivalence suite for the reduction kernel.

The contract of :mod:`repro.core.estimators.reductions`: every backend
is a different *driver* over the same fold/merge/finalize kernel, so

- scalar == vectorized == chunked for every estimator, at every chunk
  size (1, a prime, N, N+1), including diagnostics verdicts;
- merging partial states is associative — any merge tree over any
  partition finalizes to the same result;
- the out-of-core JSONL driver matches the in-memory backends;
- seeded bootstrap replicates are the same shards whether generated
  serially or across a worker pool.
"""

import numpy as np
import pytest

from repro.core.bootstrap import (
    bootstrap_interval_from_terms,
    bootstrap_ips_interval,
    bootstrap_snips_interval,
)
from repro.core.columns import iter_chunk_columns
from repro.core.engine import (
    evaluate_jsonl_chunked,
    reset_backend_warnings,
    use_backend,
    warn_missing_batch,
)
from repro.core.estimators.direct import DirectMethodEstimator
from repro.core.estimators.doubly_robust import DoublyRobustEstimator
from repro.core.estimators.fallback import FallbackEstimator
from repro.core.estimators.ips import (
    ClippedIPSEstimator,
    IPSEstimator,
    SNIPSEstimator,
)
from repro.core.estimators.reductions import (
    LogSummary,
    Moments,
    ReductionContext,
    WeightStats,
)
from repro.core.estimators.switch import SwitchEstimator
from repro.core.policies import (
    ConstantPolicy,
    EpsilonGreedyPolicy,
    UniformRandomPolicy,
)
from repro.core.types import ActionSpace, Dataset, Interaction

N = 223  # deliberately not a multiple of any chunk size below
CHUNK_SIZES = (1, 7, N, N + 1)


def make_skewed_dataset(n=N, seed=0, action_space=True):
    """A log with skewed propensities so weights have a real tail."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        context = {
            "load": float(rng.uniform()),
            "latency": float(rng.uniform()),
        }
        action = int(rng.choice(3, p=[0.6, 0.3, 0.1]))
        propensity = [0.6, 0.3, 0.1][action]
        reward = float(
            np.clip(context["load"] * (action + 1) / 3
                    + rng.normal(0, 0.05), 0, 1)
        )
        rows.append(Interaction(context, action, reward, propensity))
    return Dataset(rows, action_space=ActionSpace(3) if action_space else None)


def all_estimators():
    return [
        IPSEstimator(),
        ClippedIPSEstimator(max_weight=4.0),
        SNIPSEstimator(),
        DirectMethodEstimator(),
        DoublyRobustEstimator(),
        SwitchEstimator(tau=3.0),
        FallbackEstimator(),
    ]


def all_policies():
    return [
        UniformRandomPolicy(),
        ConstantPolicy(1),
        EpsilonGreedyPolicy(ConstantPolicy(2), 0.25),
    ]


def assert_results_match(got, ref, rel=1e-9):
    __tracebackhide__ = True
    if np.isnan(ref.value):
        assert np.isnan(got.value)
    else:
        assert got.value == pytest.approx(ref.value, rel=rel, abs=rel)
    if np.isfinite(ref.std_error):
        assert got.std_error == pytest.approx(ref.std_error, rel=rel, abs=rel)
    else:
        assert got.std_error == ref.std_error
    assert got.n == ref.n
    assert got.effective_n == ref.effective_n
    # Verdicts must match exactly — a chunked run that downgrades (or
    # upgrades) reliability would make out-of-core evaluation lie.
    if ref.diagnostics is None:
        assert got.diagnostics is None
    else:
        assert got.diagnostics is not None
        assert got.diagnostics.verdict == ref.diagnostics.verdict
        assert got.diagnostics.reasons == ref.diagnostics.reasons
    for key in ("match_rate", "clipped_fraction", "switch_fraction",
                "effective_sample_size"):
        if key in ref.details:
            assert got.details[key] == pytest.approx(
                ref.details[key], rel=rel, abs=rel
            ), key


class TestBackendEquivalence:
    @pytest.mark.parametrize("with_space", [True, False],
                             ids=["action-space", "spaceless"])
    def test_all_backends_agree_for_every_estimator(self, with_space):
        dataset = make_skewed_dataset(action_space=with_space)
        for policy in all_policies():
            for estimator in all_estimators():
                with use_backend("vectorized"):
                    ref = estimator.estimate(policy, dataset)
                with use_backend("scalar"):
                    scalar = estimator.estimate(policy, dataset)
                assert_results_match(scalar, ref)
                for chunk_size in CHUNK_SIZES:
                    with use_backend("chunked", chunk_size=chunk_size):
                        chunked = estimator.estimate(policy, dataset)
                    # Model-based terms reassociate gram sums; a hair
                    # looser than the pure-sum estimators.
                    assert_results_match(chunked, ref, rel=1e-8)

    def test_match_weights_identical_across_backends(self):
        dataset = make_skewed_dataset()
        policy = EpsilonGreedyPolicy(ConstantPolicy(0), 0.1)
        ips = IPSEstimator()
        with use_backend("vectorized"):
            ref = ips.match_weights(policy, dataset)
        with use_backend("chunked", chunk_size=7):
            chunked = ips.match_weights(policy, dataset)
        np.testing.assert_array_equal(ref, chunked)

    def test_fallback_audit_trail_matches_on_chunked(self):
        dataset = make_skewed_dataset()
        policy = ConstantPolicy(2)
        with use_backend("vectorized"):
            ref = FallbackEstimator().estimate(policy, dataset)
        with use_backend("chunked", chunk_size=13):
            chunked = FallbackEstimator().estimate(policy, dataset)
        assert chunked.estimator == ref.estimator
        assert chunked.details["degraded"] == ref.details["degraded"]
        assert [a["verdict"] for a in chunked.details["fallback"]] == [
            a["verdict"] for a in ref.details["fallback"]
        ]


class TestMergeAssociativity:
    def _states(self, chunk_size):
        dataset = make_skewed_dataset()
        policy = EpsilonGreedyPolicy(ConstantPolicy(1), 0.2)
        estimator = SNIPSEstimator()
        context = ReductionContext.from_dataset(dataset)
        reduction = estimator.reduction(policy, context)
        states = [
            reduction.fold(reduction.init_state(), chunk)
            for chunk in iter_chunk_columns(dataset, chunk_size)
        ]
        log = LogSummary.from_columns(dataset.columns())
        return reduction, states, log

    def test_left_and_right_merge_trees_agree(self):
        reduction, left_states, log = self._states(chunk_size=17)
        _, right_states, _ = self._states(chunk_size=17)
        left = left_states[0]
        for state in left_states[1:]:
            left = reduction.merge(left, state)
        right = right_states[-1]
        for state in reversed(right_states[:-1]):
            right = reduction.merge(state, right)
        a = reduction.finalize(left, log)
        b = reduction.finalize(right, log)
        assert a.value == pytest.approx(b.value, rel=1e-12)
        assert a.std_error == pytest.approx(b.std_error, rel=1e-9)
        assert a.diagnostics.verdict == b.diagnostics.verdict

    def test_moments_merge_matches_batch(self):
        rng = np.random.default_rng(4)
        values = rng.exponential(size=1000)
        merged = Moments()
        for part in np.array_split(values, 13):
            other = Moments.from_array(part)
            merged.merge_in(other)
        assert merged.n == 1000
        assert merged.mean == pytest.approx(values.mean(), rel=1e-12)
        expected_se = values.std(ddof=1) / np.sqrt(values.size)
        assert merged.std_error() == pytest.approx(expected_se, rel=1e-10)

    def test_weightstats_q99_exact_under_any_partition(self):
        rng = np.random.default_rng(9)
        weights = rng.pareto(2.0, size=N)
        whole = WeightStats.for_rows(N)
        whole.fold(weights)
        for split in (3, 10, 50):
            parts = np.array_split(weights, split)
            merged = WeightStats.for_rows(N)
            for part in parts:
                partial = WeightStats.for_rows(N)
                partial.fold(part)
                merged.merge_in(partial)
            assert merged.q99() == whole.q99()
            assert merged.maximum == whole.maximum
            assert merged.total == pytest.approx(whole.total, rel=1e-12)

    def test_mismatched_tail_sizes_refuse_to_merge(self):
        a = WeightStats.for_rows(100)
        b = WeightStats.for_rows(5000)
        b.fold(np.ones(10))
        with pytest.raises(ValueError, match="different totals"):
            a.merge_in(b)


class TestJsonlDriver:
    @pytest.fixture()
    def log_file(self, tmp_path):
        dataset = make_skewed_dataset(n=401, seed=5)
        path = tmp_path / "log.jsonl"
        dataset.save_jsonl(str(path))
        return str(path), dataset

    def test_file_driver_matches_in_memory(self, log_file):
        path, _ = log_file
        policies = all_policies()
        estimators = all_estimators()
        evaluation = evaluate_jsonl_chunked(
            path, policies, estimators, chunk_size=64
        )
        assert evaluation.n == 401
        assert evaluation.n_chunks == 7
        loaded = Dataset.load_jsonl(path)
        for pi, policy in enumerate(policies):
            for ei, estimator in enumerate(estimators):
                with use_backend("vectorized"):
                    ref = estimator.estimate(policy, loaded)
                assert_results_match(
                    evaluation.results[pi][ei], ref, rel=1e-8
                )

    def test_collected_terms_match_weighted_rewards(self, log_file):
        path, _ = log_file
        policy = ConstantPolicy(1)
        evaluation = evaluate_jsonl_chunked(
            path, [policy], [IPSEstimator()], chunk_size=50,
            collect_terms=True,
        )
        loaded = Dataset.load_jsonl(path)
        expected = IPSEstimator(backend="vectorized").weighted_rewards(
            policy, loaded
        )
        np.testing.assert_allclose(
            evaluation.terms[(policy.name, "ips")], expected, rtol=1e-12
        )

    def test_empty_log_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="no valid interactions"):
            evaluate_jsonl_chunked(
                str(path), [UniformRandomPolicy()], [IPSEstimator()]
            )


class TestBootstrapSharding:
    @pytest.fixture()
    def terms(self):
        rng = np.random.default_rng(6)
        return rng.exponential(size=1501) * (rng.uniform(size=1501) < 0.4)

    def test_serial_equals_parallel_bit_for_bit(self, terms):
        serial = bootstrap_interval_from_terms(terms, seed=11, workers=1)
        parallel = bootstrap_interval_from_terms(terms, seed=11, workers=4)
        assert (serial.low, serial.high) == (parallel.low, parallel.high)

    def test_seed_reproduces_across_runs(self, terms):
        a = bootstrap_interval_from_terms(terms, seed=3, n_boot=500)
        b = bootstrap_interval_from_terms(terms, seed=3, n_boot=500)
        c = bootstrap_interval_from_terms(terms, seed=4, n_boot=500)
        assert (a.low, a.high) == (b.low, b.high)
        assert (a.low, a.high) != (c.low, c.high)

    def test_parallel_without_seed_rejected(self, terms):
        with pytest.raises(ValueError, match="requires a seed"):
            bootstrap_interval_from_terms(terms, workers=2)

    def test_rng_and_seed_mutually_exclusive(self, terms):
        with pytest.raises(ValueError, match="not both"):
            bootstrap_interval_from_terms(
                terms, rng=np.random.default_rng(0), seed=1
            )

    def test_legacy_rng_path_unchanged(self, terms):
        # The historical default (rng(0), one index matrix) must keep
        # producing the same interval — downstream results depend on it.
        rng = np.random.default_rng(0)
        indices = rng.integers(0, terms.size, size=(1000, terms.size))
        means = terms[indices].mean(axis=1)
        expected_low = float(np.quantile(means, 0.025))
        interval = bootstrap_interval_from_terms(terms)
        assert interval.low == expected_low

    def test_estimator_level_intervals_parallel_consistent(self):
        dataset = make_skewed_dataset(n=301, seed=7)
        policy = EpsilonGreedyPolicy(ConstantPolicy(1), 0.3)
        for fn in (bootstrap_ips_interval, bootstrap_snips_interval):
            serial = fn(policy, dataset, seed=21, workers=1, n_boot=512)
            parallel = fn(policy, dataset, seed=21, workers=3, n_boot=512)
            assert (serial.low, serial.high) == (parallel.low, parallel.high)


class TestBackendScopeHygiene:
    def test_use_backend_clears_warning_memory(self):
        class NoBatchPolicy:
            pass

        reset_backend_warnings()
        with use_backend("vectorized"):
            with pytest.warns(RuntimeWarning):
                warn_missing_batch(NoBatchPolicy)
            # Second call inside the scope: memory suppresses it.
            import warnings as _w

            with _w.catch_warnings():
                _w.simplefilter("error")
                warn_missing_batch(NoBatchPolicy)
        # The scope exit wiped the memory — the warning fires again
        # instead of leaking suppression into unrelated code.
        with pytest.warns(RuntimeWarning):
            warn_missing_batch(NoBatchPolicy)
        reset_backend_warnings()

    def test_use_backend_scopes_chunk_options(self):
        from repro.core.engine import get_chunk_size, get_default_backend

        before = (get_default_backend(), get_chunk_size())
        with use_backend("chunked", chunk_size=17):
            assert get_chunk_size() == 17
            assert get_default_backend() == "chunked"
        assert (get_default_backend(), get_chunk_size()) == before


class TestStreamingOnKernel:
    def test_partitioned_streams_merge_to_whole(self):
        from repro.core.streaming import StreamingIPS

        dataset = make_skewed_dataset(n=500, seed=2)
        space = dataset.action_space
        policy = ConstantPolicy(1)
        whole = StreamingIPS(policy, space)
        whole.update_all(dataset)
        first = StreamingIPS(policy, space)
        second = StreamingIPS(policy, space)
        rows = list(dataset)
        first.update_all(rows[:173])
        second.update_all(rows[173:])
        first.merge_in(second)
        a, b = whole.snapshot(), first.snapshot()
        assert b.n == a.n
        assert b.value == pytest.approx(a.value, rel=1e-12)
        assert b.std_error == pytest.approx(a.std_error, rel=1e-12)
        assert b.match_rate == a.match_rate

    def test_merge_rejects_different_policies(self):
        from repro.core.streaming import StreamingIPS

        space = ActionSpace(3)
        a = StreamingIPS(ConstantPolicy(0), space)
        b = StreamingIPS(ConstantPolicy(1), space)
        with pytest.raises(ValueError, match="different policies"):
            a.merge_in(b)

    def test_streaming_agrees_with_scalar_ips(self):
        from repro.core.streaming import StreamingIPS

        dataset = make_skewed_dataset(n=400, seed=8)
        policy = EpsilonGreedyPolicy(ConstantPolicy(0), 0.2)
        stream = StreamingIPS(policy, dataset.action_space)
        stream.update_all(dataset)
        snap = stream.snapshot()
        result = IPSEstimator(backend="scalar").estimate(policy, dataset)
        assert snap.value == pytest.approx(result.value, rel=1e-12)
        assert snap.std_error == pytest.approx(result.std_error, rel=1e-12)
