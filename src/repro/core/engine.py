"""Evaluation-backend selection for the off-policy machinery.

Three interchangeable execution paths compute every estimator, all of
them drivers over the same reduction kernel
(:mod:`repro.core.estimators.reductions`):

- ``"scalar"`` — the reference implementation: walk the log one
  :class:`~repro.core.types.Interaction` at a time, calling
  :meth:`~repro.core.policies.Policy.distribution` per row.  Simple,
  obviously correct, and the semantics the array paths must match.
- ``"vectorized"`` — the columnar engine: featurize the log once into
  :class:`~repro.core.columns.DatasetColumns` and evaluate policies
  with :meth:`~repro.core.policies.Policy.probabilities_batch`, which
  returns the whole ``(N, K)`` probability matrix in a handful of
  NumPy operations.
- ``"chunked"`` — the out-of-core engine: fold fixed-size chunks of
  the log through the kernel, keeping only O(chunk) rows plus O(1)
  sufficient statistics resident.  For in-memory datasets it bounds
  the *working set* (no whole-log ``(N, K)`` matrix is ever built);
  chunks are zero-copy :class:`~repro.core.columns.ColumnsSlice` views
  of the whole-log columns, so chunking costs slicing, not per-chunk
  reconstruction.  :func:`evaluate_jsonl_chunked` extends it to logs
  that never fit in memory at all: it parses the JSONL once into a
  temporary column spill and folds from there.

Every path runs in one process.  Reading and validating the log is
serial and takes nearly all of an evaluation's time, and folding from
the spill costs well under a microsecond per row, so fanning folds out
to worker processes has nothing left to speed up; the one evaluation
step that does run across processes is the seeded bootstrap
(:mod:`repro.core.bootstrap`).

The paths agree to floating-point reassociation (asserted by
``tests/core/test_batch_equivalence.py`` and
``tests/core/test_reduction_equivalence.py``); the vectorized path
exists because §4's promise — one harvested log evaluates a *large
class* of policies simultaneously — is only credible at array speed,
and the chunked path because production logs outgrow RAM long before
they outgrow usefulness.

Every estimator takes a ``backend=`` override; this module holds the
process-wide default plus a context manager for scoped switches.
"""

from __future__ import annotations

import os
import time
import warnings
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from repro.obs.metrics import get_metrics
from repro.obs.monitors import get_monitors
from repro.obs.tracing import get_tracer

#: The recognized backend names.
BACKENDS = ("scalar", "vectorized", "chunked")

_default_backend = "vectorized"

#: Rows per fold on the chunked backend.  8192 rows × a few hundred
#: actions of float64 keeps the per-chunk probability matrix in the
#: tens of megabytes — comfortably inside any address-space budget
#: while still amortizing NumPy dispatch overhead.
_default_chunk_size = 8192

#: Policy types already warned about missing a batch implementation.
_warned_fallback_types: set = set()


def _check(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKENDS}"
        )
    return name


def get_default_backend() -> str:
    """The process-wide default evaluation backend."""
    return _default_backend


def set_default_backend(name: str) -> None:
    """Set the process-wide default evaluation backend."""
    global _default_backend
    _default_backend = _check(name)


def resolve_backend(override: Optional[str] = None) -> str:
    """An explicit backend if given, else the process default."""
    return _check(override) if override is not None else _default_backend


def get_chunk_size() -> int:
    """Rows per fold on the chunked backend."""
    return _default_chunk_size


def set_chunk_size(chunk_size: int) -> None:
    """Set the process-wide chunk size for the chunked backend."""
    global _default_chunk_size
    if int(chunk_size) <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    _default_chunk_size = int(chunk_size)


@contextmanager
def use_backend(
    name: str, *, chunk_size: Optional[int] = None
) -> Iterator[str]:
    """Temporarily switch the default backend within a ``with`` block.

    ``chunk_size`` scopes the chunked backend's chunk size alongside
    it.  On exit the previous defaults are restored and the
    per-policy-type fallback-warning memory is cleared, so a scoped
    backend switch cannot leak warning-suppression state into later
    code (or, in test suites, into later tests).
    """
    global _default_backend, _default_chunk_size
    previous = (_default_backend, _default_chunk_size)
    _default_backend = _check(name)
    if chunk_size is not None:
        set_chunk_size(chunk_size)
    try:
        yield _default_backend
    finally:
        _default_backend, _default_chunk_size = previous
        _warned_fallback_types.clear()


def warn_missing_batch(policy_type: type) -> None:
    """One-time warning that a policy type lacks ``probabilities_batch``.

    The loop fallback is correct but forfeits the vectorized speedup;
    surfacing it once per type tells users which custom policies are
    worth giving a batch implementation (see DESIGN.md).

    Every downgrade event also increments the
    ``engine.batch_fallback`` counter on the active metrics registry
    (labeled by policy type), so instrumented runs count downgrades
    per run even though the warning prints once per process.
    """
    get_metrics().counter(
        "engine.batch_fallback", policy_type=policy_type.__name__
    ).inc()
    if policy_type in _warned_fallback_types:
        return
    _warned_fallback_types.add(policy_type)
    warnings.warn(
        f"{policy_type.__name__} does not implement probabilities_batch(); "
        "the vectorized backend is falling back to a per-row Python loop "
        "for it. Implement probabilities_batch(columns) to restore array "
        "speed (see DESIGN.md, 'Columnar evaluation engine').",
        RuntimeWarning,
        stacklevel=3,
    )


def reset_backend_warnings() -> None:
    """Forget which policy types have been warned about.

    Warnings fire once per policy type per process; callers that want
    them again (fresh test, fresh experiment run) reset here.
    """
    _warned_fallback_types.clear()


#: Backwards-compatible alias for :func:`reset_backend_warnings`.
reset_fallback_warnings = reset_backend_warnings


# ---------------------------------------------------------------------------
# in-memory chunked folding over slice views


def fold_dataset_chunked(
    reduction,
    state,
    dataset,
    *,
    chunk_size: Optional[int] = None,
):
    """Fold a dataset through ``reduction`` in fixed-size chunk slices.

    The driver behind the in-memory ``"chunked"`` backend.  Chunks are
    zero-copy :class:`~repro.core.columns.ColumnsSlice` views over the
    dataset's cached whole-log columns (which the chunked plan builds
    anyway for its reduction context), so no per-chunk reconstruction
    happens.
    """
    from repro.core.columns import iter_column_slices

    chunk_size = chunk_size if chunk_size is not None else get_chunk_size()
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    for chunk in iter_column_slices(dataset.columns(), chunk_size):
        state = reduction.fold(state, chunk)
    return state


# ---------------------------------------------------------------------------
# out-of-core evaluation: read a JSONL log once, fold from its spill


class ChunkedEvaluation:
    """Everything :func:`evaluate_jsonl_chunked` learned from one log.

    ``results[p][e]`` is the
    :class:`~repro.core.estimators.base.EstimatorResult` of policy ``p``
    under estimator ``e`` (indexed like the input sequences, with names
    in ``policy_names`` / ``estimator_names``).  ``quarantine`` is the
    run's record quarantine (empty in strict mode — strict raises
    instead).  ``terms`` maps ``(policy_name, estimator_name)`` to the
    per-row term vector when the run collected terms (for bootstrap
    CIs); composite estimators contribute no term vector.
    ``snapshot`` (a :class:`~repro.core.validation.LogSnapshot`) is the
    exact log prefix the run judged: ``n`` rows from its first
    ``snapshot.offset`` bytes, ending at ledger head ``snapshot.head``.
    """

    def __init__(
        self,
        policy_names,
        estimator_names,
        results,
        n,
        n_chunks,
        quarantine,
        terms=None,
        snapshot=None,
    ) -> None:
        self.policy_names = tuple(policy_names)
        self.estimator_names = tuple(estimator_names)
        self.results = results
        self.n = n
        self.n_chunks = n_chunks
        self.quarantine = quarantine
        self.terms = terms or {}
        self.snapshot = snapshot

    def __repr__(self) -> str:
        return (
            f"ChunkedEvaluation(n={self.n}, chunks={self.n_chunks}, "
            f"policies={len(self.policy_names)}, "
            f"estimators={len(self.estimator_names)})"
        )


def evaluate_jsonl_chunked(
    path: str,
    policies,
    estimators,
    *,
    chunk_size: Optional[int] = None,
    mode: str = "strict",
    validator=None,
    action_space=None,
    reward_range=None,
    collect_terms: bool = False,
) -> ChunkedEvaluation:
    """Evaluate policies against a JSONL log without loading it.

    Parse once, fold from the spill — two passes, each O(chunk) peak
    memory, and only the first reads the log:

    1. **Read and validate** — a
       :class:`~repro.core.validation.ColumnarReader` parses every line
       once into column chunks of ``chunk_size`` accepted rows, checking
       ledger bindings (:class:`~repro.audit.ledger.ChainFollower`, as
       :meth:`~repro.core.types.Dataset.load_jsonl` does by default)
       and validating with array masks.  Each chunk folds the
       policy-independent :class:`LogStats` and, when an estimator needs
       a reward model it doesn't already have, the per-action ridge
       normal equations
       (:class:`~repro.core.estimators.direct.RewardModelFolder`), and
       is spooled to a temporary, memory-mapped
       :class:`~repro.core.columns.ColumnSpill`.  This pins the
       reduction context (total N sizes the exact-q99 tail buffers; the
       global support pins chunk eligibility) and the
       :class:`~repro.core.validation.LogSnapshot` the run judges.
    2. **Fold** — map each spilled chunk back and fold every
       (policy × estimator) reduction, in chunk order.

    The log is never re-read, so rows appended while the run is in
    progress cannot leak into it: the result covers exactly the
    snapshot (``n`` equals the rows folded), and an unterminated final
    line that does not parse is left out rather than refused.  The
    spill file — about ``rows · (32 + 12 · context keys)`` bytes — is
    written beside the log (in the temp directory if the log's
    directory is read-only) and deleted when the run ends, on errors
    too; failing to write it raises
    :class:`~repro.core.columns.SpillError`, an :class:`OSError`.

    ``mode="strict"`` raises on the first defect (a ledger chain break
    included), ``"quarantine"``/``"repair"`` set defects aside and keep
    going — the chaos suite proves quarantine counts and UNRELIABLE
    verdicts survive chunk-boundary folding.

    Instrumented end to end (see :mod:`repro.obs`): under an active
    tracer the run produces an ``evaluate.jsonl`` span tree covering
    the read-and-validate pass (with its row accounting: lines read,
    rows accepted, quarantined and repaired, torn-tail bytes, and the
    spill's size), every chunk fold, and the finalize step; under an
    active metrics registry it feeds the ``engine.*`` counters and
    histograms and the ``validation.*`` quarantine counters.  With the
    default no-op tracer/registry the overhead is unmeasurable.
    """
    policies = list(policies)
    estimators = list(estimators)
    tracer = get_tracer()
    with tracer.span(
        "evaluate.jsonl",
        path=path,
        backend="chunked",
        mode=mode,
        n_policies=len(policies),
        n_estimators=len(estimators),
    ) as root:
        evaluation = _evaluate_jsonl_chunked(
            path,
            policies,
            estimators,
            chunk_size=chunk_size,
            mode=mode,
            validator=validator,
            action_space=action_space,
            reward_range=reward_range,
            collect_terms=collect_terms,
        )
        root.set(rows=evaluation.n, chunks=evaluation.n_chunks)
        return evaluation


def _evaluate_jsonl_chunked(
    path: str,
    policies,
    estimators,
    *,
    chunk_size: Optional[int],
    mode: str,
    validator,
    action_space,
    reward_range,
    collect_terms: bool,
) -> ChunkedEvaluation:
    from repro.audit.ledger import ChainFollower
    from repro.core.columns import ColumnSpill, pinned_action_space
    from repro.core.estimators.direct import RewardModelFolder
    from repro.core.estimators.reductions import (
        FoldState,
        LogStats,
        ReductionContext,
    )
    from repro.core.validation import (
        ColumnarReader,
        RecordValidator,
        check_mode,
    )

    check_mode(mode)
    policies = list(policies)
    estimators = list(estimators)
    if not policies:
        raise ValueError("need at least one policy")
    if not estimators:
        raise ValueError("need at least one estimator")
    chunk_size = chunk_size if chunk_size is not None else get_chunk_size()
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if validator is None:
        validator = (
            RecordValidator()
            if mode == "strict"
            else RecordValidator(
                action_space=action_space, reward_range=reward_range
            )
        )

    needs_shared_model = any(
        est.needs_model and getattr(est, "model", None) is None
        for est in estimators
    )

    tracer = get_tracer()
    monitors = get_monitors()
    stats = LogStats()
    observed: set = set()
    folder = RewardModelFolder() if needs_shared_model else None
    reader = ColumnarReader(
        path,
        chunk_size,
        mode=mode,
        validator=validator,
        chain=ChainFollower(strict_links=(mode == "strict")),
    )
    with ColumnSpill(os.path.dirname(os.path.abspath(path))) as spill:
        # -- pass 1: read, validate and spool ------------------------------
        with tracer.span(
            "evaluate.validation", path=path, mode=mode
        ) as validation_span:
            for chunk in reader:
                stats.fold(chunk.actions, chunk.propensities)
                observed.update(np.unique(chunk.actions).tolist())
                if monitors.enabled:
                    monitors.observe_propensities(chunk.propensities)
                if folder is not None:
                    folder.fold_rows(
                        chunk.contexts.hashed_matrix(folder.featurizer),
                        chunk.actions,
                        chunk.rewards,
                    )
                spill.append(chunk)
            snapshot = reader.snapshot
            quarantine = reader.quarantine
            validation_span.set(
                lines=snapshot.lines,
                rows=snapshot.rows,
                rejected=quarantine.n_rejected,
                repaired=quarantine.n_repaired,
                torn_bytes=snapshot.torn_bytes,
                spill_bytes=spill.nbytes,
            )
        total_rows = snapshot.rows
        if total_rows == 0:
            raise ValueError(f"{path}: no valid interactions to evaluate")

        space = action_space or pinned_action_space(observed=sorted(observed))
        shared_model = None
        if folder is not None:
            n_actions = space.n_actions if space is not None else 1
            shared_model = folder.finalize(n_actions)
        context = ReductionContext(
            observed_actions=np.array(sorted(observed), dtype=np.int64),
            total_rows=total_rows,
        )

        # -- build one reduction per (policy × estimator) ------------------
        reductions = []
        for policy in policies:
            for est in estimators:
                if est.needs_model:
                    reduction = est.reduction(policy, context, model=shared_model)
                else:
                    reduction = est.reduction(policy, context)
                reduction.collect_terms = collect_terms
                reductions.append(reduction)

        # -- pass 2: fold from the spill -----------------------------------
        with tracer.span("evaluate.fold", chunk_size=chunk_size) as fold_span:
            states = _fold_spill_serial(spill, space, reward_range, reductions)
            fold_span.set(chunks=len(spill.chunks), rows=total_rows)
        n_chunks = len(spill.chunks)
    get_metrics().counter("engine.rows_ingested", backend="chunked").inc(
        total_rows
    )

    # -- finalize ----------------------------------------------------------
    log_summary = stats.summary()
    terms = {}
    results = []
    with tracer.span("evaluate.finalize"):
        flat = iter(zip(reductions, states))
        for policy in policies:
            row = []
            for est in estimators:
                reduction, state = next(flat)
                row.append(reduction.finalize(state, log_summary))
                if (
                    collect_terms
                    and isinstance(state, FoldState)
                    and state.term_chunks is not None
                ):
                    terms[(policy.name, reduction.name)] = (
                        reduction.collected_terms(state)
                    )
            results.append(row)

    return ChunkedEvaluation(
        policy_names=[p.name for p in policies],
        estimator_names=[
            reductions[i].name for i in range(len(estimators))
        ],
        results=results,
        n=total_rows,
        n_chunks=n_chunks,
        quarantine=quarantine,
        terms=terms,
        snapshot=snapshot,
    )


def _fold_spill_serial(spill, space, reward_range, reductions) -> list:
    """Fold every spilled chunk in order, in this process."""
    from repro.core.columns import DatasetColumns

    tracer = get_tracer()
    metrics = get_metrics()
    fold_seconds = metrics.histogram("engine.chunk_fold_seconds")
    fold_count = metrics.counter("engine.chunk_folds")
    states = [reduction.init_state() for reduction in reductions]
    for index, where in enumerate(spill.chunks):
        start = time.perf_counter()
        with tracer.span("evaluate.chunk", index=index, rows=where.n):
            columns = DatasetColumns.from_chunk(
                spill.load(where), space, reward_range
            )
            for i, reduction in enumerate(reductions):
                states[i] = reduction.fold(states[i], columns)
        fold_seconds.observe(time.perf_counter() - start)
        fold_count.inc()
    return states
