"""Shared estimator interfaces."""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.diagnostics import ReliabilityDiagnostics, diagnose
from repro.core.engine import resolve_backend
from repro.core.policies import Policy
from repro.core.types import Dataset, Interaction
from repro.obs.tracing import get_tracer


@dataclass
class EstimatorResult:
    """The outcome of one off-policy evaluation.

    ``value`` is the estimated average reward of the candidate policy;
    ``std_error`` the standard error of that estimate; ``n`` the number
    of exploration datapoints used; ``effective_n`` the number whose
    logged action matched the candidate policy (the "match rate"
    governs the variance of IPS-style estimators).  ``diagnostics``
    carries the reliability verdict (see :mod:`repro.core.diagnostics`)
    when the estimator computes one.
    """

    value: float
    std_error: float
    n: int
    effective_n: int
    estimator: str
    details: dict = field(default_factory=dict)
    diagnostics: Optional[ReliabilityDiagnostics] = None

    @property
    def reliable(self) -> bool:
        """Whether diagnostics (if computed) clear the UNRELIABLE bar."""
        return self.diagnostics is None or self.diagnostics.reliable

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation CI at ``z`` standard errors."""
        return (self.value - z * self.std_error, self.value + z * self.std_error)

    def __repr__(self) -> str:
        lo, hi = self.confidence_interval()
        flag = "" if self.reliable else " UNRELIABLE"
        return (
            f"EstimatorResult({self.estimator}: {self.value:.4f} "
            f"[{lo:.4f}, {hi:.4f}], n={self.n}{flag})"
        )


def eligible_actions_fn(dataset: Dataset) -> Callable[[Interaction], list[int]]:
    """Build a per-interaction eligible-action lookup for a dataset.

    Uses the dataset's :class:`~repro.core.types.ActionSpace` when one
    is attached (it may restrict actions per context); otherwise falls
    back to the set of action ids observed anywhere in the log, which
    is the best reconstruction available when scavenging foreign logs.
    """
    if dataset.action_space is not None:
        space = dataset.action_space
        return lambda interaction: space.actions(interaction.context)
    if len(dataset) == 0:
        return lambda interaction: [0]
    observed = sorted({i.action for i in dataset})
    return lambda interaction: observed


class OffPolicyEstimator(ABC):
    """Interface: estimate a policy's value from logged exploration data.

    ``backend`` selects the execution path (see :mod:`repro.core.engine`):
    ``"vectorized"`` evaluates through the columnar
    :class:`~repro.core.columns.DatasetColumns` view shared on the
    dataset, ``"scalar"`` walks the log row by row, ``"chunked"``
    folds fixed-size chunk slices through the reduction kernel
    (:mod:`repro.core.estimators.reductions`), and ``None`` (the
    default) follows the process-wide default backend.  All paths
    compute the same estimate to floating-point reassociation.
    """

    name: str = "estimator"
    #: Backend override; None follows the process-wide default.  A class
    #: attribute so subclasses with bespoke __init__ still resolve.
    backend: Optional[str] = None
    #: Which diagnostic check profile applies to this estimator family
    #: (see :data:`repro.core.diagnostics.PROFILES`).
    diagnostics_profile: str = "ips"
    #: Whether this estimator's reduction requires a fitted reward
    #: model (the chunked file driver fits one shared model up front).
    needs_model: bool = False

    def __init__(self, backend: Optional[str] = None) -> None:
        resolve_backend(backend)  # validate eagerly; None is "follow default"
        self.backend = backend

    def resolved_backend(self) -> str:
        """The concrete backend this estimator will execute with now."""
        return resolve_backend(self.backend)

    def estimate(self, policy: Policy, dataset: Dataset) -> EstimatorResult:
        """Estimate the average reward ``policy`` would obtain.

        The template all reduction-backed estimators share: build this
        estimator's reduction for the policy, fold the dataset through
        it on the resolved backend, and finalize against the log
        summary.  Subclasses customize by implementing
        :meth:`reduction`; estimators outside the reduction protocol
        (e.g. trajectory estimators) override this method wholesale.
        """
        self._require_data(dataset)
        from repro.core.engine import fold_dataset_chunked, get_chunk_size
        from repro.core.estimators.reductions import (
            LogSummary,
            ReductionContext,
        )

        backend = self.resolved_backend()
        with get_tracer().span(
            "estimate",
            estimator=self.name,
            policy=policy.name,
            backend=backend,
            n=len(dataset),
        ):
            context = ReductionContext.from_dataset(dataset)
            reduction = self._reduction(policy, dataset, context)
            state = reduction.init_state()
            if backend == "scalar":
                state = reduction.fold_scalar(state, dataset)
            elif backend == "chunked":
                state = fold_dataset_chunked(
                    reduction, state, dataset, chunk_size=get_chunk_size()
                )
            else:
                state = reduction.fold(state, dataset.columns())
            return reduction.finalize(
                state, LogSummary.from_columns(dataset.columns())
            )

    def reduction(self, policy: Policy, context):
        """Build this estimator's reduction for one candidate policy.

        ``context`` is a
        :class:`~repro.core.estimators.reductions.ReductionContext`
        describing the whole log.  Model-based estimators take an
        additional ``model`` keyword (a fitted
        :class:`~repro.core.estimators.direct.RewardModel`).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the reduction "
            "protocol"
        )

    def _reduction(self, policy: Policy, dataset: Dataset, context):
        """Reduction for the in-memory template (hooks model fitting)."""
        return self.reduction(policy, context)

    @staticmethod
    def _standard_error(samples: np.ndarray) -> float:
        """Standard error of the mean of ``samples``."""
        if samples.size <= 1:
            return float("inf")
        return float(np.std(samples, ddof=1) / np.sqrt(samples.size))

    def _require_data(self, dataset: Dataset) -> None:
        if len(dataset) == 0:
            raise ValueError(f"{self.name}: cannot estimate from an empty dataset")

    def _diagnose(
        self,
        dataset: Dataset,
        weights: Optional[np.ndarray],
        support_coverage: float,
    ) -> ReliabilityDiagnostics:
        """Reliability diagnostics for one estimate (both backends).

        Reads the logged (action, propensity) columns — identical data
        on either backend — and the estimator's own weight vector, so
        scalar and vectorized runs yield matching diagnostics.
        """
        columns = dataset.columns()
        return diagnose(
            weights,
            columns.propensities,
            columns.actions,
            support_coverage,
            profile=self.diagnostics_profile,
            identity_error=columns.propensity_identity_error(),
        )
