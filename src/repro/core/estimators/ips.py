"""Inverse propensity scoring (IPS) estimators.

The workhorse of §4::

    ips(π) = (1/N) Σ_t  1{π(x_t) = a_t} · r_t / p_t

Each logged interaction whose action matches the candidate policy's
choice contributes its reward, up-weighted by the inverse of the logged
propensity; non-matching interactions contribute zero.  The estimate is
unbiased whenever every action has positive logged propensity, but its
variance grows as 1/p, which motivates the clipped and self-normalized
variants also implemented here.

For a *stochastic* candidate π the indicator generalizes to the
importance ratio ``π(a_t | x_t) / p_t``.

All three estimators execute through the reduction kernel
(:mod:`repro.core.estimators.reductions`) on any evaluation backend
(see :mod:`repro.core.engine`): the vectorized path folds one
whole-log chunk computed from a single
:meth:`~repro.core.policies.Policy.probabilities_batch` call, the
scalar path folds the per-row reference loop's output, and the
chunked path folds fixed-size zero-copy slices of the cached columns.
Every derived quantity (terms,
match counts, clipping statistics, diagnostics accumulators) comes
from a *single* weight pass per chunk.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.estimators.base import (
    OffPolicyEstimator,
    eligible_actions_fn,
)
from repro.core.policies import Policy
from repro.core.types import Dataset


class IPSEstimator(OffPolicyEstimator):
    """Plain (unclipped) inverse propensity scoring."""

    name = "ips"
    diagnostics_profile = "ips"

    def reduction(self, policy: Policy, context):
        from repro.core.estimators.reductions import IPSReduction

        return IPSReduction(policy, context, name=self.name)

    def match_weights(self, policy: Policy, dataset: Dataset) -> np.ndarray:
        """Per-interaction importance ratios ``π(a_t|x_t)/p_t``.

        On the vectorized backend the whole-log weight vector is
        memoized on the dataset's columns
        (:meth:`~repro.core.columns.DatasetColumns.ips_weights`), so a
        bootstrap fanning hundreds of replicates over one (policy, log)
        pair computes it exactly once.
        """
        self._require_data(dataset)
        backend = self.resolved_backend()
        if backend == "vectorized":
            return dataset.columns().ips_weights(policy)
        if backend == "chunked":
            from repro.core.columns import iter_column_slices
            from repro.core.engine import get_chunk_size

            return np.concatenate(
                [
                    chunk.logged_probabilities(policy) / chunk.propensities
                    for chunk in iter_column_slices(
                        dataset.columns(), get_chunk_size()
                    )
                ]
            )
        eligible = eligible_actions_fn(dataset)
        weights = np.empty(len(dataset))
        for index, interaction in enumerate(dataset):
            pi_prob = policy.probability_of(
                interaction.context, eligible(interaction), interaction.action
            )
            weights[index] = pi_prob / interaction.propensity
        return weights

    def weighted_rewards(self, policy: Policy, dataset: Dataset) -> np.ndarray:
        """Per-interaction terms ``π(a_t|x_t)/p_t · r_t`` (the summands)."""
        return self.match_weights(policy, dataset) * self._rewards(dataset)

    def _rewards(self, dataset: Dataset) -> np.ndarray:
        if self.resolved_backend() == "vectorized":
            return dataset.columns().rewards
        return dataset.rewards()


class ClippedIPSEstimator(IPSEstimator):
    """IPS with importance weights clipped at ``max_weight``.

    Clipping trades a little bias for a hard variance cap — the
    standard mitigation when scavenged logs contain rare actions with
    tiny propensities.
    """

    diagnostics_profile = "clipped"

    def __init__(
        self, max_weight: float = 100.0, backend: Optional[str] = None
    ) -> None:
        super().__init__(backend=backend)
        if max_weight <= 0:
            raise ValueError("max_weight must be positive")
        self.max_weight = max_weight
        self.name = f"clipped-ips[{max_weight:g}]"

    def reduction(self, policy: Policy, context):
        from repro.core.estimators.reductions import ClippedIPSReduction

        return ClippedIPSReduction(
            policy, context, name=self.name, max_weight=self.max_weight
        )


class SNIPSEstimator(IPSEstimator):
    """Self-normalized IPS: divide by the sum of importance weights.

    Exactly invariant to additive reward shifts and usually much lower
    variance than plain IPS, at the cost of a small (vanishing) bias.
    """

    name = "snips"
    diagnostics_profile = "snips"

    def reduction(self, policy: Policy, context):
        from repro.core.estimators.reductions import SNIPSReduction

        return SNIPSReduction(policy, context, name=self.name)
