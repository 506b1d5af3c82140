"""Policy abstractions.

A *policy* maps a context to a distribution over eligible actions
(§2).  Deterministic policies are the special case of a point-mass
distribution.  Every policy here exposes:

- :meth:`Policy.distribution`: the probability of each eligible action
  given a context — this is what the IPS estimator needs to evaluate
  the policy offline, and what the logging side needs to record
  propensities.
- :meth:`Policy.act`: sample an action, returning ``(action,
  propensity)`` so the caller can log the exploration tuple.
- :meth:`Policy.probabilities_batch`: the whole-log analogue of
  :meth:`~Policy.distribution` — an ``(N, K)`` probability matrix over
  a :class:`~repro.core.columns.ContextColumns` view, which is what
  the vectorized estimators consume.  Built-in policies implement it
  with array code; the base class provides a correct per-row fallback
  so arbitrary user policies keep working.
- :meth:`Policy.act_batch`: the whole-batch analogue of
  :meth:`~Policy.act` — sample one action per row from the
  ``probabilities_batch`` matrix with a single generator draw,
  returning ``(actions, propensities)`` arrays.  This is the
  harvest-side hot path: declared propensities come from the same
  matrix the actions are sampled from, so they match exactly.

The enumerable :class:`PolicyClass` models the paper's "class of
policies Π defined by a tunable template" that offline optimization
searches over.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.core.columns import as_decision_batch, loop_probabilities
from repro.core.engine import warn_missing_batch
from repro.core.types import Context
from repro.simsys.random_source import choice_index

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.columns import ContextColumns, DatasetColumns, EligibleSpec


def sample_from_probabilities(
    matrix: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one action per row of an ``(N, K)`` probability matrix.

    Inverse-CDF sampling with exactly **one uniform draw per row**, in
    row order (``rng.random(N)``).  Because a `numpy Generator's`
    ``random(n)`` is bit-identical to ``n`` sequential ``random()``
    calls, sampling a batch of N rows consumes the same stream as
    sampling two batches of N/2 — the foundation of the harvest
    determinism contract (results are invariant to batch size; see
    ``docs/harvesting.md``).

    Each row's CDF is scaled by its own total, so rows need only be
    *proportional* to a distribution; zero-probability actions are
    never selected (a zero-width CDF step can't straddle the uniform).
    Returns ``(actions, propensities)`` where ``propensities[t] ==
    matrix[t, actions[t]]`` exactly — what the sampler declares is what
    the estimator divides by.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    n, _ = matrix.shape
    if n == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    if (matrix < 0.0).any():
        raise ValueError("probabilities must be non-negative")
    cdf = np.cumsum(matrix, axis=1)
    totals = cdf[:, -1:]
    if (totals <= 0.0).any():
        bad = int(np.argmax((totals <= 0.0).ravel()))
        raise ValueError(f"row {bad} has zero total probability")
    # Smallest index whose CDF strictly exceeds u * total == number of
    # CDF entries ≤ the target.  `<=` (not `<`) skips zero-probability
    # prefixes whose CDF equals the target exactly.
    draws = rng.random(n)
    chosen = (cdf <= draws[:, None] * totals).sum(axis=1)
    # Guard the u→1 rounding edge (u * total can round up to total):
    # clamp to each row's last nonzero-probability column.
    last_nonzero = matrix.shape[1] - 1 - np.argmax(
        (matrix > 0.0)[:, ::-1], axis=1
    )
    chosen = np.minimum(chosen, last_nonzero)
    return chosen, matrix[np.arange(n), chosen]


class Policy(ABC):
    """Base class: a (possibly stochastic) mapping context → action."""

    name: str = "policy"

    @abstractmethod
    def distribution(self, context: Context, actions: Sequence[int]) -> np.ndarray:
        """Probability of each action in ``actions`` given ``context``.

        Returns an array aligned with ``actions`` that sums to 1.
        """

    def act(
        self, context: Context, actions: Sequence[int], rng: np.random.Generator
    ) -> tuple[int, float]:
        """Sample an action; return ``(action, propensity)``."""
        probs = self.distribution(context, actions)
        index = choice_index(rng, len(actions), probs)
        return actions[index], float(probs[index])

    def action(self, context: Context, actions: Sequence[int]) -> int:
        """The modal action — used when evaluating a policy as deterministic."""
        probs = self.distribution(context, actions)
        return actions[int(np.argmax(probs))]

    def probability_of(
        self, context: Context, actions: Sequence[int], action: int
    ) -> float:
        """Probability this policy assigns to a specific action."""
        if action not in actions:
            return 0.0
        probs = self.distribution(context, actions)
        return float(probs[list(actions).index(action)])

    def probabilities_batch(self, columns: "DatasetColumns") -> np.ndarray:
        """``(N, K)`` action-probability matrix over a columnar log view.

        Row ``t`` is this policy's distribution at context ``x_t``,
        with exactly zero mass on ineligible actions.  This base
        implementation is the loop fallback: correct for any policy,
        but it forfeits the vectorized speedup, so it warns once per
        policy type.  Subclasses override it with array code; the
        contract is bit-for-bit agreement with per-row
        :meth:`distribution` up to floating-point reassociation
        (enforced by ``tests/core/test_batch_equivalence.py``).
        """
        warn_missing_batch(type(self))
        return loop_probabilities(self, columns)

    def act_batch(
        self,
        contexts: "Sequence[Context] | ContextColumns",
        eligible: "Optional[EligibleSpec]",
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample one action per context; return ``(actions, propensities)``.

        The batch analogue of :meth:`act`, and the harvest-side hot
        path: builds the ``(N, K)`` probability matrix once via
        :meth:`probabilities_batch` (vectorized for every built-in) and
        samples all rows with a single generator call.  ``contexts``
        may be a prebuilt :class:`~repro.core.columns.ContextColumns`
        (pass ``eligible=None``) so callers that already hold a batch
        skip mask construction.

        Determinism contract: this method consumes exactly **one
        uniform per row, in row order** (or none at all, for overrides
        like :class:`HashPolicy` that don't randomize) — never a
        data-dependent amount.  Harvesting N rows therefore produces
        bit-identical logs for any batch split of the same generator,
        and declared propensities equal the matrix entries the actions
        were sampled from.  Note this is a *different stream* than
        repeated legacy :meth:`act` calls, which go through
        ``Generator.choice``.
        """
        batch = as_decision_batch(contexts, eligible)
        matrix = self.probabilities_batch(batch)
        return sample_from_probabilities(matrix, rng)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


def _point_mass(actions: Sequence[int], chosen: int) -> np.ndarray:
    probs = np.zeros(len(actions))
    probs[list(actions).index(chosen)] = 1.0
    return probs


class ConstantPolicy(Policy):
    """Always choose one fixed action (e.g. Table 2's "send to 1")."""

    def __init__(self, action: int, name: Optional[str] = None) -> None:
        self._action = action
        self.name = name or f"constant[{action}]"

    def distribution(self, context: Context, actions: Sequence[int]) -> np.ndarray:
        if self._action not in actions:
            raise ValueError(
                f"constant action {self._action} not eligible in {list(actions)}"
            )
        return _point_mass(actions, self._action)

    def probabilities_batch(self, columns: "DatasetColumns") -> np.ndarray:
        if (
            not 0 <= self._action < columns.n_actions
            or not columns.eligible_mask[:, self._action].all()
        ):
            raise ValueError(
                f"constant action {self._action} not eligible at every "
                "logged context"
            )
        return columns.point_mass_matrix(
            np.full(columns.n, self._action, dtype=np.int64)
        )


class UniformRandomPolicy(Policy):
    """Choose uniformly at random — the canonical logging policy."""

    name = "uniform-random"

    def distribution(self, context: Context, actions: Sequence[int]) -> np.ndarray:
        return np.full(len(actions), 1.0 / len(actions))

    def probabilities_batch(self, columns: "DatasetColumns") -> np.ndarray:
        return columns.uniform_matrix()


class DeterministicFunctionPolicy(Policy):
    """Wrap an arbitrary ``f(context, actions) -> action`` as a policy.

    This is how system heuristics (least-loaded, LRU, ...) enter the
    off-policy evaluation machinery as candidate policies.
    """

    def __init__(
        self,
        choose: Callable[[Context, Sequence[int]], int],
        name: str = "deterministic",
    ) -> None:
        self._choose = choose
        self.name = name

    def distribution(self, context: Context, actions: Sequence[int]) -> np.ndarray:
        chosen = self._choose(context, actions)
        if chosen not in actions:
            raise ValueError(f"choice {chosen} not among eligible {list(actions)}")
        return _point_mass(actions, chosen)


class EpsilonGreedyPolicy(Policy):
    """Follow a base policy w.p. ``1 - ε``, explore uniformly w.p. ``ε``.

    Guarantees every eligible action has propensity ≥ ε/|A|, which is
    exactly the coverage condition the IPS estimator needs (§4).
    """

    def __init__(self, base: Policy, epsilon: float, name: Optional[str] = None) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.base = base
        self.epsilon = epsilon
        self.name = name or f"eps-greedy[{base.name}, eps={epsilon}]"

    def distribution(self, context: Context, actions: Sequence[int]) -> np.ndarray:
        base = self.base.distribution(context, actions)
        uniform = np.full(len(actions), 1.0 / len(actions))
        return (1.0 - self.epsilon) * base + self.epsilon * uniform

    def probabilities_batch(self, columns: "DatasetColumns") -> np.ndarray:
        base = self.base.probabilities_batch(columns)
        return (1.0 - self.epsilon) * base + self.epsilon * columns.uniform_matrix()


class SoftmaxPolicy(Policy):
    """Boltzmann distribution over a per-action score function.

    ``scorer(context, action)`` returns a desirability score; higher is
    better.  ``temperature`` → 0 approaches greedy; → ∞ approaches
    uniform.

    ``batch_scorer(columns)``, when given, returns the whole ``(N, K)``
    score matrix for a columnar log view in one call, letting
    :meth:`probabilities_batch` run entirely at array speed; without it
    the scores are gathered per row (the softmax itself is still
    vectorized).
    """

    def __init__(
        self,
        scorer: Callable[[Context, int], float],
        temperature: float = 1.0,
        name: str = "softmax",
        batch_scorer: Optional[
            Callable[["DatasetColumns"], np.ndarray]
        ] = None,
    ) -> None:
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self._scorer = scorer
        self._batch_scorer = batch_scorer
        self.temperature = temperature
        self.name = name

    def distribution(self, context: Context, actions: Sequence[int]) -> np.ndarray:
        scores = np.array([self._scorer(context, a) for a in actions], dtype=float)
        scaled = scores / self.temperature
        scaled -= scaled.max()  # overflow-safe softmax
        exp = np.exp(scaled)
        return exp / exp.sum()

    def _score_matrix(self, columns: "DatasetColumns") -> np.ndarray:
        if self._batch_scorer is not None:
            scores = np.asarray(self._batch_scorer(columns), dtype=float)
            if scores.shape != (columns.n, columns.n_actions):
                raise ValueError(
                    f"batch_scorer must return shape "
                    f"({columns.n}, {columns.n_actions}), got {scores.shape}"
                )
            return scores
        scores = np.zeros((columns.n, columns.n_actions))
        for row, context in enumerate(columns.contexts):
            for action in columns.eligible_lists[row]:
                scores[row, action] = self._scorer(context, action)
        return scores

    def probabilities_batch(self, columns: "DatasetColumns") -> np.ndarray:
        mask = columns.eligible_mask
        scaled = self._score_matrix(columns) / self.temperature
        guarded = np.where(mask, scaled, -np.inf)
        # Row-wise overflow-safe softmax over the eligible entries;
        # exp(-inf) puts exact zeros on ineligible actions.
        guarded -= guarded.max(axis=1, keepdims=True)
        exp = np.exp(guarded)
        return exp / exp.sum(axis=1, keepdims=True)


class GreedyRegressorPolicy(Policy):
    """Greedily pick the action with the best predicted reward.

    ``predict(context, action)`` is typically a regression oracle
    trained with importance weighting (see
    :class:`repro.core.learners.cb.EpsilonGreedyLearner`).  Ties break
    toward the lowest action id, deterministically.

    ``batch_predict(columns)``, when given, returns the ``(N, K)``
    prediction matrix in one call (e.g.
    :meth:`repro.core.estimators.direct.RewardModel.predict_matrix`),
    making :meth:`probabilities_batch` a pure array computation.
    """

    def __init__(
        self,
        predict: Callable[[Context, int], float],
        maximize: bool = True,
        name: str = "greedy-regressor",
        batch_predict: Optional[
            Callable[["DatasetColumns"], np.ndarray]
        ] = None,
    ) -> None:
        self._predict = predict
        self._batch_predict = batch_predict
        self.maximize = maximize
        self.name = name

    def distribution(self, context: Context, actions: Sequence[int]) -> np.ndarray:
        scores = np.array([self._predict(context, a) for a in actions], dtype=float)
        best = int(np.argmax(scores)) if self.maximize else int(np.argmin(scores))
        return _point_mass(actions, actions[best])

    def probabilities_batch(self, columns: "DatasetColumns") -> np.ndarray:
        if not columns.canonical_order:
            # Masked argmax tie-breaks by lowest action id; that only
            # matches the scalar path's first-in-list tie-break when
            # eligible lists are ascending, so play it safe otherwise.
            return loop_probabilities(self, columns)
        if self._batch_predict is not None:
            scores = np.asarray(self._batch_predict(columns), dtype=float)
            if scores.shape != (columns.n, columns.n_actions):
                raise ValueError(
                    f"batch_predict must return shape "
                    f"({columns.n}, {columns.n_actions}), got {scores.shape}"
                )
        else:
            scores = np.zeros((columns.n, columns.n_actions))
            for row, context in enumerate(columns.contexts):
                for action in columns.eligible_lists[row]:
                    scores[row, action] = self._predict(context, action)
        best = columns.masked_argbest(scores, maximize=self.maximize)
        return columns.point_mass_matrix(best)


class HashPolicy(Policy):
    """Hash-based routing, e.g. consistent request sharding.

    §2: a hash policy "can be viewed as random if the context does not
    include the inputs to the hash."  ``key_of`` extracts the hash key
    (a string) from the context metadata; the induced distribution,
    marginalized over keys, is uniform, which is the propensity this
    policy reports.
    """

    def __init__(self, key_of: Callable[[Context], str], name: str = "hash") -> None:
        self._key_of = key_of
        self.name = name

    def distribution(self, context: Context, actions: Sequence[int]) -> np.ndarray:
        # Marginal over hash keys: uniform. Used for propensities.
        return np.full(len(actions), 1.0 / len(actions))

    def probabilities_batch(self, columns: "DatasetColumns") -> np.ndarray:
        # Same marginal the scalar path reports: uniform over eligible.
        return columns.uniform_matrix()

    def act(
        self, context: Context, actions: Sequence[int], rng: np.random.Generator
    ) -> tuple[int, float]:
        key = self._key_of(context)
        index = zlib.crc32(key.encode("utf-8")) % len(actions)
        # The *propensity* is the marginal probability, not 1.0: the
        # action is deterministic given the key, but the key is
        # independent of the (key-free) context.
        return actions[index], 1.0 / len(actions)

    def act_batch(
        self,
        contexts: "Sequence[Context] | ContextColumns",
        eligible: "Optional[EligibleSpec]",
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Route every row by its hash key — consumes no randomness.

        Matches scalar :meth:`act` exactly (same crc32 → index map,
        same marginal-uniform propensity); the generator is accepted
        for protocol uniformity but never drawn from, which trivially
        satisfies the batch-split determinism contract.
        """
        batch = as_decision_batch(contexts, eligible)
        counts = batch.eligible_counts.astype(np.int64)
        hashes = np.fromiter(
            (
                zlib.crc32(self._key_of(context).encode("utf-8"))
                for context in batch.contexts
            ),
            dtype=np.int64,
            count=batch.n,
        )
        index = hashes % np.maximum(counts, 1)
        if batch.uniform_eligibility and batch.n > 0:
            lookup = np.asarray(batch.eligible_lists[0], dtype=np.int64)
            actions = lookup[index]
        else:
            actions = np.fromiter(
                (
                    batch.eligible_lists[row][index[row]]
                    for row in range(batch.n)
                ),
                dtype=np.int64,
                count=batch.n,
            )
        return actions, 1.0 / batch.eligible_counts


class MixturePolicy(Policy):
    """A convex mixture of policies.

    Models e.g. a staged rollout that sends 90% of traffic through the
    incumbent and 10% through a candidate.
    """

    def __init__(
        self,
        policies: Sequence[Policy],
        weights: Sequence[float],
        name: str = "mixture",
    ) -> None:
        if len(policies) != len(weights):
            raise ValueError("one weight per policy required")
        if not policies:
            raise ValueError("mixture of zero policies")
        weights_arr = np.asarray(weights, dtype=float)
        if (weights_arr < 0).any() or not np.isclose(weights_arr.sum(), 1.0):
            raise ValueError("weights must be a probability vector")
        self.policies = list(policies)
        self.weights = weights_arr
        self.name = name

    def distribution(self, context: Context, actions: Sequence[int]) -> np.ndarray:
        out = np.zeros(len(actions))
        for policy, weight in zip(self.policies, self.weights):
            out += weight * policy.distribution(context, actions)
        return out

    def probabilities_batch(self, columns: "DatasetColumns") -> np.ndarray:
        out = np.zeros((columns.n, columns.n_actions))
        for policy, weight in zip(self.policies, self.weights):
            out += weight * policy.probabilities_batch(columns)
        return out


class LinearThresholdPolicy(Policy):
    """Deterministic policy from a linear score over context features.

    Picks ``argmax_a  w_a · φ(x)`` where ``φ`` selects named features.
    A family of these (random weight draws) forms the "linear vectors"
    policy template the paper mentions; :class:`PolicyClass` enumerates
    them for offline optimization.
    """

    def __init__(
        self,
        weights: np.ndarray,
        feature_names: Sequence[str],
        name: str = "linear",
    ) -> None:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2:
            raise ValueError("weights must be (n_actions, n_features)")
        if weights.shape[1] != len(feature_names) + 1:
            raise ValueError(
                "weights need one column per feature plus a bias column"
            )
        self.weights = weights
        self.feature_names = list(feature_names)
        self.name = name

    def _phi(self, context: Context) -> np.ndarray:
        values = [float(context.get(f, 0.0)) for f in self.feature_names]
        return np.array(values + [1.0])

    def distribution(self, context: Context, actions: Sequence[int]) -> np.ndarray:
        phi = self._phi(context)
        scores = np.array([self.weights[a] @ phi for a in actions])
        return _point_mass(actions, actions[int(np.argmax(scores))])

    def probabilities_batch(self, columns: "DatasetColumns") -> np.ndarray:
        if (
            self.weights.shape[0] < columns.n_actions
            or not columns.canonical_order
        ):
            # Either some eligible action has no weight row (the scalar
            # path would fail on it anyway) or argmax tie-breaking is
            # not reproducible by a masked argmax; defer to the loop.
            return loop_probabilities(self, columns)
        phi = columns.feature_matrix(self.feature_names)
        scores = phi @ self.weights[: columns.n_actions].T
        best = columns.masked_argbest(scores)
        return columns.point_mass_matrix(best)


class PolicyClass:
    """An enumerable class Π of candidate policies.

    Offline optimization in §4 searches a class of size up to
    ``|Π| = 10^6``; this container supports that search and the Eq. 1
    union bound over its members.
    """

    def __init__(self, policies: Sequence[Policy], name: str = "policy-class") -> None:
        if not policies:
            raise ValueError("empty policy class")
        self.policies = list(policies)
        self.name = name

    def __len__(self) -> int:
        return len(self.policies)

    def __iter__(self):
        return iter(self.policies)

    def __getitem__(self, index: int) -> Policy:
        return self.policies[index]

    @classmethod
    def random_linear(
        cls,
        n_policies: int,
        n_actions: int,
        feature_names: Sequence[str],
        rng: np.random.Generator,
        scale: float = 1.0,
    ) -> "PolicyClass":
        """A class of random linear-threshold policies (a dense sample
        of the 'linear vectors' template)."""
        policies: list[Policy] = []
        for index in range(n_policies):
            weights = rng.normal(0.0, scale, size=(n_actions, len(feature_names) + 1))
            policies.append(
                LinearThresholdPolicy(weights, feature_names, name=f"linear-{index}")
            )
        return cls(policies, name=f"random-linear[{n_policies}]")

    @classmethod
    def all_constant(cls, n_actions: int) -> "PolicyClass":
        """The class of all single-action policies — the A/B-test analogue."""
        return cls(
            [ConstantPolicy(a) for a in range(n_actions)],
            name=f"constants[{n_actions}]",
        )
