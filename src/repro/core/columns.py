"""Columnar views for batch off-policy evaluation *and* batch harvesting.

The scalar paths walk one row at a time, re-resolving eligible actions
and re-featurizing the context for every policy they touch.  That
per-row work is identical across the hundreds of candidate policies a
class search evaluates — §4's "simultaneous evaluation" promise makes
it the hottest path in the system — and, symmetrically, identical
across the hundreds of thousands of decisions a harvest-side workload
generator draws.  Both sides share the machinery in this module:

- :class:`ContextColumns` hoists everything that depends only on the
  *decision-time inputs* (contexts + eligibility) out of the per-row
  loop: the ``(N, K)`` boolean eligibility mask, eligible counts, and
  memoized feature matrices (named-feature and hashed layouts).
- :class:`DecisionBatch` is the harvest-side view: a batch of contexts
  about to be *acted on* by :meth:`repro.core.policies.Policy.act_batch`,
  before any action, reward, or propensity exists.
- :class:`DatasetColumns` is the evaluation-side view: a logged
  dataset's contexts plus its ``actions``/``rewards``/``propensities``
  arrays.  :meth:`DatasetColumns.from_arrays` closes the loop — the
  batch harvester writes its sampled actions and propensities straight
  into a columnar view, so generated logs feed the vectorized
  estimators without ever constructing per-row objects.

Policies consume either view through
:meth:`~repro.core.policies.Policy.probabilities_batch`, which returns
the full ``(N, K)`` probability matrix; estimators reduce that matrix
with a handful of array operations, and ``act_batch`` samples from it
with one uniform draw per row.  Columns are cached on the dataset (see
:meth:`repro.core.types.Dataset.columns`) and invalidated when the
dataset is mutated, so every estimator and every member of a policy
class shares one featurization pass.
"""

from __future__ import annotations

import mmap
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

import numpy as np

from repro.core.features import Featurizer
from repro.core.types import ActionSpace, Context, Dataset, Interaction, RewardRange

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.policies import Policy

#: Eligibility in batch form: one shared action list for every row, or
#: one list per row.
EligibleSpec = Union[Sequence[int], Sequence[Sequence[int]]]


def is_per_row_eligibility(eligible: EligibleSpec) -> bool:
    """Whether an eligibility spec is per-row (vs one shared list).

    A shared spec is a flat sequence of ints; a per-row spec is a
    sequence of sequences, one per row.  Empty specs count as shared.
    """
    try:
        first = eligible[0]  # type: ignore[index]
    except (IndexError, TypeError, KeyError):
        return False
    return not isinstance(first, (int, np.integer))


class ContextColumns:
    """Columnar view of decision-time inputs: contexts + eligibility.

    ``n_actions`` (K) bounds the action ids; ``eligible_mask[t, a]`` is
    whether action ``a`` is eligible at row ``t``.  Probabilities of
    ineligible actions are exactly zero in every batch matrix built
    from this view.  Subclasses add outcome columns
    (:class:`DatasetColumns`) or stay pure decision batches
    (:class:`DecisionBatch`).
    """

    def __init__(
        self,
        contexts: Sequence[Context],
        eligible: EligibleSpec,
        n_actions: Optional[int] = None,
    ) -> None:
        contexts = tuple(contexts)
        n = len(contexts)
        if is_per_row_eligibility(eligible):
            eligible_lists = tuple(
                tuple(int(a) for a in row) for row in eligible
            )
            if len(eligible_lists) != n:
                raise ValueError(
                    f"got {len(eligible_lists)} eligibility rows for "
                    f"{n} contexts"
                )
            uniform = len(set(eligible_lists)) <= 1
        else:
            shared = tuple(int(a) for a in eligible)
            eligible_lists = (shared,) * n
            uniform = True
        for row in set(eligible_lists):
            if not row:
                raise ValueError("every row needs at least one eligible action")
            if min(row) < 0:
                raise ValueError(f"negative action id in eligible set {row}")
        if n_actions is None:
            n_actions = (
                max(max(row) for row in set(eligible_lists)) + 1
                if eligible_lists
                else 1
            )
        self._init_columns(contexts, eligible_lists, int(n_actions), uniform)

    # Shared initializer so DatasetColumns can keep its own eligibility
    # reconstruction (action space / observed actions) while reusing the
    # mask assembly and caches.
    def _init_columns(
        self,
        contexts: tuple[Context, ...],
        eligible_lists: tuple[tuple[int, ...], ...],
        n_actions: int,
        uniform_eligibility: bool,
    ) -> None:
        n = len(contexts)
        self.n = n
        self.contexts = contexts
        self.n_actions = n_actions
        self.eligible_lists = eligible_lists
        distinct = set(eligible_lists)
        for row in distinct:
            if row and max(row) >= n_actions:
                raise ValueError(
                    f"eligible action {max(row)} outside action space of "
                    f"size {n_actions}"
                )
        mask = np.zeros((n, n_actions), dtype=bool)
        if len(distinct) == 1 and n > 0:
            mask[:, list(eligible_lists[0])] = True
        else:
            for row, eligible in enumerate(eligible_lists):
                mask[row, list(eligible)] = True
        self.eligible_mask = mask
        self.uniform_eligibility = uniform_eligibility
        self.eligible_counts = mask.sum(axis=1).astype(float)
        #: Whether every row's eligible list is sorted ascending.  When
        #: true, a masked argmax (lowest-id tie-break) reproduces the
        #: scalar path's first-in-list tie-break exactly; deterministic
        #: batch policies fall back to the loop otherwise.
        self.canonical_order = all(
            all(a < b for a, b in zip(row, row[1:])) for row in distinct
        )
        self._row_index = np.arange(n)
        self._feature_matrices: dict[tuple[str, ...], np.ndarray] = {}
        self._hashed_matrices: dict[int, tuple[object, np.ndarray]] = {}
        # Dataset-level memos (see shared_block / ips_weights); kept at
        # this level so every construction path initializes them.
        self._shared_block = None
        self._ips_weight_cache: dict[int, tuple[object, np.ndarray]] = {}

    # -- memoized featurizations -------------------------------------------

    def feature_matrix(self, feature_names: Sequence[str]) -> np.ndarray:
        """``(N, F+1)`` matrix of named features plus a bias column.

        Matches :class:`~repro.core.policies.LinearThresholdPolicy`'s
        ``φ(x)`` layout; memoized per feature-name tuple so a class of
        |Π| linear policies sharing a template featurizes once.
        """
        key = tuple(feature_names)
        cached = self._feature_matrices.get(key)
        if cached is None:
            if isinstance(self.contexts, PackedContexts):
                cached = self.contexts.feature_matrix(key)
            else:
                cached = np.empty((self.n, len(key) + 1))
                for row, context in enumerate(self.contexts):
                    for col, name in enumerate(key):
                        cached[row, col] = float(context.get(name, 0.0))
                cached[:, -1] = 1.0
            self._feature_matrices[key] = cached
        return cached

    def hashed_matrix(self, featurizer: Featurizer) -> np.ndarray:
        """``(N, n_dims)`` hashed context matrix, memoized per featurizer.

        Packed contexts hash column-wise (see
        :meth:`PackedContexts.hashed_matrix`) unless the featurizer
        customizes its hashing, in which case its own per-row
        :meth:`~repro.core.features.Featurizer.matrix` runs.
        """
        entry = self._hashed_matrices.get(id(featurizer))
        if entry is None or entry[0] is not featurizer:
            if isinstance(self.contexts, PackedContexts) and (
                type(featurizer).vector is Featurizer.vector
                and type(featurizer)._slot is Featurizer._slot
            ):
                matrix = self.contexts.hashed_matrix(featurizer)
            else:
                matrix = featurizer.matrix(list(self.contexts))
            entry = (featurizer, matrix)
            self._hashed_matrices[id(featurizer)] = entry
        return entry[1]

    # -- batch building blocks ---------------------------------------------

    def uniform_matrix(self) -> np.ndarray:
        """``(N, K)`` uniform distribution over each row's eligible set."""
        out = np.zeros((self.n, self.n_actions))
        np.divide(
            1.0,
            self.eligible_counts[:, None],
            out=out,
            where=self.eligible_mask,
        )
        return out

    def point_mass_matrix(self, chosen: np.ndarray) -> np.ndarray:
        """``(N, K)`` matrix putting probability 1 on ``chosen[t]``."""
        chosen = np.asarray(chosen, dtype=np.int64)
        if chosen.shape != (self.n,):
            raise ValueError(f"chosen must have shape ({self.n},)")
        out = np.zeros((self.n, self.n_actions))
        out[self._row_index, chosen] = 1.0
        return out

    def masked_argbest(self, scores: np.ndarray, maximize: bool = True) -> np.ndarray:
        """Per-row best *eligible* action id for a ``(N, K)`` score matrix.

        Ties break toward the lowest action id, matching the scalar
        path when eligible lists are in canonical (ascending) order.
        """
        if scores.shape != (self.n, self.n_actions):
            raise ValueError(
                f"scores must have shape ({self.n}, {self.n_actions})"
            )
        guarded = np.where(
            self.eligible_mask, scores if maximize else -scores, -np.inf
        )
        return np.argmax(guarded, axis=1)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, k={self.n_actions})"


class DecisionBatch(ContextColumns):
    """A batch of contexts about to be acted on (the harvest side).

    This is what :meth:`repro.core.policies.Policy.act_batch` consumes:
    decision-time contexts plus eligibility, with no actions, rewards,
    or propensities yet.  It shares the memoized feature matrices and
    mask machinery of :class:`ContextColumns`, so a vectorized policy
    pays featurization once per batch rather than once per row.
    """

    @classmethod
    def from_action_space(
        cls,
        contexts: Sequence[Context],
        space: Optional[ActionSpace],
        observed: Optional[Sequence[int]] = None,
    ) -> "DecisionBatch":
        """Build a batch whose eligibility comes from an action space.

        Mirrors :class:`DatasetColumns`' reconstruction: a restricted
        space is resolved per context, an unrestricted one is shared;
        with no space at all, ``observed`` (sorted) stands in for the
        eligible set, as for a scavenged log.
        """
        if space is not None and space.restricted:
            eligible: EligibleSpec = [
                tuple(space.actions(context)) for context in contexts
            ]
            return cls(contexts, eligible, n_actions=space.n_actions)
        if space is not None:
            return cls(
                contexts, tuple(range(space.n_actions)),
                n_actions=space.n_actions,
            )
        shared = tuple(sorted(set(int(a) for a in (observed or ())))) or (0,)
        return cls(contexts, shared, n_actions=max(shared) + 1)


def as_decision_batch(
    contexts, eligible: Optional[EligibleSpec] = None
) -> ContextColumns:
    """Coerce ``(contexts, eligible)`` into a columnar decision view.

    Accepts a prebuilt :class:`ContextColumns` (with ``eligible=None``)
    and passes it through unchanged, so callers that already hold a
    batch — the harvest engine, chained policies — pay for mask
    construction once.
    """
    if isinstance(contexts, ContextColumns):
        if eligible is not None:
            raise ValueError(
                "eligible must be None when contexts is already columnar"
            )
        return contexts
    if eligible is None:
        raise ValueError("eligible is required for raw context sequences")
    return DecisionBatch(contexts, eligible)


class DatasetColumns(ContextColumns):
    """Immutable columnar view of a dataset, shared across evaluations.

    ``n_actions`` (K) is the action-space size when the dataset carries
    one, else ``max(logged action) + 1`` — the best reconstruction
    available for scavenged logs.  ``eligible_mask[t, a]`` is whether
    action ``a`` was eligible at row ``t``; probabilities of ineligible
    actions are exactly zero in every batch matrix.
    """

    def __init__(self, dataset: Dataset) -> None:
        # Single pass over the log: one traversal fills every outcome
        # column and collects the contexts, and no per-row Interaction
        # list is retained once the arrays exist.
        n = len(dataset)
        context_list: list[Context] = []
        actions = np.empty(n, dtype=np.int64)
        rewards = np.empty(n, dtype=np.float64)
        propensities = np.empty(n, dtype=np.float64)
        timestamps = np.empty(n, dtype=np.float64)
        for row, interaction in enumerate(dataset):
            context_list.append(interaction.context)
            actions[row] = interaction.action
            rewards[row] = interaction.reward
            propensities[row] = interaction.propensity
            timestamps[row] = interaction.timestamp
        contexts: tuple[Context, ...] = tuple(context_list)
        del context_list
        self._init_logged(
            contexts, actions, rewards, propensities, timestamps,
            dataset.action_space, dataset.reward_range,
        )

    def _init_logged(
        self,
        contexts: Sequence[Context],
        actions: np.ndarray,
        rewards: np.ndarray,
        propensities: np.ndarray,
        timestamps: np.ndarray,
        space: Optional[ActionSpace],
        reward_range: Optional[RewardRange],
    ) -> None:
        n = len(actions)
        if space is not None:
            n_actions = space.n_actions
        elif n > 0:
            n_actions = int(actions.max()) + 1
        else:
            n_actions = 1

        # Per-row eligible actions, mirroring eligible_actions_fn: the
        # action space (possibly context-restricted) when present, else
        # the set of actions observed anywhere in the log.
        if space is not None and space.restricted:
            if isinstance(space._eligibility, FixedEligibility):
                # Context-free by construction: resolve once, without
                # rebuilding (possibly packed) context dicts.
                eligible_lists: tuple[tuple[int, ...], ...] = (
                    tuple(space.actions({})),
                ) * n
            else:
                eligible_lists = tuple(
                    tuple(space.actions(context)) for context in contexts
                )
            uniform = False
        else:
            if space is not None:
                shared: tuple[int, ...] = tuple(range(n_actions))
            elif n > 0:
                shared = tuple(sorted(set(actions.tolist())))
            else:
                shared = (0,)
            eligible_lists = (shared,) * n
            uniform = True

        self._init_columns(contexts, eligible_lists, n_actions, uniform)
        self.actions = actions
        self.rewards = rewards
        self.propensities = propensities
        self.timestamps = timestamps
        self.action_space = space
        self.reward_range = reward_range
        self._observed_actions: Optional[np.ndarray] = None
        self._identity_error: Optional[float] = None

    @classmethod
    def from_dataset(cls, dataset: Dataset) -> "DatasetColumns":
        """Build (without caching) the columnar view of ``dataset``."""
        return cls(dataset)

    @classmethod
    def from_chunk(
        cls,
        chunk: "ColumnChunk",
        action_space: Optional[ActionSpace] = None,
        reward_range: Optional[RewardRange] = None,
    ) -> "DatasetColumns":
        """The columnar view of a parsed log chunk, contexts kept packed.

        Equal, column for column, to the view of a
        :class:`~repro.core.types.Dataset` holding the same rows with
        the same action space and reward range: eligibility is
        reconstructed by the same rules, and the packed contexts
        featurize to the same matrices (see :class:`PackedContexts`).
        """
        columns = cls.__new__(cls)
        columns._init_logged(
            chunk.contexts, chunk.actions, chunk.rewards, chunk.propensities,
            chunk.timestamps, action_space, reward_range,
        )
        return columns

    @classmethod
    def from_arrays(
        cls,
        contexts: Sequence[Context],
        actions: np.ndarray,
        rewards: np.ndarray,
        propensities: np.ndarray,
        *,
        eligible: Optional[EligibleSpec] = None,
        n_actions: Optional[int] = None,
        action_space: Optional[ActionSpace] = None,
        reward_range: Optional[RewardRange] = None,
        timestamps: Optional[np.ndarray] = None,
    ) -> "DatasetColumns":
        """Assemble a columnar log directly from arrays — no Dataset.

        This is the batch harvester's output path: sampled actions and
        propensities land in the columnar layout the vectorized
        estimators consume, skipping per-row ``Interaction``
        construction entirely.  ``eligible`` follows the
        :data:`EligibleSpec` convention; when omitted it is derived
        from ``action_space`` (per-row if restricted) or from the
        sorted set of observed actions, exactly as the Dataset path
        reconstructs it.  Use :meth:`to_dataset` to materialize
        per-row objects when the scalar paths (or JSONL export) need
        them.
        """
        n = len(contexts)
        actions = np.asarray(actions, dtype=np.int64)
        rewards = np.asarray(rewards, dtype=np.float64)
        propensities = np.asarray(propensities, dtype=np.float64)
        for name, array in (
            ("actions", actions),
            ("rewards", rewards),
            ("propensities", propensities),
        ):
            if array.shape != (n,):
                raise ValueError(
                    f"{name} must have shape ({n},), got {array.shape}"
                )
        if n > 0 and (
            (propensities <= 0.0).any() or (propensities > 1.0).any()
        ):
            raise ValueError("propensities must be in (0, 1]")
        if n > 0 and not np.isfinite(rewards).all():
            raise ValueError("rewards must be finite")

        if eligible is None:
            if action_space is not None and action_space.restricted:
                eligible = [
                    tuple(action_space.actions(context))
                    for context in contexts
                ]
            elif action_space is not None:
                eligible = tuple(range(action_space.n_actions))
            else:
                eligible = tuple(
                    sorted(set(actions.tolist()))
                ) if n > 0 else (0,)
        if n_actions is None and action_space is not None:
            n_actions = action_space.n_actions

        columns = cls.__new__(cls)
        ContextColumns.__init__(columns, contexts, eligible, n_actions)
        if n > 0:
            chosen_eligible = columns.eligible_mask[
                np.arange(n), np.clip(actions, 0, columns.n_actions - 1)
            ]
            if (actions >= columns.n_actions).any() or not chosen_eligible.all():
                bad = int(np.argmin(chosen_eligible))
                raise ValueError(
                    f"row {bad}: action {int(actions[bad])} is not eligible"
                )
        columns.actions = actions
        columns.rewards = rewards
        columns.propensities = propensities
        columns.timestamps = (
            np.asarray(timestamps, dtype=np.float64)
            if timestamps is not None
            else np.arange(n, dtype=np.float64)
        )
        if columns.timestamps.shape != (n,):
            raise ValueError(f"timestamps must have shape ({n},)")
        columns.action_space = action_space
        columns.reward_range = reward_range
        columns._observed_actions = None
        columns._identity_error = None
        return columns

    def to_dataset(self) -> Dataset:
        """Materialize per-row :class:`Interaction` objects.

        The inverse bridge of :meth:`from_arrays`: batch-harvested
        columns become an ordinary :class:`~repro.core.types.Dataset`
        for the scalar estimators, JSONL export, or any per-row
        consumer.  The columnar view stays authoritative — this copies.
        """
        interactions = [
            Interaction(
                context=self.contexts[t],
                action=int(self.actions[t]),
                reward=float(self.rewards[t]),
                propensity=float(self.propensities[t]),
                timestamp=float(self.timestamps[t]),
            )
            for t in range(self.n)
        ]
        return Dataset(
            interactions,
            action_space=self.action_space,
            reward_range=self.reward_range,
        )

    # -- policy-independent diagnostic inputs --------------------------------

    def observed_actions(self) -> np.ndarray:
        """Sorted unique logged action ids, computed once per dataset.

        The logged *support*: any candidate-policy mass outside this set
        is invisible to importance-weighted estimators (see
        :mod:`repro.core.diagnostics`).
        """
        if self._observed_actions is None:
            self._observed_actions = np.unique(self.actions)
        return self._observed_actions

    def propensity_identity_error(self) -> float:
        """Cached per-action A1 identity deviation of the *log* itself.

        Depends only on the logged (action, propensity) pairs, so a
        class search over hundreds of candidates pays for it once.
        """
        if self._identity_error is None:
            from repro.core.diagnostics import propensity_identity_error

            self._identity_error = propensity_identity_error(
                self.actions, self.propensities
            )
        return self._identity_error

    # -- logged-action lookups ----------------------------------------------

    def probability_of_logged(self, matrix: np.ndarray) -> np.ndarray:
        """Extract ``π(a_t | x_t)`` from a batch probability matrix."""
        return matrix[self._row_index, self.actions]

    def logged_probabilities(self, policy: "Policy") -> np.ndarray:
        """``π(a_t | x_t)`` for every row, via the policy's batch API."""
        return self.probability_of_logged(policy.probabilities_batch(self))

    def ips_weights(self, policy: "Policy") -> np.ndarray:
        """Cached importance weights ``π(a_t|x_t)/p_t`` for ``policy``.

        Computed once per (policy, log) and shared by everything that
        needs the weight vector — IPS/SNIPS point estimates, their
        bootstrap intervals, diagnostics — so a bootstrap's thousands
        of replicates (and repeated intervals for the same candidate)
        pay for the probability pass exactly once.  Keyed by policy
        identity; a small cap keeps class searches over many candidates
        from pinning every weight vector at once.
        """
        key = id(policy)
        entry = self._ips_weight_cache.get(key)
        if entry is None or entry[0] is not policy:
            if len(self._ips_weight_cache) >= 16:
                self._ips_weight_cache.clear()
            weights = self.logged_probabilities(policy) / self.propensities
            self._ips_weight_cache[key] = (policy, weights)
            return weights
        return entry[1]

    # -- shared-memory bridge ------------------------------------------------

    def shared_block(self):
        """This view packed into a shared segment, built once and reused.

        Returns a :class:`repro.core.shm.SharedArrayBlock` whose
        descriptor workers attach zero-copy; raises
        :class:`repro.core.shm.SharedMemoryUnsupported` when the view
        cannot be packed (callers fall back to pickled payloads).  The
        block is owned by this process and lives until
        :meth:`release_shared_block` (or process exit) — the point is
        that every parallel fold and bootstrap against this log reuses
        one segment.
        """
        if self._shared_block is None or self._shared_block.released:
            from repro.core import shm

            self._shared_block = shm.pack_columns(self)
        return self._shared_block

    def release_shared_block(self) -> None:
        """Unlink this view's shared segment, if one was created."""
        block, self._shared_block = self._shared_block, None
        if block is not None:
            block.release()


class PackedContexts(Sequence):
    """Contexts packed as dense matrices over a key vocabulary.

    ``values[t, c]`` holds ``float(context[keys[c]])`` (``0.0`` when the
    key is absent) and ``order[t, c]`` the key's 1-based position in
    row ``t``'s insertion order (``0`` = absent).  The sequence behaves
    like the tuple of context dicts a :class:`DatasetColumns` normally
    holds — ``packed[t]`` rebuilds row ``t``'s dict, keys in their
    original order, values as floats — but the batch featurizations
    (:meth:`feature_matrix`, :meth:`hashed_matrix`) read the matrices
    directly and never build a dict.  Slicing returns another view.
    """

    __slots__ = ("values", "order", "keys")

    def __init__(self, values: np.ndarray, order: np.ndarray, keys) -> None:
        self.values = values
        self.order = order
        self.keys = tuple(keys)

    @classmethod
    def pack(
        cls, contexts: Sequence[Context], keys: Optional[Sequence[str]] = None
    ) -> "PackedContexts":
        """Pack context dicts over ``keys`` (default: their sorted keys).

        Raises :class:`TypeError` for a value a float64 cell would not
        give back as itself (bools and non-numbers), and
        :class:`KeyError` for a key outside ``keys``.
        """
        if keys is None:
            keys = sorted({key for context in contexts for key in context})
        key_to_col = {key: col for col, key in enumerate(keys)}
        values = np.zeros((len(contexts), len(keys)))
        order = np.zeros((len(contexts), len(keys)), dtype=np.int32)
        for row, context in enumerate(contexts):
            for position, (key, value) in enumerate(context.items(), start=1):
                if isinstance(value, bool) or not isinstance(
                    value, (int, float, np.integer, np.floating)
                ):
                    raise TypeError(
                        f"context value {key}={value!r} is not numeric"
                    )
                column = key_to_col[key]
                values[row, column] = float(value)
                order[row, column] = position
        return cls(values, order, keys)

    def __len__(self) -> int:
        """Number of packed context rows."""
        return self.values.shape[0]

    def __getitem__(self, index):
        """One rebuilt context dict, or a lazy view for slices."""
        if isinstance(index, slice):
            return PackedContexts(
                self.values[index], self.order[index], self.keys
            )
        order_row = self.order[index]
        present = np.nonzero(order_row)[0]
        present = present[np.argsort(order_row[present], kind="stable")]
        values_row = self.values[index]
        return {self.keys[col]: float(values_row[col]) for col in present}

    def feature_matrix(self, feature_names: Sequence[str]) -> np.ndarray:
        """``(N, F+1)`` named features plus a bias column.

        Each cell equals ``float(context.get(name, 0.0))`` on the
        original dict: the packed value where the key is present,
        exactly ``0.0`` where it is not.
        """
        index = {key: col for col, key in enumerate(self.keys)}
        out = np.zeros((len(self), len(feature_names) + 1))
        for col, name in enumerate(feature_names):
            source = index.get(name)
            if source is not None:
                out[:, col] = np.where(
                    self.order[:, source] > 0, self.values[:, source], 0.0
                )
        out[:, -1] = 1.0
        return out

    def hashed_matrix(self, featurizer: Featurizer) -> np.ndarray:
        """``featurizer.matrix`` of the rebuilt dicts, bit for bit.

        :meth:`~repro.core.features.Featurizer.vector` adds
        ``sign * value`` into each key's slot in the row's insertion
        order, starting from ``0.0``.  Here every slot does the same
        additions column-wise.  Keys whose names collide on one slot
        are added in each row's own insertion order (absent keys
        contribute ``±0.0`` first, which leaves the ``0.0`` start
        unchanged), so the float sums round exactly as the per-row
        loop's do.
        """
        out = np.zeros((len(self), featurizer.n_dims))
        slots: dict[int, list[tuple[int, float]]] = {}
        for col, key in enumerate(self.keys):
            slot, sign = featurizer._slot(key)
            slots.setdefault(slot, []).append((col, sign))
        for slot, members in slots.items():
            cols = [col for col, _ in members]
            terms = self.values[:, cols] * np.array([s for _, s in members])
            if len(cols) > 1:
                by_position = np.argsort(self.order[:, cols], axis=1, kind="stable")
                terms = np.take_along_axis(terms, by_position, axis=1)
            for term in terms.T:
                out[:, slot] += term
        if featurizer.bias:
            out[:, -1] = 1.0
        return out


@dataclass(frozen=True)
class ColumnChunk:
    """One chunk of a parsed log: outcome columns plus packed contexts.

    What :class:`repro.core.validation.ColumnarReader` yields, what a
    :class:`ColumnSpill` stores, and what
    :meth:`DatasetColumns.from_chunk` views.
    """

    actions: np.ndarray
    rewards: np.ndarray
    propensities: np.ndarray
    timestamps: np.ndarray
    contexts: PackedContexts

    @property
    def n(self) -> int:
        """Rows in the chunk."""
        return len(self.actions)


#: Bytes per row of a spilled chunk's fixed columns: int64 actions plus
#: float64 rewards, propensities and timestamps.
_SPILL_ROW_BYTES = 32


@dataclass(frozen=True)
class SpilledChunk:
    """Where one chunk lives inside a spill file (picklable, tiny)."""

    offset: int
    n: int
    keys: tuple

    @property
    def nbytes(self) -> int:
        """The chunk's length in the file: fixed columns, values, order."""
        return self.n * (_SPILL_ROW_BYTES + 12 * len(self.keys))


def load_spilled_chunk(path: str, where: SpilledChunk) -> ColumnChunk:
    """Map one spilled chunk back, read-only and without copying.

    Only the chunk's own byte range is mapped, so a fold holds O(chunk)
    address space however large the spill is.  The mapping closes when
    the last array viewing it is gone.
    """
    n, k = where.n, len(where.keys)
    with open(path, "rb") as handle:
        mapped = mmap.mmap(
            handle.fileno(), where.nbytes, offset=where.offset,
            access=mmap.ACCESS_READ,
        )
    offset = 0

    def take(dtype, count: int) -> np.ndarray:
        nonlocal offset
        array = np.frombuffer(mapped, dtype=dtype, count=count, offset=offset)
        offset += array.nbytes
        return array

    actions = take(np.int64, n)
    rewards = take(np.float64, n)
    propensities = take(np.float64, n)
    timestamps = take(np.float64, n)
    values = take(np.float64, n * k).reshape(n, k)
    order = take(np.int32, n * k).reshape(n, k)
    return ColumnChunk(
        actions, rewards, propensities, timestamps,
        PackedContexts(values, order, where.keys),
    )


class SpillError(OSError):
    """The column spill could not be written (full or unwritable disk).

    An :class:`OSError`, but about the spill, not the log being read.
    """


class ColumnSpill:
    """Column chunks spooled to a temporary file and mapped back.

    The chunked JSONL engine appends every accepted chunk during its
    read-and-validate pass, then folds from here: the log's JSON is
    parsed once.  Each chunk starts on a page boundary so it can be
    mapped on its own (:func:`load_spilled_chunk`, also usable by
    worker processes through :attr:`path`).  The file is deleted when
    the spill is closed — ``with ColumnSpill() as spill:`` closes it on
    errors too.

    The spill grows with the log — about ``rows · (32 + 12 · keys)``
    bytes (:attr:`nbytes`) — so it is written in ``directory`` (the
    engine passes the log's own), which keeps it on disk even where
    the temp directory is a RAM-backed tmpfs.  A directory that
    refuses the file falls back to the temp directory (``TMPDIR``).
    Failures to create or write it raise :class:`SpillError`.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        try:
            self._file = self._create(directory)
        except SpillError:
            if directory is None:
                raise
            self._file = self._create(None)
        self.path = self._file.name
        self.chunks: list[SpilledChunk] = []
        self._end = 0

    @staticmethod
    def _create(directory: Optional[str]):
        try:
            return tempfile.NamedTemporaryFile(
                prefix="repro-spill-", suffix=".cols", dir=directory
            )
        except OSError as error:
            raise SpillError(f"cannot create the column spill: {error}") from error

    @property
    def nbytes(self) -> int:
        """The spill file's length so far."""
        return self._end

    def append(self, chunk: ColumnChunk) -> None:
        """Write one chunk and record its location in :attr:`chunks`."""
        granularity = mmap.ALLOCATIONGRANULARITY
        offset = -(-self._end // granularity) * granularity
        try:
            self._file.seek(offset)
            for array, dtype in (
                (chunk.actions, np.int64),
                (chunk.rewards, np.float64),
                (chunk.propensities, np.float64),
                (chunk.timestamps, np.float64),
                (chunk.contexts.values, np.float64),
                (chunk.contexts.order, np.int32),
            ):
                self._file.write(
                    np.ascontiguousarray(array, dtype=dtype).tobytes()
                )
            self._file.flush()
        except OSError as error:
            raise SpillError(
                f"cannot write the column spill {self.path}: {error}"
            ) from error
        where = SpilledChunk(offset, chunk.n, chunk.contexts.keys)
        self._end = offset + where.nbytes
        self.chunks.append(where)

    def load(self, where: SpilledChunk) -> ColumnChunk:
        """Map one of this spill's chunks back."""
        return load_spilled_chunk(self.path, where)

    def close(self) -> None:
        """Delete the spill file (idempotent)."""
        self._file.close()

    def __enter__(self) -> "ColumnSpill":
        """Context-manager entry: the spill itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: delete the spill file."""
        self.close()


class FixedEligibility:
    """Picklable eligibility callback returning one fixed action tuple.

    Used to pin a spaceless log's globally observed actions onto chunk
    datasets (a lambda would not survive the trip to worker processes).
    """

    def __init__(self, actions: Sequence[int]) -> None:
        self.actions = tuple(int(a) for a in actions)

    def __call__(self, context: Context) -> tuple[int, ...]:
        """Return the pinned eligible-action tuple (context ignored)."""
        return self.actions


def pinned_action_space(
    dataset: Optional[Dataset] = None,
    *,
    space: Optional[ActionSpace] = None,
    observed: Optional[Sequence[int]] = None,
) -> Optional[ActionSpace]:
    """An action space that makes chunk views match the whole-log view.

    A chunk of a dataset *with* an action space already sees the right
    ``n_actions`` and eligibility — the space passes through unchanged.
    A chunk of a *spaceless* log would reconstruct both from the chunk's
    own rows (wrong: a chunk may miss actions the log contains), so we
    pin the global reconstruction — ``max(observed)+1`` actions,
    eligibility fixed to the sorted globally observed set — exactly what
    :class:`DatasetColumns` derives for the whole spaceless log.
    """
    if dataset is not None:
        if dataset.action_space is not None:
            return dataset.action_space
        observed = sorted({i.action for i in dataset})
    elif space is not None:
        return space
    else:
        observed = sorted(set(observed or ()))
    if not observed:
        return None
    return ActionSpace(
        int(max(observed)) + 1, eligibility=FixedEligibility(observed)
    )


def iter_chunk_columns(
    dataset: Dataset, chunk_size: int
) -> Iterator[DatasetColumns]:
    """Yield columnar views of consecutive ``chunk_size`` slices.

    Each chunk carries the pinned action space, so per-chunk eligible
    sets, masks, and ``n_actions`` agree with the whole-log view — the
    invariant the chunked backend's equivalence guarantee rests on.
    Feature matrices are memoized per chunk and released with it.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    space = pinned_action_space(dataset)
    interactions = list(dataset)
    for start in range(0, len(interactions), chunk_size):
        chunk = Dataset(
            interactions[start:start + chunk_size],
            action_space=space,
            reward_range=dataset.reward_range,
        )
        yield chunk.columns()


class ColumnsSlice(DatasetColumns):
    """Zero-copy view of rows ``[start, stop)`` of a parent columnar view.

    The chunked backend's unit of work: every column is a NumPy slice
    (a view, not a copy) of the parent's arrays, so folding a chunk
    costs no per-row reconstruction — the parent's one featurization
    and mask build are shared by every chunk.  Feature matrices are
    reused from the parent when it has them memoized and computed
    slice-locally (O(chunk)) otherwise, so a pure chunked run never
    materializes a whole-log feature matrix it didn't already have.
    """

    def __init__(self, parent: DatasetColumns, start: int, stop: int) -> None:
        if not 0 <= start <= stop <= parent.n:
            raise ValueError(
                f"slice [{start}, {stop}) outside [0, {parent.n})"
            )
        n = stop - start
        self._parent = parent
        self._start = start
        self._stop = stop
        self.n = n
        self.contexts = parent.contexts[start:stop]
        self.n_actions = parent.n_actions
        self.eligible_mask = parent.eligible_mask[start:stop]
        self.eligible_counts = parent.eligible_counts[start:stop]
        self.uniform_eligibility = parent.uniform_eligibility
        self.canonical_order = parent.canonical_order
        self._row_index = np.arange(n)
        self._feature_matrices = {}
        self._hashed_matrices = {}
        self._shared_block = None
        self._ips_weight_cache = {}
        self.actions = parent.actions[start:stop]
        self.rewards = parent.rewards[start:stop]
        self.propensities = parent.propensities[start:stop]
        self.timestamps = parent.timestamps[start:stop]
        self.action_space = parent.action_space
        self.reward_range = parent.reward_range
        self._observed_actions = None
        self._identity_error = None

    def __getattr__(self, name: str):
        """Lazily slice ``eligible_lists`` out of the parent on demand.

        Only the per-row loop fallbacks need the tuples; batch paths
        use the mask, so most chunks never build them.
        """
        if name == "eligible_lists":
            lists = tuple(self._parent.eligible_lists[self._start:self._stop])
            self.eligible_lists = lists
            return lists
        raise AttributeError(name)

    def feature_matrix(self, feature_names) -> np.ndarray:
        """Named-feature matrix for this slice, reusing parent memos.

        A parent-cached (or cheaply gatherable, for shared-memory
        parents) whole-log matrix is sliced as a view; otherwise the
        matrix is computed over just this slice's rows — identical
        values either way, since both paths read the same contexts.
        """
        key = tuple(feature_names)
        cached = self._feature_matrices.get(key)
        if cached is not None:
            return cached
        parent_matrix = self._parent._feature_matrices.get(key)
        if parent_matrix is None and isinstance(
            self._parent.contexts, PackedContexts
        ):
            # Packed parents gather the whole matrix vectorized;
            # memoizing it there lets every later slice reuse it.
            parent_matrix = self._parent.feature_matrix(key)
        if parent_matrix is not None:
            cached = parent_matrix[self._start:self._stop]
        else:
            cached = super().feature_matrix(key)
        self._feature_matrices[key] = cached
        return cached

    def hashed_matrix(self, featurizer: "Featurizer") -> np.ndarray:
        """Hashed context matrix for this slice, reusing parent memos."""
        entry = self._parent._hashed_matrices.get(id(featurizer))
        if entry is not None and entry[0] is featurizer:
            return entry[1][self._start:self._stop]
        return super().hashed_matrix(featurizer)


def iter_column_slices(
    columns: DatasetColumns, chunk_size: int
) -> Iterator[DatasetColumns]:
    """Yield consecutive ``chunk_size`` row slices of a columnar view.

    The fast successor to :func:`iter_chunk_columns`: instead of
    rebuilding a per-chunk ``Dataset`` + ``DatasetColumns`` (four
    ``fromiter`` passes and a mask build per chunk), each chunk is a
    :class:`ColumnsSlice` — pure NumPy views over the already-built
    whole-log columns, which the in-memory chunked path materializes
    anyway for its reduction context.  Eligibility, ``n_actions``, and
    feature values are inherited from the whole-log view, so the
    pinned-space equivalence invariant holds by construction.  A view
    no larger than one chunk is yielded as-is.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if columns.n <= chunk_size:
        yield columns
        return
    for start in range(0, columns.n, chunk_size):
        yield ColumnsSlice(columns, start, min(start + chunk_size, columns.n))


def loop_probabilities(policy: "Policy", columns: ContextColumns) -> np.ndarray:
    """Reference ``(N, K)`` probability matrix via per-row dispatch.

    The correct-for-anything fallback behind
    :meth:`~repro.core.policies.Policy.probabilities_batch`: calls
    ``policy.distribution`` once per row and scatters the result into
    the batch layout.  Arbitrary user policies get this for free; the
    built-ins override it with real array code.
    """
    out = np.zeros((columns.n, columns.n_actions))
    for row in range(columns.n):
        eligible = list(columns.eligible_lists[row])
        probs = policy.distribution(columns.contexts[row], eligible)
        out[row, eligible] = probs
    return out
