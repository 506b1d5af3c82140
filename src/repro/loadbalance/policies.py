"""Load-balancing policies, as `repro.core` Policy objects.

The context presented to every policy is the decision-time snapshot the
proxy logs: per-server open-connection counts (``conns_<i>``) and the
request's type features (``req_<kind>``, ``req_weight``).  Expressing
the classic heuristics in this vocabulary is what lets one exploration
log evaluate all of them offline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.core.columns import as_decision_batch, loop_probabilities
from repro.core.policies import (
    ConstantPolicy,
    Policy,
    UniformRandomPolicy,
    _point_mass,
    sample_from_probabilities,
)
from repro.core.types import Context
from repro.simsys.random_source import choice_index

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.columns import ContextColumns, DatasetColumns, EligibleSpec


def connection_count(context: Context, server: int) -> float:
    """Read a server's open-connection count out of a logged context."""
    return float(context.get(f"conns_{server}", 0.0))


def _connection_matrix(columns: "DatasetColumns") -> np.ndarray:
    """``(N, K)`` open-connection counts read from the logged contexts.

    Reuses the columnar view's memoized named-feature matrix (the
    trailing bias column is dropped), so every load-aware policy in a
    candidate set shares one extraction pass.
    """
    names = tuple(f"conns_{server}" for server in range(columns.n_actions))
    return columns.feature_matrix(names)[:, :-1]


class _LeastLoaded(Policy):
    """Route to the server with the fewest open connections.

    Nginx's ``least_conn``.  Ties break toward the lowest server id
    (deterministically), as Nginx's implementation effectively does for
    equal-weight peers.
    """

    name = "least-loaded"

    def distribution(self, context: Context, actions: Sequence[int]) -> np.ndarray:
        chosen = min(actions, key=lambda a: (connection_count(context, a), a))
        return _point_mass(actions, chosen)

    def probabilities_batch(self, columns: "DatasetColumns") -> np.ndarray:
        if not columns.canonical_order:
            return loop_probabilities(self, columns)
        best = columns.masked_argbest(_connection_matrix(columns), maximize=False)
        return columns.point_mass_matrix(best)


def least_loaded_policy() -> Policy:
    """Route to the server with the fewest open connections."""
    return _LeastLoaded()


def send_to_policy(server: int) -> Policy:
    """The degenerate policy of Table 2: always route to one server."""
    return ConstantPolicy(server, name=f"send-to-{server}")


def random_policy() -> Policy:
    """Uniform random routing — Table 2's logging policy."""
    return UniformRandomPolicy()


def weighted_random_policy(weights: Sequence[float]) -> Policy:
    """Random routing with fixed server weights (Nginx ``weight=``)."""

    weights_arr = np.asarray(weights, dtype=float)
    if (weights_arr < 0).any() or weights_arr.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")

    class _Weighted(Policy):
        name = "weighted-random[" + ",".join(f"{w:g}" for w in weights) + "]"

        def distribution(self, context: Context, actions: Sequence[int]) -> np.ndarray:
            local = np.array([weights_arr[a] for a in actions], dtype=float)
            if local.sum() <= 0:
                return np.full(len(actions), 1.0 / len(actions))
            return local / local.sum()

        def probabilities_batch(self, columns: "DatasetColumns") -> np.ndarray:
            if columns.n_actions > len(weights_arr):
                return loop_probabilities(self, columns)
            local = np.where(
                columns.eligible_mask, weights_arr[: columns.n_actions], 0.0
            )
            sums = local.sum(axis=1, keepdims=True)
            return np.where(sums > 0, local / np.where(sums > 0, sums, 1.0),
                            columns.uniform_matrix())

    return _Weighted()


def round_robin_policy(n_servers: int) -> Policy:
    """Cycle through servers.

    Stateful and deterministic per-request, but its *marginal* action
    distribution is uniform and independent of the context, so — per
    §2's "exploration scavenging" observation — its logs are usable
    with propensity ``1/n``.
    """
    state = {"next": 0}

    class _RoundRobin(Policy):
        name = f"round-robin[{n_servers}]"

        def distribution(self, context: Context, actions: Sequence[int]) -> np.ndarray:
            # Marginal distribution: uniform (used for propensities).
            return np.full(len(actions), 1.0 / len(actions))

        def probabilities_batch(self, columns: "DatasetColumns") -> np.ndarray:
            return columns.uniform_matrix()

        def act(
            self, context: Context, actions: Sequence[int], rng: np.random.Generator
        ) -> tuple[int, float]:
            action = actions[state["next"] % len(actions)]
            state["next"] += 1
            return action, 1.0 / len(actions)

        def act_batch(
            self,
            contexts: "Sequence[Context] | ContextColumns",
            eligible: "Optional[EligibleSpec]",
            rng: np.random.Generator,
        ) -> tuple[np.ndarray, np.ndarray]:
            """Continue the cycle across the batch — consumes no randomness.

            The rotation counter persists across calls, so splitting a
            harvest into batches of any size produces the identical
            action sequence (the determinism contract for stateful,
            non-randomizing policies).
            """
            batch = as_decision_batch(contexts, eligible)
            if batch.uniform_eligibility and batch.n > 0:
                lookup = np.asarray(batch.eligible_lists[0], dtype=np.int64)
                offsets = (state["next"] + np.arange(batch.n)) % len(lookup)
                actions_out = lookup[offsets]
                state["next"] += batch.n
            else:
                actions_out = np.empty(batch.n, dtype=np.int64)
                for row in range(batch.n):
                    row_eligible = batch.eligible_lists[row]
                    actions_out[row] = row_eligible[
                        state["next"] % len(row_eligible)
                    ]
                    state["next"] += 1
            return actions_out, 1.0 / batch.eligible_counts

    return _RoundRobin()


def power_of_two_policy(randomness_name: str = "p2c") -> Policy:
    """Power-of-two-choices: sample two servers, pick the less loaded.

    Genuinely randomized *and* load-aware.  Its propensity is exactly
    computable from the logged connection counts, making it an ideal
    harvesting source: for the less-loaded server ``i`` beaten only by
    ties, ``p_i = (1 + 2·|{j : c_j > c_i}| + |{j≠i : c_j = c_i}|−…)``
    — we compute it by enumeration over pairs, which is O(n²) but exact.
    """

    class _PowerOfTwo(Policy):
        name = "power-of-two"

        def distribution(self, context: Context, actions: Sequence[int]) -> np.ndarray:
            n = len(actions)
            if n == 1:
                return np.array([1.0])
            probs = np.zeros(n)
            # Enumerate ordered pairs (i, j), i != j, each w.p. 1/(n(n-1)).
            for first_index in range(n):
                for second_index in range(n):
                    if first_index == second_index:
                        continue
                    a, b = actions[first_index], actions[second_index]
                    ca, cb = connection_count(context, a), connection_count(context, b)
                    if ca < cb or (ca == cb and a < b):
                        probs[first_index] += 1.0
                    else:
                        probs[second_index] += 1.0
            return probs / probs.sum()

        def probabilities_batch(self, columns: "DatasetColumns") -> np.ndarray:
            k = columns.n_actions
            if not columns.uniform_eligibility or k == 1:
                return loop_probabilities(self, columns)
            counts = _connection_matrix(columns)
            ids = np.arange(k)
            # beats[t, i, j]: in the ordered draw (i, j), i wins.  Each
            # unordered pair is drawn in both orders, so a server's
            # probability is twice its win count over n(n-1) draws.
            beats = (counts[:, :, None] < counts[:, None, :]) | (
                (counts[:, :, None] == counts[:, None, :])
                & (ids[:, None] < ids[None, :])
            )
            wins = 2.0 * beats.sum(axis=2)
            return wins / wins.sum(axis=1, keepdims=True)

    return _PowerOfTwo()


def window_randomized_weights_policy(
    n_servers: int,
    window: int = 20,
    seed: int = 0,
    concentration: float = 0.5,
) -> Policy:
    """Randomize *traffic shares* per window instead of per request.

    §5's richer-exploration proposal: "instead of randomizing each
    request, a load balancer could randomize the share of traffic sent
    to each server during the next N requests.  In Nginx, this is
    easily implemented by randomizing the weights assigned to each
    server."  Every ``window`` requests, fresh weights are drawn from a
    Dirichlet(``concentration``); within the window requests follow
    those weights i.i.d.  Low concentration produces skewed windows —
    including near-"send everything to one server" episodes that
    per-request uniform randomization essentially never generates.

    The per-request propensity (the drawn weight of the chosen server)
    is still exact, so the logs remain harvestable.
    """
    if n_servers <= 1:
        raise ValueError("need at least two servers to balance")
    if window <= 0:
        raise ValueError("window must be positive")
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    state = {
        "rng": np.random.default_rng(seed),
        "weights": np.full(n_servers, 1.0 / n_servers),
        "remaining": 0,
    }

    class _WindowRandomized(Policy):
        name = f"window-weights[w={window}]"

        def distribution(self, context: Context, actions: Sequence[int]) -> np.ndarray:
            local = np.array([state["weights"][a] for a in actions])
            return local / local.sum()

        def act(
            self, context: Context, actions: Sequence[int], rng: np.random.Generator
        ) -> tuple[int, float]:
            if state["remaining"] <= 0:
                state["weights"] = state["rng"].dirichlet(
                    np.full(n_servers, concentration)
                )
                # Keep every propensity strictly positive.
                state["weights"] = np.maximum(state["weights"], 1e-3)
                state["weights"] /= state["weights"].sum()
                state["remaining"] = window
            state["remaining"] -= 1
            probs = self.distribution(context, actions)
            index = choice_index(rng, len(actions), probs)
            return actions[index], float(probs[index])

        def act_batch(
            self,
            contexts: "Sequence[Context] | ContextColumns",
            eligible: "Optional[EligibleSpec]",
            rng: np.random.Generator,
        ) -> tuple[np.ndarray, np.ndarray]:
            """Sample whole windows at once, carrying state across batches.

            Walks the batch in window-aligned segments — drawing fresh
            Dirichlet weights from the policy's *own* seeded generator
            exactly when the scalar path would — then samples every row
            with one uniform from the caller's generator.  Window
            boundaries and weight draws therefore land on the same rows
            for any batch split, preserving the determinism contract.
            """
            batch = as_decision_batch(contexts, eligible)
            matrix = np.zeros((batch.n, batch.n_actions))
            start = 0
            while start < batch.n:
                if state["remaining"] <= 0:
                    weights = state["rng"].dirichlet(
                        np.full(n_servers, concentration)
                    )
                    weights = np.maximum(weights, 1e-3)
                    state["weights"] = weights / weights.sum()
                    state["remaining"] = window
                stop = min(batch.n, start + state["remaining"])
                state["remaining"] -= stop - start
                segment = np.where(
                    batch.eligible_mask[start:stop],
                    state["weights"][: batch.n_actions],
                    0.0,
                )
                matrix[start:stop] = segment / segment.sum(
                    axis=1, keepdims=True
                )
                start = stop
            return sample_from_probabilities(matrix, rng)

    return _WindowRandomized()


def cb_policy_name() -> str:
    """Display name used for learned CB policies in Table 2 outputs."""
    return "CB policy"
