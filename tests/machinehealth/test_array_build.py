"""The array-speed full-feedback build equals its per-event oracles.

``generate_failures`` draws every machine pick with one size-n
``Generator.choice`` call, and ``build_full_feedback_dataset`` computes
the downtime matrix with numpy and encodes each distinct context once.
Each must reproduce the per-event construction it replaced exactly:
the same events, the same float bits, the same contexts.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machinehealth.dataset import (
    DEFAULT_ACTION,
    DOWNTIME_CAP,
    _capped_downtimes,
    build_full_feedback_dataset,
)
from repro.machinehealth.failures import (
    NEVER,
    WAIT_TIMES,
    DowntimeModel,
    FailureEvent,
    generate_failures,
)
from repro.machinehealth.fleet import FleetConfig, Machine, generate_fleet
from repro.simsys.random_source import RandomSource


def per_event_failures(machines, n_events, randomness, model=None):
    """The per-event reference: one scalar ``choice`` per machine pick."""
    model = model or DowntimeModel()
    pick_rng = randomness.child("which-machine")
    event_rng = randomness.child("events")
    weights = [1.0 + m.prior_failures + m.age_years / 2.0 for m in machines]
    total = sum(weights)
    probabilities = [w / total for w in weights]
    events = []
    for _ in range(n_events):
        index = int(pick_rng.generator.choice(len(machines), p=probabilities))
        events.append(model.sample_event(machines[index], event_rng))
    return events


def capped_profile(event):
    return [min(d, DOWNTIME_CAP) for d in event.downtime_profile()]


@pytest.mark.parametrize("seed,n_machines,n_events", [
    (0, 1000, 3000), (3, 7, 500), (11, 1, 50), (5, 1000, 1),
])
def test_generate_failures_matches_per_event_picks(seed, n_machines, n_events):
    fleet = generate_fleet(
        FleetConfig(n_machines=n_machines), RandomSource(seed).child("fleet")
    )
    got = generate_failures(fleet, n_events, RandomSource(seed).child("f"))
    want = per_event_failures(fleet, n_events, RandomSource(seed).child("f"))
    assert got == want
    assert all(a.machine is b.machine for a, b in zip(got, want))


def test_full_feedback_rows_match_per_event_construction():
    built = build_full_feedback_dataset(n_events=4000, n_machines=300, seed=7)
    encoder = built.encoder
    rows = list(built.full)
    assert len(rows) == len(built.events) == 4000
    seen = set()
    for index, (row, event) in enumerate(zip(rows, built.events)):
        profile = capped_profile(event)
        assert row.full_rewards == profile
        assert [math.copysign(1.0, r) for r in row.full_rewards] == [
            math.copysign(1.0, r) for r in profile
        ]
        assert row.reward == profile[DEFAULT_ACTION]
        assert row.context == encoder.encode(event.context_record())
        assert row.timestamp == float(index)
        assert row.action == DEFAULT_ACTION and row.propensity == 1.0
        assert id(row.context) not in seen  # each row owns its context
        seen.add(id(row.context))
    # The encoder was fitted on every incident's record, in order.
    reference = type(encoder)(
        categorical=encoder.categorical, numeric=encoder.numeric,
        standardize=True,
    ).fit([event.context_record() for event in built.events])
    assert reference._vocab == encoder._vocab
    assert reference._means == encoder._means
    assert reference._stds == encoder._stds


finite_minutes = st.floats(min_value=0.0, max_value=50.0)
recoveries = st.one_of(
    finite_minutes, st.just(NEVER), st.sampled_from([float(w) for w in WAIT_TIMES])
)


@given(
    st.lists(
        st.tuples(
            recoveries,
            st.floats(min_value=2.0, max_value=40.0),
            st.integers(min_value=1, max_value=60),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=200, deadline=None)
def test_downtime_matrix_is_bitwise_the_capped_profile(specs):
    events = [
        FailureEvent(
            Machine(i, "gen5-compute", "os-2016", 1.0, n_vms, 0),
            "disk",
            recovery_minutes=recovery,
            reboot_minutes=reboot,
        )
        for i, (recovery, reboot, n_vms) in enumerate(specs)
    ]
    matrix = _capped_downtimes(events)
    want = np.array([capped_profile(event) for event in events])
    assert matrix.shape == (len(events), len(WAIT_TIMES))
    assert matrix.tobytes() == want.tobytes()
