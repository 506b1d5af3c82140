"""``choice_index`` is ``Generator.choice(n, p=p)``, draw for draw.

The exact categorical draw replays numpy's single-draw algorithm on
Python floats.  For any weights — valid, zero-padded, off-normalized,
negative, NaN or infinite — and any of the input types the package
passes (lists, tuples, float64 and float32 arrays), it must return the
same index or raise ``ValueError`` in the same cases, and leave the bit
generator in the same state.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simsys.random_source import RandomSource, choice_index

REPRESENTATIONS = ("list", "tuple", "float64", "float32")


def represent(weights, kind):
    if kind == "list":
        return list(weights)
    if kind == "tuple":
        return tuple(weights)
    return np.asarray(weights, dtype=np.float64).astype(kind)


def outcome(draw, generator):
    """(draws or the error type, final bit-generator state)."""
    try:
        result = [int(draw(generator)) for _ in range(3)]
    except ValueError:
        result = ValueError
    return result, generator.bit_generator.state


def assert_same(seed, n, p):
    want = outcome(lambda g: g.choice(n, p=p), np.random.default_rng(seed))
    got = outcome(lambda g: choice_index(g, n, p), np.random.default_rng(seed))
    assert got == want


def normalized(raw):
    total = math.fsum(raw)
    return [w / total for w in raw]


weights = st.lists(
    st.one_of(
        st.just(0.0), st.floats(min_value=1e-12, max_value=1e6)
    ),
    min_size=1,
    max_size=1000,
).filter(lambda ws: any(w > 0.0 for w in ws))
seeds = st.integers(min_value=0, max_value=2**32 - 1)
kinds = st.sampled_from(REPRESENTATIONS)


@given(weights, kinds, seeds)
@settings(max_examples=300, deadline=None)
def test_valid_weights_draw_identically(raw, kind, seed):
    p = represent(normalized(raw), kind)
    assert_same(seed, len(raw), p)


@given(
    weights,
    kinds,
    seeds,
    st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=0.5, max_value=5.0),
    st.integers(min_value=3, max_value=10),
)
@settings(max_examples=300, deadline=None)
def test_sum_tolerance_boundary_agrees(raw, kind, seed, sign, mantissa, exponent):
    # Off-normalize around both acceptance edges — √eps of float64
    # (≈1.5e-8) and of float32 (≈3.5e-4): both accept or both reject.
    scale = 1.0 + sign * mantissa * 10.0**-exponent
    p = represent([w * scale for w in normalized(raw)], kind)
    assert_same(seed, len(raw), p)


bad_values = st.sampled_from([-1e-9, -0.5, math.nan, math.inf, -math.inf])


@given(weights, kinds, seeds, bad_values, st.integers(min_value=0))
@settings(max_examples=300, deadline=None)
def test_invalid_weights_rejected_identically(raw, kind, seed, bad, where):
    p = normalized(raw)
    p[where % len(p)] = bad
    assert_same(seed, len(p), represent(p, kind))


@given(weights, kinds, seeds, st.integers(min_value=-3, max_value=3))
@settings(max_examples=100, deadline=None)
def test_size_mismatch_rejected_identically(raw, kind, seed, delta):
    n = len(raw) + delta
    if n <= 0:
        return
    assert_same(seed, n, represent(normalized(raw), kind))


@given(seeds, st.integers(min_value=1, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_uniform_draw_without_p(seed, n):
    assert_same(seed, n, None)


def test_rejects_empty_population():
    with pytest.raises(ValueError):
        choice_index(np.random.default_rng(0), 0, [])
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(0, p=[])


def test_rejects_two_dimensional_weights():
    p = np.full((2, 2), 0.25)
    assert_same(0, 4, p)


def test_random_source_choice_advances_like_numpy():
    items = ("network", "disk", "kernel", "firmware")
    p = [0.4, 0.3, 0.2, 0.1]
    source = RandomSource(11)
    oracle = np.random.default_rng(source.seed)
    for _ in range(200):
        assert source.choice(items, p=p) == items[int(oracle.choice(4, p=p))]
    assert source.generator.bit_generator.state == oracle.bit_generator.state
