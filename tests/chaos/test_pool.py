"""Worker-pool chaos: killed workers must not change results.

A worker that dies mid-task poisons the whole ``ProcessPoolExecutor``
(``BrokenProcessPool``).  The contract of :mod:`repro.core.pool` is
that every parallel caller catches it, resets the pool and recomputes
serially with *bit-identical* results — a crash costs wall time, never
correctness.
"""

import os

import numpy as np
import pytest

from repro.core import pool as worker_pool
from repro.core.bootstrap import bootstrap_interval_from_terms
from repro.core.pool import BrokenProcessPool


def die(code):
    """A task that kills the worker running it."""
    os._exit(code)


def break_pool():
    """Kill a pool worker so the live executor is broken."""
    executor = worker_pool.get_pool(2)
    with pytest.raises(BrokenProcessPool):
        executor.submit(die, 3).result()


@pytest.fixture(autouse=True)
def fresh_pool():
    """Isolate each test from pools poisoned by earlier kills."""
    worker_pool.reset_pool()
    yield
    worker_pool.reset_pool()


class TestKilledWorker:
    def test_pool_is_usable_after_reset(self):
        break_pool()
        worker_pool.reset_pool()
        # The reset pool serves the next call as if nothing happened.
        assert worker_pool.get_pool(2).submit(abs, -4).result() == 4

    def test_bootstrap_shards_survive_broken_pool(self):
        # Poison the pool with a killed worker, then run a parallel
        # bootstrap: it must reset and still match serial.
        terms = np.random.default_rng(1).random(1200)
        serial = bootstrap_interval_from_terms(
            terms, seed=9, n_boot=512, workers=1
        )
        break_pool()
        with pytest.warns(RuntimeWarning, match="worker pool died"):
            parallel = bootstrap_interval_from_terms(
                terms, seed=9, n_boot=512, workers=2
            )
        assert (parallel.low, parallel.high) == (serial.low, serial.high)
        # The pool was reset, so the next parallel run succeeds.
        again = bootstrap_interval_from_terms(
            terms, seed=9, n_boot=512, workers=2
        )
        assert (again.low, again.high) == (serial.low, serial.high)


class TestPoolMechanics:
    def test_pool_grows_by_recreation(self):
        worker_pool.get_pool(1)
        assert worker_pool.pool_size() == 1
        worker_pool.get_pool(3)
        assert worker_pool.pool_size() == 3
        # Asking for fewer reuses the larger pool.
        worker_pool.get_pool(2)
        assert worker_pool.pool_size() == 3

    def test_reset_without_pool_is_safe(self):
        worker_pool.reset_pool()
        worker_pool.reset_pool()
        assert worker_pool.pool_size() == 0

    def test_job_keys_are_unique(self):
        key_a, _ = worker_pool.new_job(("a",))
        key_b, _ = worker_pool.new_job(("b",))
        assert key_a != key_b
        assert key_a.startswith(f"{os.getpid()}:")
