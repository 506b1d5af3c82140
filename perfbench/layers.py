"""Charge a command's wall time to layers from outside the program.

:func:`install` wraps public functions and methods of the program's
modules (looked up by name below) with timers that keep a call stack:
each call's *self* time — its wall time minus the time spent in nested
wrapped calls — is charged to its layer metric, so the layer times of
one command add up to at most its wall time, and the remainder is the
command's ``unattributed_s``.  A few entries are *observers* instead:
they record a call's inclusive time under their own name and stay
transparent to the stack (their self time stays with the caller).

The program itself is not modified; the wrappers live in the process
that :mod:`traced` starts, and are gone when it exits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
import types
from collections import defaultdict

perf_counter = time.perf_counter

# (module, attribute path, self-time metric or None, options).  Options:
#   incl:  also record inclusive seconds under this metric;
#   whole: nested wrapped calls are charged to this frame, not their own;
#   hook:  name of a LayerClock method called with (args, result, seconds);
#          coroutine functions are only observed, and pass their start time.
TARGETS = [
    # simulate
    ("repro.core.coordinator", "build_inputs", "simulate.s", {}),
    ("repro.machinehealth.dataset", "build_full_feedback_dataset", "simulate.s", {}),
    ("repro.loadbalance.harvest", "synthetic_decision_snapshots", "simulate.s", {}),
    # sample
    ("repro.core.harvest", "harvest_columns", "sample.s", {"hook": "on_harvest"}),
    ("repro.core.coordinator", "HarvestCoordinator.run", "sample.s", {}),
    ("repro.machinehealth.dataset", "simulate_exploration_columns", "sample.s", {}),
    ("repro.loadbalance.harvest", "batch_exploration_columns", "sample.s", {}),
    # ledger
    ("repro.audit.ledger", "context_digest", "ledger.digest_s", {}),
    ("repro.audit.ledger", "entry_hash", "ledger.seal_s", {}),
    ("repro.audit.ledger", "DecisionLedger.entries", "ledger.seal_s", {}),
    ("repro.audit.ledger", "DecisionLedger.head", "ledger.seal_s", {}),
    ("repro.audit.ledger", "DecisionLedger.extend_batch", "ledger.seal_s", {}),
    ("repro.audit.ledger", "DecisionLedger.extend_digests", "ledger.seal_s", {}),
    ("repro.audit.ledger", "DecisionLedger.adopt_entries", "ledger.seal_s", {}),
    ("repro.audit.shards", "chain_digests", "ledger.seal_s", {}),
    ("repro.audit.shards", "splice_payloads", "ledger.seal_s", {}),
    ("repro.audit.ledger", "DecisionLedger.annotate", "ledger.annotate_s", {}),
    ("repro.core.coordinator", "ShardedHarvest.annotate", "ledger.annotate_s", {}),
    ("repro.audit.ledger", "StreamingLedgerWriter.flush", "ledger.write_s", {}),
    ("repro.audit.ledger", "verify_jsonl", "ledger.verify_s",
     {"whole": True, "hook": "on_verify"}),
    ("repro.audit.shards", "verify_sharded_jsonl", "ledger.verify_s",
     {"whole": True, "hook": "on_verify"}),
    # encode
    ("repro.core.columns", "DatasetColumns.to_dataset", "types.to_dataset_s", {}),
    ("repro.core.types", "Dataset.save_jsonl", "types.save_jsonl_s",
     {"hook": "on_save"}),
    # parse + validate
    ("repro.core.types", "Dataset.load_jsonl", "parse.s", {}),
    ("repro.core.types", "Interaction.from_dict", "parse.s",
     {"hook": "on_from_dict"}),
    ("repro.core.validation", "json.loads", "parse.s", {"hook": "on_parse"}),
    ("repro.core.validation", "RecordValidator.check", "validate.s",
     {"hook": "on_check"}),
    ("repro.core.validation", "RecordValidator.observe", "validate.s", {}),
    ("repro.core.validation", "Quarantine.add", "validate.s",
     {"hook": "on_quarantine"}),
    # columnize
    ("repro.core.types", "Dataset.columns", "columns.s", {}),
    # estimators
    ("repro.core.estimators.direct", "RewardModelFolder.fold_rows", "model.fit_s", {}),
    ("repro.core.estimators.direct", "RewardModelFolder.finalize", "model.fit_s", {}),
    ("repro.core.estimators.direct", "fit_default_model", "model.fit_s", {}),
    ("repro.core.engine", "evaluate_jsonl_chunked", "engine.s", {}),
    ("repro.core.engine", "fold_dataset_chunked", "engine.s", {}),
    ("repro.core.bootstrap", "bootstrap_interval_from_terms", "bootstrap.s", {}),
    # serving
    ("repro.serve.service", "DecisionService.decide", "service.decide_s",
     {"hook": "on_decide"}),
    ("repro.serve.service", "DecisionService.flush", None,
     {"incl": "service.flush_s", "hook": "on_flush"}),
    ("repro.serve.batcher", "RequestBatcher.ask", None, {"hook": "on_ask"}),
    ("repro.serve.gate", "evaluate_candidate", None, {"incl": "gate.eval_s"}),
]

# Methods wrapped on every class of the program that defines them.
POLICY_METHODS = {
    "probabilities_batch": ("policy.probabilities_s", {"hook": "on_policy"}),
    "act_batch": ("sample.s", {}),
}
REDUCTION_METHODS = {
    "fold": ("fold.s", {"hook": "on_fold"}),
    "fold_scalar": ("fold.s", {}),
    "fold_chunk": ("fold.s", {}),
    "merge": ("fold.s", {}),
    "finalize": ("finalize.s", {}),
}
ESTIMATOR_METHODS = {"estimate": ("engine.s", {})}

# Imported before patching so every class and alias is in place.
MODULES = [
    "repro.__main__",
    "repro.audit.ledger",
    "repro.audit.shards",
    "repro.cache.eviction",
    "repro.core.bootstrap",
    "repro.core.columns",
    "repro.core.coordinator",
    "repro.core.engine",
    "repro.core.estimators.direct",
    "repro.core.estimators.reductions",
    "repro.core.harvest",
    "repro.core.learners.cb",
    "repro.core.policies",
    "repro.core.streaming",
    "repro.core.types",
    "repro.core.validation",
    "repro.loadbalance.harvest",
    "repro.loadbalance.policies",
    "repro.machinehealth.dataset",
    "repro.serve",
]


class LayerClock:
    """Per-layer self time, inclusive observers and row counters."""

    def __init__(self) -> None:
        self.self_s: dict = defaultdict(float)
        self.incl_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(float)
        self.maxima: dict = defaultdict(float)
        self.self_metrics: set = set()
        #: Frames: [metric, resumed_at, whole].
        self.stack: list = []
        self._last_columns = None
        self._last_decide_start = 0.0

    # -- the timer -------------------------------------------------------

    def wrap(self, fn, metric, incl=None, whole=False, hook=None):
        """``fn`` with its self time charged to ``metric``."""
        stack = self.stack
        self_s = self.self_s
        after = getattr(self, hook) if hook else None
        if metric is not None:
            self.self_metrics.add(metric)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def observed(*args, **kwargs):
                began = perf_counter()
                result = await fn(*args, **kwargs)
                if after is not None:
                    after(args, result, began)
                return result
            return observed

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if stack and stack[-1][2]:
                return fn(*args, **kwargs)
            began = perf_counter()
            if metric is not None:
                if stack:
                    top = stack[-1]
                    self_s[top[0]] += began - top[1]
                frame = [metric, began, whole]
                stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = perf_counter()
                if metric is not None:
                    self_s[metric] += ended - frame[1]
                    stack.pop()
                    if stack:
                        stack[-1][1] = ended
                if incl is not None:
                    self.incl_s[incl] += ended - began
            if after is not None:
                after(args, result, ended - began)
            return result

        return timed

    # -- counters fed from call arguments and results ----------------------

    def on_harvest(self, args, result, seconds) -> None:
        self.counts["sample.rows"] += result.n

    def on_verify(self, args, result, seconds) -> None:
        overall = getattr(result, "overall", result)
        self.counts["ledger.rows_verified"] += overall.n

    def on_save(self, args, result, seconds) -> None:
        dataset, path = args[0], args[1]
        self.counts["types.rows_written"] += len(dataset)
        self.counts["types.bytes_written"] += os.path.getsize(path)

    def on_parse(self, args, result, seconds) -> None:
        self.counts["parse.rows"] += 1
        self.counts["parse.bytes_read"] += len(args[0])

    def on_from_dict(self, args, result, seconds) -> None:
        self.counts["validate.rows_out"] += 1

    def on_check(self, args, result, seconds) -> None:
        self.counts["validate.rows_in"] += 1

    def on_quarantine(self, args, result, seconds) -> None:
        self.counts["validate.quarantined"] += 1

    def on_policy(self, args, result, seconds) -> None:
        self.counts["policy.calls"] += 1

    def on_fold(self, args, result, seconds) -> None:
        # One chunk is folded by every (policy x estimator) reduction;
        # count its rows once.  Holding the last chunk keeps its id
        # from being reused by the next one.
        if len(args) < 3:
            return
        columns = args[2]
        if columns is not self._last_columns:
            self._last_columns = columns
            self.counts["engine.chunks"] += 1
            self.counts["engine.rows_folded"] += columns.n

    def on_decide(self, args, result, seconds) -> None:
        self.counts["service.rows_served"] += args[1]
        self.counts["service.decides"] += 1
        self._last_decide_start = perf_counter() - seconds

    def on_flush(self, args, result, seconds) -> None:
        self.counts["service.flush_rows"] += result["written"]
        self.maxima["service.flush_max_s"] = max(
            self.maxima["service.flush_max_s"], seconds
        )

    def on_ask(self, args, result, began) -> None:
        # The decide that answered this ask is the latest one: the
        # batcher resolves a batch's futures right after its decide,
        # before the next decide can start.
        self.counts["batcher.asks"] += 1
        self.counts["batcher.queue_wait_s"] += max(
            0.0, self._last_decide_start - began
        )

    def snapshot(self) -> dict:
        """Everything recorded, as plain JSON."""
        usage = resource.getrusage(resource.RUSAGE_SELF)
        return {
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "self_s": {m: self.self_s.get(m, 0.0) for m in sorted(self.self_metrics)},
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)


def _patch(clock: LayerClock, owner, name: str, metric, options) -> tuple:
    """Replace ``owner.name`` by its timed version; ``(old, new)``."""
    static = inspect.getattr_static(owner, name)
    if isinstance(static, property):
        fn = clock.wrap(static.fget, metric, **options)
        setattr(owner, name, property(fn, static.fset, static.fdel, static.__doc__))
        return static.fget, fn
    if isinstance(static, classmethod):
        fn = clock.wrap(static.__func__, metric, **options)
        setattr(owner, name, classmethod(fn))
        return static.__func__, fn
    fn = clock.wrap(static, metric, **options)
    setattr(owner, name, fn)
    return static, fn


def _program_classes():
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module_name:
                yield value


def install(clock: LayerClock) -> None:
    """Wrap every target; rebind aliases made by ``from X import f``."""
    for module_name in MODULES:
        importlib.import_module(module_name)
    from repro.core.estimators.base import OffPolicyEstimator
    from repro.core.estimators.reductions import EstimatorReduction
    from repro.core.policies import Policy

    replaced: dict = {}
    for module_name, path, metric, options in TARGETS:
        module = sys.modules[module_name]
        owner_name, _, name = path.rpartition(".")
        if owner_name == "json":
            shim = types.ModuleType("json")
            shim.__dict__.update(json.__dict__)
            module.json = shim
            owner = shim
        else:
            owner = getattr(module, owner_name) if owner_name else module
        old, new = _patch(clock, owner, name, metric, options)
        if owner is module:
            replaced[id(old)] = new
    families = (
        (Policy, POLICY_METHODS),
        (EstimatorReduction, REDUCTION_METHODS),
        (OffPolicyEstimator, ESTIMATOR_METHODS),
    )
    for cls in list(_program_classes()):
        for base, methods in families:
            if not issubclass(cls, base):
                continue
            for name, (metric, options) in methods.items():
                if name in vars(cls):
                    _patch(clock, cls, name, metric, options)
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            new = replaced.get(id(value))
            if new is not None:
                setattr(module, attr, new)
