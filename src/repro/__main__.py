"""``python -m repro`` — orientation and offline evaluation for the CLI.

With no arguments, prints the package version, the experiment catalog,
and how to run things (the benchmarks themselves run under pytest; this
entry point just tells you where they are).

``python -m repro evaluate LOG.jsonl`` runs off-policy estimators over
a harvested JSONL exploration log from the shell::

    python -m repro evaluate exploration.jsonl \
        --policy uniform --policy constant:1 --policy eps:0:0.1 \
        --estimator ips --estimator snips \
        --backend vectorized

``--backend`` selects the evaluation engine (see
:mod:`repro.core.engine`): ``vectorized`` (default) runs through the
columnar batch path; ``scalar`` walks the log row by row; ``chunked``
streams the file through the reduction kernel in O(chunk) memory —
the only path that never loads the log, so it handles files larger
than RAM (tune with ``--chunk-size``).  Every backend evaluates in one
process.  Policies without a batch implementation fall back to the row
loop with a one-time warning per policy type.

``--bootstrap N`` adds a percentile-bootstrap confidence interval on
the IPS terms of every policy; with ``--seed`` the replicates are
generated by the sharded deterministic scheme, so reruns — serial or
spread over ``--workers`` processes — reproduce the same interval
bit-for-bit.  ``--workers`` drives nothing else in ``evaluate``.

Observability (see :mod:`repro.obs`): ``--trace`` records a span tree
over the run and prints the top spans by wall time; ``--metrics-out
PATH`` dumps the run's metrics registry in Prometheus text format
(``-`` for stdout); ``--manifest PATH`` writes a provenance manifest
(input digest, config, environment, results, metrics, spans) that
``python -m repro report PATH`` renders back as a one-page summary.
The watchtower layer adds ``--monitors`` (streaming health monitors —
windowed ESS, propensity floor, weight tail, quarantine rate, ledger
breaks, shard retry storms — whose OK/WARN/CRITICAL verdicts land in
the manifest, the metrics dump, and stderr), ``--profile`` (a
signal-sampling profiler attributing self-time to the active span;
changes no random numbers, so results stay bit-identical), and
``--history PATH`` (append a one-line summary record to an
append-only ``runs.jsonl`` for cross-run trends).  ``python -m repro
dashboard MANIFEST`` renders a manifest — plus any history — into a
self-contained static HTML page.  Any of these installs fresh per-run
instruments; with none of them the process-wide no-op singletons stay
in place and the run pays no overhead.

Audit (see :mod:`repro.audit`): ``harvest --ledger`` derives the
sampling stream via HKDF-SHA256 and chains every decision into
tamper-evident ledger metadata (head hash recorded in the manifest);
``python -m repro verify-ledger LOG.jsonl --manifest M.json`` proves
the log unmodified and untruncated, localizing any corruption to line
numbers.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack

import repro
from repro.core.columns import SpillError
from repro.core.engine import (
    BACKENDS,
    evaluate_jsonl_chunked,
    set_chunk_size,
    set_default_backend,
)
from repro.core.estimators.direct import DirectMethodEstimator
from repro.core.estimators.doubly_robust import DoublyRobustEstimator
from repro.core.estimators.fallback import FallbackEstimator
from repro.core.estimators.ips import (
    ClippedIPSEstimator,
    IPSEstimator,
    SNIPSEstimator,
)
from repro.core.estimators.switch import SwitchEstimator
from repro.core.validation import MODES
from repro.core.policies import (
    ConstantPolicy,
    EpsilonGreedyPolicy,
    Policy,
    UniformRandomPolicy,
)
from repro.core.types import Dataset
from repro.obs import (
    MetricsRegistry,
    MonitorSuite,
    RunHistory,
    RunManifest,
    SpanProfiler,
    Tracer,
    aggregate_spans,
    manifest_record,
    manifest_summary_text,
    render_dashboard,
    result_entry,
    serving_monitors,
    use_metrics,
    use_monitors,
    use_profiler,
    use_tracer,
)

EXPERIMENTS = [
    ("fig1", "benchmarks/test_fig1_ab_vs_cb.py", "A/B vs CB data needs"),
    ("fig2", "benchmarks/test_fig2_theoretical_accuracy.py", "Eq. 1 curves"),
    ("fig3", "benchmarks/test_fig3_ope_error.py", "IPS error vs N"),
    ("fig4", "benchmarks/test_fig4_cb_convergence.py", "CB vs ceiling"),
    ("table2", "benchmarks/test_table2_loadbalance.py",
     "LB offline vs online"),
    ("table3", "benchmarks/test_table3_caching.py", "eviction hit rates"),
    ("fig6", "benchmarks/test_fig6_hierarchy.py", "Front Door hierarchy"),
    ("abl-*", "benchmarks/test_ablation_*.py", "design-choice ablations"),
    ("ext-*", "benchmarks/test_ext_*.py", "extensions beyond the paper"),
]

EXAMPLES = [
    "quickstart", "machine_health", "load_balancing", "caching",
    "frontdoor_hierarchy", "chaos_exploration", "log_interop",
    "experiment_planning",
]

ESTIMATOR_NAMES = ("ips", "snips", "clipped-ips", "dm", "dr", "switch", "auto")


def print_catalog() -> None:
    print(f"repro {repro.__version__} — Harvesting Randomness to Optimize "
          f"Distributed Systems (HotNets 2017), reproduced\n")
    print("experiments (run with `pytest <file> -s` to see the rows):")
    for exp_id, path, blurb in EXPERIMENTS:
        print(f"  {exp_id:<8s} {path:<46s} {blurb}")
    print("\nexamples (run with `python examples/<name>.py`):")
    print("  " + ", ".join(EXAMPLES))
    print("\nevaluate a log offline:")
    print("  python -m repro evaluate LOG.jsonl --policy constant:1 "
          "--estimator ips")
    print("\nsuites:")
    print("  pytest tests/                      # unit/integration/property")
    print("  pytest benchmarks/ -s              # every table & figure")
    print("  pytest benchmarks/ --benchmark-only  # timing kernels")
    print("\ndocs: README.md, DESIGN.md, EXPERIMENTS.md, docs/methodology.md")


def parse_policy(spec: str) -> Policy:
    """Build a policy from a CLI spec.

    Specs: ``uniform``; ``constant:<action>``; ``eps:<action>:<epsilon>``
    (ε-greedy around a constant action).
    """
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "uniform" and len(parts) == 1:
            return UniformRandomPolicy()
        if kind == "constant" and len(parts) == 2:
            return ConstantPolicy(int(parts[1]))
        if kind == "eps" and len(parts) == 3:
            return EpsilonGreedyPolicy(
                ConstantPolicy(int(parts[1])), float(parts[2])
            )
    except ValueError as error:
        raise argparse.ArgumentTypeError(
            f"bad policy spec {spec!r}: {error}"
        ) from error
    raise argparse.ArgumentTypeError(
        f"unknown policy spec {spec!r}; expected 'uniform', "
        "'constant:<action>', or 'eps:<action>:<epsilon>'"
    )


def make_estimator(name: str):
    if name == "ips":
        return IPSEstimator()
    if name == "snips":
        return SNIPSEstimator()
    if name == "clipped-ips":
        return ClippedIPSEstimator()
    if name == "dm":
        return DirectMethodEstimator()
    if name == "dr":
        return DoublyRobustEstimator()
    if name == "switch":
        return SwitchEstimator()
    if name == "auto":
        return FallbackEstimator()
    raise ValueError(f"unknown estimator {name!r}")


def _print_table(estimators, rows) -> None:
    """Shared result table: one row per policy, one column per estimator.

    ``rows`` yields ``(policy_name, [EstimatorResult, ...])``; flagged
    (UNRELIABLE) cells are marked inline and explained on stderr.
    """
    header = f"{'policy':<28s}" + "".join(
        f"{e.name:>22s}" for e in estimators
    )
    print(header)
    print("-" * len(header))
    flagged: list[tuple[str, str, tuple[str, ...]]] = []
    for policy_name, results in rows:
        cells = []
        for result in results:
            marker = ""
            if not result.reliable:
                marker = "!"
                flagged.append(
                    (policy_name, result.estimator,
                     result.diagnostics.reasons)
                )
            cells.append(
                f"{result.value:>12.4f} ±{result.std_error:<6.4f}{marker:<1s}"
            )
        print(f"{policy_name:<28s}" + "".join(f"{c:>22s}" for c in cells))
    for policy_name, estimator_name, reasons in flagged:
        print(
            f"UNRELIABLE: {policy_name} × {estimator_name}: "
            + ("; ".join(reasons) or "diagnostics tripped"),
            file=sys.stderr,
        )


def _print_bootstrap(policy_name: str, terms, args: argparse.Namespace):
    """Print one policy's bootstrap CI; returns the interval (or None)."""
    from repro.core.bootstrap import bootstrap_interval_from_terms

    workers = args.workers if args.seed is not None else 1
    try:
        interval = bootstrap_interval_from_terms(
            terms, n_boot=args.bootstrap, seed=args.seed, workers=workers
        )
    except ValueError as error:
        print(f"bootstrap: {policy_name}: {error}", file=sys.stderr)
        return None
    print(
        f"bootstrap[ips, n_boot={args.bootstrap}"
        + (f", seed={args.seed}" if args.seed is not None else "")
        + f"]: {policy_name}: [{interval.low:.4f}, {interval.high:.4f}]"
    )
    return interval


def _run_evaluate_chunked(args, policies, estimators):
    """Out-of-core path: stream the file, never load the whole log.

    Returns ``(exit_code, rows, quarantine, bootstraps)`` so the
    observability wrapper can manifest the run.
    """
    try:
        evaluation = evaluate_jsonl_chunked(
            args.log,
            policies,
            estimators,
            mode=args.mode,
            collect_terms=args.bootstrap > 0,
        )
    except SpillError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1, [], None, {}
    except OSError as error:
        print(f"error: cannot read {args.log}: {error}", file=sys.stderr)
        return 1, [], None, {}
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1, [], None, {}
    if evaluation.quarantine:
        print(evaluation.quarantine.summary_text(), file=sys.stderr)
    if evaluation.snapshot.torn_bytes:
        print(
            f"{args.log}: left out an unterminated last line "
            f"({evaluation.snapshot.torn_bytes} bytes)",
            file=sys.stderr,
        )
    print(f"log: {args.log} ({evaluation.n} interactions, "
          f"{evaluation.n_chunks} chunks)  backend: chunked")
    rows = list(zip(evaluation.policy_names, evaluation.results))
    _print_table(estimators, rows)
    bootstraps = {}
    if args.bootstrap > 0:
        for policy in policies:
            terms = evaluation.terms.get((policy.name, "ips"))
            if terms is not None:
                interval = _print_bootstrap(policy.name, terms, args)
                if interval is not None:
                    bootstraps[policy.name] = interval
    return 0, rows, evaluation.quarantine, bootstraps


def _run_evaluate_inmemory(args, policies, estimators):
    """Scalar/vectorized path over a fully-loaded dataset."""
    try:
        dataset = Dataset.load_jsonl(args.log, mode=args.mode)
    except OSError as error:
        print(f"error: cannot read {args.log}: {error}", file=sys.stderr)
        return 1, [], None, {}
    except ValueError as error:
        # Strict-mode validation failure: the message already names the
        # file and 1-based line number.
        print(f"error: {error}", file=sys.stderr)
        return 1, [], None, {}
    if dataset.quarantine:
        print(dataset.quarantine.summary_text(), file=sys.stderr)
    if len(dataset) == 0:
        print(f"error: no usable interactions in {args.log}", file=sys.stderr)
        return 1, [], None, {}
    print(f"log: {args.log} ({len(dataset)} interactions)  "
          f"backend: {args.backend}")
    rows = []
    for policy in policies:
        results = []
        for estimator in estimators:
            try:
                results.append(estimator.estimate(policy, dataset))
            except ValueError as error:
                print(f"error: {policy.name} × {estimator.name}: {error}",
                      file=sys.stderr)
                return 1, [], dataset.quarantine, {}
        rows.append((policy.name, results))
    _print_table(estimators, rows)
    bootstraps = {}
    if args.bootstrap > 0:
        ips = IPSEstimator()
        for policy in policies:
            interval = _print_bootstrap(
                policy.name, ips.weighted_rewards(policy, dataset), args
            )
            if interval is not None:
                bootstraps[policy.name] = interval
    return 0, rows, dataset.quarantine, bootstraps


def _evaluate(args, policies, estimators):
    if args.backend == "chunked":
        return _run_evaluate_chunked(args, policies, estimators)
    return _run_evaluate_inmemory(args, policies, estimators)


def _print_trace_summary(tracer: Tracer, limit: int = 8) -> None:
    aggregated = aggregate_spans(tracer.span_tree())
    if not aggregated:
        return
    print("trace (top spans by wall time):", file=sys.stderr)
    for entry in aggregated[:limit]:
        print(
            f"  {entry['name']:<24s} ×{entry['count']:<6d} "
            f"wall {entry['wall_s']:.4f}s  cpu {entry['cpu_s']:.4f}s",
            file=sys.stderr,
        )


def _print_health_summary(monitors: MonitorSuite) -> None:
    snapshot = monitors.snapshot()
    verdicts = ", ".join(
        f"{name}={entry['level']}"
        for name, entry in sorted(snapshot.get("monitors", {}).items())
    )
    print(f"health: {snapshot['overall']} ({verdicts})", file=sys.stderr)
    for event in snapshot.get("events", []):
        if event["level"] != "OK":
            print(f"  {event['level']}: {event['message']}", file=sys.stderr)


def _print_profile_summary(profiler: SpanProfiler, limit: int = 8) -> None:
    table = profiler.flame_table(top=limit)
    if not table:
        print("profile: no samples captured", file=sys.stderr)
        return
    print("profile (top sites by samples):", file=sys.stderr)
    for row in table:
        print(
            f"  {row['span']:<24s} {row['site']:<40s} "
            f"x{row['samples']:<6d} ~{row['seconds']:.3f}s",
            file=sys.stderr,
        )


def _write_metrics_dump(args, metrics) -> int:
    exposition = metrics.to_prometheus()
    if args.metrics_out == "-":
        print(exposition, end="")
        return 0
    try:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(exposition)
    except OSError as error:
        print(f"error: cannot write {args.metrics_out}: {error}",
              file=sys.stderr)
        return 1
    return 0


def _append_history(args, manifest: RunManifest) -> int:
    try:
        RunHistory(args.history).append(manifest_record(manifest.to_dict()))
    except OSError as error:
        print(f"error: cannot append history {args.history}: {error}",
              file=sys.stderr)
        return 1
    print(f"history: {args.history}", file=sys.stderr)
    return 0


def _emit_observability(
    args, rows, quarantine, bootstraps, tracer, metrics,
    monitors=None, profiler=None,
) -> int:
    if args.trace:
        _print_trace_summary(tracer)
    if monitors is not None:
        _print_health_summary(monitors)
    if profiler is not None:
        _print_profile_summary(profiler)
    if args.metrics_out:
        if _write_metrics_dump(args, metrics):
            return 1
    if args.manifest or args.history:
        results = [
            result_entry(policy_name, result)
            for policy_name, policy_results in rows
            for result in policy_results
        ]
        for entry in results:
            interval = bootstraps.get(entry["policy"])
            if interval is not None and entry["estimator"] == "ips":
                entry["bootstrap"] = {
                    "low": interval.low,
                    "high": interval.high,
                    "confidence": interval.confidence,
                    "n_boot": args.bootstrap,
                    "seed": args.seed,
                }
        manifest = RunManifest.build(
            command="evaluate",
            input_path=args.log,
            config={
                "backend": args.backend,
                "mode": args.mode,
                "policies": args.policy or ["uniform"],
                "estimators": list(args.estimator) or ["ips"],
                "chunk_size": args.chunk_size,
                "workers": args.workers,
                "seed": args.seed,
                "bootstrap": args.bootstrap,
            },
            results=results,
            metrics=metrics,
            tracer=tracer,
            quarantine=quarantine,
            monitors=monitors,
            profiler=profiler,
        )
        if args.manifest:
            try:
                manifest.save(args.manifest)
            except OSError as error:
                print(f"error: cannot write {args.manifest}: {error}",
                      file=sys.stderr)
                return 1
            print(f"manifest: {args.manifest}", file=sys.stderr)
        if args.history and _append_history(args, manifest):
            return 1
    return 0


def run_evaluate(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 1
    if args.chunk_size is not None and args.chunk_size < 1:
        print("error: --chunk-size must be >= 1", file=sys.stderr)
        return 1
    if args.bootstrap != 0 and args.bootstrap < 10:
        print("error: --bootstrap must be 0 (off) or >= 10",
              file=sys.stderr)
        return 1
    # The flags set the process-wide defaults, so everything downstream —
    # estimators, bootstrap, model fitting — follows them uniformly.
    set_default_backend(args.backend)
    if args.chunk_size is not None:
        set_chunk_size(args.chunk_size)
    try:
        policies = [parse_policy(spec) for spec in args.policy] or [
            UniformRandomPolicy()
        ]
    except argparse.ArgumentTypeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    estimators = [make_estimator(name) for name in args.estimator] or [
        IPSEstimator()
    ]
    instrumented = bool(
        args.trace or args.metrics_out or args.manifest
        or args.monitors or args.profile or args.history
    )
    if not instrumented:
        # No per-run instruments installed: the process-wide no-op
        # tracer/registry stay in place and the run pays no overhead.
        code, _rows, _quarantine, _boots = _evaluate(
            args, policies, estimators
        )
        return code
    tracer = Tracer()
    metrics = MetricsRegistry()
    monitors = MonitorSuite() if args.monitors else None
    profiler = SpanProfiler() if args.profile else None
    with ExitStack() as stack:
        stack.enter_context(use_tracer(tracer))
        stack.enter_context(use_metrics(metrics))
        if monitors is not None:
            stack.enter_context(use_monitors(monitors))
        if profiler is not None:
            stack.enter_context(use_profiler(profiler))
        code, rows, quarantine, bootstraps = _evaluate(
            args, policies, estimators
        )
    if code != 0:
        return code
    return _emit_observability(
        args, rows, quarantine, bootstraps, tracer, metrics,
        monitors=monitors, profiler=profiler,
    )


HARVEST_SCENARIOS = ("machinehealth", "loadbalance", "cache")

#: The serve subcommand adds the dependency-free benchmark scenario.
SERVE_SCENARIOS = HARVEST_SCENARIOS + ("synthetic",)


def _harvest_sharded(args: argparse.Namespace, policy: Policy):
    """Run a ledgered harvest through the shard coordinator.

    Every ``--ledger`` harvest is a :class:`~repro.audit.shards.
    ShardPlan` executed by :class:`~repro.core.coordinator.
    HarvestCoordinator` — ``--workers 1`` runs the shards in-process,
    ``--workers N`` fans them onto the persistent pool; the rows and
    the spliced chain head are bit-identical either way.  Returns
    ``(columns, sharded_harvest, registry)`` — the
    :class:`~repro.core.coordinator.ShardedHarvest` duck-types as the
    ledger for annotation and for the manifest (where it also records
    the shard map).
    """
    from repro.core.coordinator import HarvestCoordinator, HarvestJob

    seed = args.seed or 0
    job = HarvestJob(
        scenario=args.scenario,
        rows=args.rows,
        master_seed=seed,
        policy=policy,
        shard_size=args.shard_size,
        batch_size=args.batch_size,
        config={"seed": seed},
    )
    result = HarvestCoordinator(
        job, workers=getattr(args, "workers", 1)
    ).run()
    return result.columns, result, result.registry


def _harvest_scenario(args: argparse.Namespace, policy: Policy):
    """Run one scenario's batch harvester.

    Returns ``(columns, ledger, registry)`` — the audit objects are
    ``None`` unless ``--ledger`` was given, in which case the harvest
    is sharded (see :func:`_harvest_sharded`) and the returned ledger
    is a :class:`~repro.core.coordinator.ShardedHarvest`.  Without
    ``--ledger`` the historical plain ``default_rng(seed)`` paths are
    kept, so existing seeds keep producing byte-identical logs.
    """
    import numpy as np

    seed = args.seed or 0
    if getattr(args, "ledger", False):
        return _harvest_sharded(args, policy)
    if getattr(args, "workers", 1) > 1:
        raise ValueError(
            "--workers requires --ledger: only stream-keyed shards "
            "re-derive deterministically across processes"
        )
    rng = np.random.default_rng(seed)
    if args.scenario == "machinehealth":
        from repro.machinehealth.dataset import (
            build_full_feedback_dataset,
            simulate_exploration_columns,
        )

        full = build_full_feedback_dataset(n_events=args.rows, seed=seed)
        return simulate_exploration_columns(
            full.full, rng, policy, batch_size=args.batch_size
        ), None, None
    if args.scenario == "loadbalance":
        from repro.loadbalance.harvest import (
            batch_exploration_columns,
            synthetic_decision_snapshots,
        )
        from repro.loadbalance.proxy import fig5_servers

        snapshots = synthetic_decision_snapshots(args.rows, 2, seed=seed)
        return batch_exploration_columns(
            policy,
            snapshots,
            fig5_servers(),
            rng,
            batch_size=args.batch_size,
            noise_seed=seed,
        ), None, None
    if args.scenario == "cache":
        from repro.cache.eviction import random_eviction_policy
        from repro.cache.harvest import resample_eviction_columns
        from repro.cache.sim import CacheSim
        from repro.cache.workload import BigSmallWorkload
        from repro.simsys.random_source import RandomSource

        workload = BigSmallWorkload(
            n_big=20, n_small=200,
            randomness=RandomSource(seed, _name="harvest-wl"),
        )
        sim = CacheSim(150, random_eviction_policy(), seed=seed)
        result = sim.run(workload.requests(args.rows), keep_log=True)
        return resample_eviction_columns(
            result.log_lines, policy, rng,
            batch_size=args.batch_size,
        ), None, None
    raise ValueError(f"unknown scenario {args.scenario!r}")


def _run_harvest(args: argparse.Namespace):
    """Generate and save one exploration log.

    Returns ``(code, rows, ledger, registry)``; the last two are
    ``None`` unless ``--ledger`` was given.
    """
    try:
        policy = (
            parse_policy(args.policy) if args.policy else UniformRandomPolicy()
        )
    except argparse.ArgumentTypeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1, 0, None, None
    try:
        columns, ledger, registry = _harvest_scenario(args, policy)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1, 0, None, None
    try:
        dataset = columns.to_dataset()
        if ledger is not None:
            ledger.annotate(dataset)
        dataset.save_jsonl(args.out)
    except OSError as error:
        print(f"error: cannot write {args.out}: {error}", file=sys.stderr)
        return 1, 0, None, None
    print(
        f"harvested {columns.n} rows ({args.scenario}, policy "
        f"{policy.name}, batch_size {args.batch_size}) -> {args.out}"
    )
    if ledger is not None:
        plan = getattr(ledger, "plan", None)
        if plan is not None:
            print(
                f"sharded: {len(plan)} shard(s) x {args.shard_size} rows, "
                f"{getattr(ledger, 'workers', 1)} worker(s), "
                f"{getattr(ledger, 'retries', 0)} retrie(s)"
            )
        print(f"ledger: stream {ledger.stream}  head {ledger.head}")
    return 0, columns.n, ledger, registry


def run_harvest(args: argparse.Namespace) -> int:
    """``python -m repro harvest`` — batched exploration-log generation.

    Drives the scenario's batch harvester
    (:func:`repro.core.harvest.harvest_columns` under the hood): the
    logging policy samples actions through ``act_batch`` in
    ``--batch-size`` chunks, and the resulting ``⟨x, a, r, p⟩`` log is
    saved as JSONL, ready for ``python -m repro evaluate``.
    """
    if args.rows <= 0:
        print("error: --rows must be positive", file=sys.stderr)
        return 1
    if args.batch_size <= 0:
        print("error: --batch-size must be >= 1 (1 = per-row sampling "
              "through the batch engine)", file=sys.stderr)
        return 1
    if getattr(args, "workers", 1) < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 1
    instrumented = bool(
        args.trace or args.metrics_out or args.manifest
        or args.monitors or args.profile or args.history
    )
    if not instrumented:
        code, _rows, _ledger, _registry = _run_harvest(args)
        return code
    tracer = Tracer()
    metrics = MetricsRegistry()
    monitors = MonitorSuite() if args.monitors else None
    profiler = SpanProfiler() if args.profile else None
    with ExitStack() as stack:
        stack.enter_context(use_tracer(tracer))
        stack.enter_context(use_metrics(metrics))
        if monitors is not None:
            stack.enter_context(use_monitors(monitors))
        if profiler is not None:
            stack.enter_context(use_profiler(profiler))
        code, n_rows, ledger, registry = _run_harvest(args)
    if code != 0:
        return code
    if args.trace:
        _print_trace_summary(tracer)
    if monitors is not None:
        _print_health_summary(monitors)
    if profiler is not None:
        _print_profile_summary(profiler)
    if args.metrics_out:
        if _write_metrics_dump(args, metrics):
            return 1
    if args.manifest or args.history:
        manifest = RunManifest.build(
            command="harvest",
            input_path=args.out,
            config={
                "scenario": args.scenario,
                "rows": args.rows,
                "batch_size": args.batch_size,
                "seed": args.seed,
                "policy": args.policy or "uniform",
                "out": args.out,
                "ledger": bool(getattr(args, "ledger", False)),
                "shard_size": args.shard_size,
                "workers": getattr(args, "workers", 1),
            },
            results=[{"scenario": args.scenario, "rows_generated": n_rows}],
            metrics=metrics,
            tracer=tracer,
            ledger=ledger,
            streams=registry,
            monitors=monitors,
            profiler=profiler,
        )
        if args.manifest:
            try:
                manifest.save(args.manifest)
            except OSError as error:
                print(f"error: cannot write {args.manifest}: {error}",
                      file=sys.stderr)
                return 1
            print(f"manifest: {args.manifest}", file=sys.stderr)
        if args.history and _append_history(args, manifest):
            return 1
    return 0


def _parse_swap_specs(specs) -> list:
    """``NAME=SPEC`` candidate declarations → ``[(name, policy), ...]``."""
    candidates = []
    for item in specs:
        name, sep, spec = item.partition("=")
        if not sep or not name or not spec:
            raise argparse.ArgumentTypeError(
                f"bad --swap-policy {item!r}; expected NAME=SPEC "
                "(e.g. greedy=constant:1)"
            )
        candidates.append((name, parse_policy(spec)))
    return candidates


async def _drive_burst(host: str, port: int, args) -> dict:
    """Self-drive a fixed decision burst over real loopback TCP.

    ``--clients`` concurrent connections fire ``act`` asks of
    ``--ask`` decisions each until ``--burst`` total decisions are
    served, then one control connection flushes the log.  Used by CI's
    perf-smoke serve step and anywhere a bounded, self-terminating
    server run is needed.
    """
    import asyncio
    import json as json_module
    import time as time_module

    remaining = {"n": int(args.burst)}

    async def client() -> int:
        reader, writer = await asyncio.open_connection(host, port)
        served = 0
        try:
            while remaining["n"] > 0:
                ask = min(args.ask, remaining["n"])
                remaining["n"] -= ask
                writer.write(
                    (json_module.dumps({"op": "act", "n": ask}) + "\n")
                    .encode()
                )
                await writer.drain()
                response = json_module.loads(await reader.readline())
                if not response.get("ok"):
                    raise RuntimeError(f"act failed: {response.get('error')}")
                served += len(response["decisions"])
        finally:
            writer.close()
            await writer.wait_closed()
        return served

    began = time_module.perf_counter()
    totals = await asyncio.gather(*[client() for _ in range(args.clients)])
    elapsed = time_module.perf_counter() - began
    return {
        "decisions": int(sum(totals)),
        "seconds": elapsed,
        "decisions_per_sec": sum(totals) / elapsed if elapsed > 0 else 0.0,
        "clients": args.clients,
        "ask": args.ask,
    }


async def _serve_async(args, service) -> tuple[int, dict]:
    """Boot the server; burst-drive it or block until shutdown."""
    from repro.serve import GateConfig, PolicyServer

    server = PolicyServer(
        service,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        policy_factory=parse_policy,
        gate_config=GateConfig(
            min_rows=args.gate_min_rows, margin=args.gate_margin
        ),
        eval_every=args.eval_every,
    )
    host, port = await server.start()
    print(f"serving {args.scenario} on {host}:{port} "
          f"(incumbent: {service.policies.incumbent.name})", file=sys.stderr)
    burst_stats: dict = {}
    try:
        if args.burst > 0:
            burst_stats = await _drive_burst(host, port, args)
            print(
                f"burst: {burst_stats['decisions']} decisions in "
                f"{burst_stats['seconds']:.3f}s = "
                f"{burst_stats['decisions_per_sec']:,.0f}/s over "
                f"{args.clients} connections",
                file=sys.stderr,
            )
        else:
            await server.wait_closed()
    finally:
        if service.log_path is not None:
            flushed = service.flush()
            print(
                f"log: {service.log_path} ({flushed['total']} records, "
                f"head {flushed['head'][:16]}…)",
                file=sys.stderr,
            )
        await server.stop()
    return 0, burst_stats


def run_serve(args: argparse.Namespace) -> int:
    """``python -m repro serve`` — the online policy decision service.

    Boots a :class:`repro.serve.server.PolicyServer` for one scenario:
    ``act`` requests are answered by the incumbent policy at
    harvest-engine speed, every decision is hash-chained into the
    audit ledger and (with ``--log``) streamed to a JSONL file that
    ``python -m repro evaluate`` / ``verify-ledger`` consume unchanged,
    and candidates registered via ``--swap-policy NAME=SPEC`` (or the
    ``register`` op) can be shadowed, canaried, and promoted through
    the offline OPE gate — the paper's §5 closed loop.  ``--burst N``
    self-drives N decisions over loopback TCP and exits (CI's serve
    smoke); otherwise the server runs until a ``shutdown`` op.
    """
    import asyncio

    from repro.serve import DecisionService

    if args.pool_rows <= 0:
        print("error: --pool-rows must be positive", file=sys.stderr)
        return 1
    try:
        candidates = _parse_swap_specs(args.swap_policy)
        incumbent = parse_policy(args.policy)
    except argparse.ArgumentTypeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    instrumented = bool(
        args.trace or args.metrics_out or args.manifest
        or args.monitors or args.profile or args.history
    )
    tracer = Tracer() if instrumented else None
    metrics = MetricsRegistry() if instrumented else None
    monitors = (
        MonitorSuite(serving_monitors()) if args.monitors else None
    )
    profiler = SpanProfiler() if args.profile else None
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(use_tracer(tracer))
        if metrics is not None:
            stack.enter_context(use_metrics(metrics))
        if monitors is not None:
            stack.enter_context(use_monitors(monitors))
        if profiler is not None:
            stack.enter_context(use_profiler(profiler))
        try:
            service = DecisionService(
                args.scenario,
                incumbent,
                pool_rows=args.pool_rows,
                seed=args.seed,
                shard_size=args.shard_size,
                log_path=args.log,
            )
        except (ValueError, KeyError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        for name, policy in candidates:
            service.register_candidate(name, policy)
        try:
            code, burst_stats = asyncio.run(_serve_async(args, service))
        except KeyboardInterrupt:
            service.close()
            print("interrupted", file=sys.stderr)
            return 130
    if code != 0:
        return code
    if monitors is not None:
        _print_health_summary(monitors)
    if profiler is not None:
        _print_profile_summary(profiler)
    if args.metrics_out and metrics is not None:
        if _write_metrics_dump(args, metrics):
            return 1
    if args.manifest or args.history:
        results = [{"scenario": args.scenario, "served": service.served}]
        if burst_stats:
            results.append({"burst": burst_stats})
        manifest = RunManifest.build(
            command="serve",
            input_path=service.log_path,
            config={
                "scenario": args.scenario,
                "policy": args.policy,
                "swap_policies": list(args.swap_policy),
                "pool_rows": args.pool_rows,
                "seed": args.seed,
                "shard_size": args.shard_size,
                "burst": args.burst,
                "eval_every": args.eval_every,
            },
            results=results,
            metrics=metrics,
            tracer=tracer,
            ledger=service.ledger,
            streams=service.streams,
            monitors=monitors,
            profiler=profiler,
            extra={"serving": service.manifest_serving_section()},
        )
        if args.manifest:
            try:
                manifest.save(args.manifest)
            except OSError as error:
                print(f"error: cannot write {args.manifest}: {error}",
                      file=sys.stderr)
                return 1
            print(f"manifest: {args.manifest}", file=sys.stderr)
        if args.history and _append_history(args, manifest):
            return 1
    return 0


def run_verify_ledger(args: argparse.Namespace) -> int:
    """``python -m repro verify-ledger`` — prove a log's chain integrity.

    Walks the JSONL log's hash-chained ledger metadata
    (:func:`repro.audit.ledger.verify_jsonl`): tampered records,
    missing segments, and reordering all break the chain and are
    localized to line numbers; with an expected head (``--expect-head``
    or the ``ledger.head`` recorded in a harvest ``--manifest``),
    truncation is detected too.  Exit code 0 iff the chain verifies.
    """
    import json as json_module

    from repro.audit.ledger import verify_jsonl

    expected_head = args.expect_head
    expected_n = None
    shards = None
    if args.manifest:
        try:
            manifest = RunManifest.load(args.manifest)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        ledger_section = manifest.to_dict().get("ledger")
        if not ledger_section or "head" not in ledger_section:
            print(
                f"error: {args.manifest} records no ledger head",
                file=sys.stderr,
            )
            return 1
        expected_head = ledger_section["head"]
        # Pin the record count too: a chain that verifies internally but
        # carries fewer (or more) decisions than the manifest recorded
        # is still not the log the manifest attests to.
        if ledger_section.get("n") is not None:
            expected_n = int(ledger_section["n"])
        # A sharded-harvest manifest also records the shard map; verify
        # each shard against its boundary hashes in isolation, then the
        # splice — tampering and truncation get pinned to a shard.
        shards = ledger_section.get("shards")
    try:
        if shards:
            from repro.audit.shards import verify_sharded_jsonl

            verification = verify_sharded_jsonl(
                args.log,
                shards,
                expected_head=expected_head,
                expected_n=expected_n,
            )
        else:
            verification = verify_jsonl(
                args.log, expected_head=expected_head, expected_n=expected_n
            )
    except OSError as error:
        print(f"error: cannot read {args.log}: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json_module.dumps(verification.report(), indent=2))
    else:
        print(verification.summary_text())
    return 0 if verification.ok else 1


def run_report(args: argparse.Namespace) -> int:
    try:
        manifest = RunManifest.load(args.manifest)
    except OSError as error:
        print(f"error: cannot read {args.manifest}: {error}", file=sys.stderr)
        return 1
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(manifest_summary_text(manifest, top_spans=args.top_spans))
    return 0


def run_dashboard(args: argparse.Namespace) -> int:
    """``python -m repro dashboard`` — render a manifest as static HTML.

    Loads a saved run manifest (plus, with ``--history``, the
    cross-run ``runs.jsonl``) and writes a fully self-contained HTML
    page: health verdicts, result tables, span waterfall, flame table,
    metric dumps, and bench-trend sparklines.  No external assets, no
    scripts — safe to archive as a CI artifact and open offline.
    """
    try:
        manifest = RunManifest.load(args.manifest)
    except OSError as error:
        print(f"error: cannot read {args.manifest}: {error}", file=sys.stderr)
        return 1
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    records = []
    if args.history:
        try:
            records = RunHistory(args.history).records()
        except OSError as error:
            print(f"error: cannot read history {args.history}: {error}",
                  file=sys.stderr)
            return 1
    html = render_dashboard(
        manifest.to_dict(), history=records, title=args.title
    )
    if args.out == "-":
        print(html, end="")
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(html)
    except OSError as error:
        print(f"error: cannot write {args.out}: {error}", file=sys.stderr)
        return 1
    print(f"dashboard: {args.out}", file=sys.stderr)
    return 0


def _add_watchtower_flags(sub: argparse.ArgumentParser) -> None:
    """``--monitors`` / ``--profile`` / ``--history`` (evaluate + harvest)."""
    sub.add_argument(
        "--monitors",
        action="store_true",
        help="run streaming health monitors over the live stream (windowed "
        "ESS, propensity floor, weight tail, quarantine rate, ledger "
        "breaks, retry storms); verdicts land in the manifest, the "
        "metrics dump, and stderr",
    )
    sub.add_argument(
        "--profile",
        action="store_true",
        help="sample the call stack on a timer and attribute self-time to "
        "the active span (flame table in the manifest; draws no random "
        "numbers, so results are bit-identical with it on or off)",
    )
    sub.add_argument(
        "--history",
        metavar="PATH",
        default=None,
        help="append a one-line summary record (git SHA, cpu count, "
        "results, health verdicts) to an append-only runs.jsonl at PATH "
        "(a directory or a .jsonl file) for cross-run trends",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Harvesting-randomness reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command")
    evaluate = subparsers.add_parser(
        "evaluate", help="off-policy evaluation of a JSONL exploration log"
    )
    evaluate.add_argument("log", help="path to a JSONL exploration log")
    evaluate.add_argument(
        "--policy",
        action="append",
        default=[],
        metavar="SPEC",
        help="candidate policy: uniform | constant:<a> | eps:<a>:<epsilon> "
        "(repeatable; default: uniform)",
    )
    evaluate.add_argument(
        "--estimator",
        action="append",
        default=[],
        choices=ESTIMATOR_NAMES,
        help="estimator to run (repeatable; default: ips)",
    )
    evaluate.add_argument(
        "--backend",
        choices=BACKENDS,
        default="vectorized",
        help="evaluation engine: columnar batch path (vectorized, default), "
        "per-row reference loop (scalar), or out-of-core streaming folds "
        "(chunked — the only path that never loads the whole log)",
    )
    evaluate.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="N",
        help="rows per fold on the chunked backend (default 8192)",
    )
    evaluate.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="W",
        help="worker processes for seeded bootstrap resampling "
        "(--bootstrap with --seed; default 1 = serial; the interval is "
        "identical either way)",
    )
    evaluate.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="seed for bootstrap resampling; makes intervals reproducible "
        "bit-for-bit across runs and across --workers settings",
    )
    evaluate.add_argument(
        "--bootstrap",
        type=int,
        default=0,
        metavar="B",
        help="print a percentile-bootstrap CI on each policy's IPS terms "
        "from B >= 10 replicates (default 0 = off)",
    )
    evaluate.add_argument(
        "--mode",
        choices=MODES,
        default="strict",
        help="log validation mode: strict (default) raises on the first "
        "bad record; quarantine sets bad records aside with a per-reason "
        "report; repair clamps fixable defects",
    )
    evaluate.add_argument(
        "--trace",
        action="store_true",
        help="record a span tree over the run (validation, chunk folds, "
        "bootstrap shards) and print the top spans by wall time",
    )
    evaluate.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the run's metrics registry in Prometheus text format "
        "to PATH ('-' for stdout)",
    )
    evaluate.add_argument(
        "--manifest",
        metavar="PATH",
        default=None,
        help="write a provenance manifest (input digest, config, results, "
        "metrics, span tree) to PATH; render it later with "
        "`python -m repro report PATH` or `python -m repro dashboard PATH`",
    )
    _add_watchtower_flags(evaluate)
    harvest = subparsers.add_parser(
        "harvest",
        help="generate a batched exploration log from a scenario simulator",
    )
    harvest.add_argument(
        "scenario",
        choices=HARVEST_SCENARIOS,
        help="which substrate to harvest exploration data from",
    )
    harvest.add_argument("out", help="output JSONL path for the log")
    harvest.add_argument(
        "--rows",
        type=int,
        default=10_000,
        metavar="N",
        help="decision events to simulate (cache: requests driven through "
        "the sim; the harvested rows are its evictions)",
    )
    harvest.add_argument(
        "--batch-size",
        type=int,
        default=8192,
        metavar="B",
        help="decisions sampled per act_batch call (default 8192; 1 = "
        "per-row sampling — output is bit-identical for any B under a "
        "fixed --seed)",
    )
    harvest.add_argument(
        "--policy",
        default=None,
        metavar="SPEC",
        help="logging policy: uniform (default) | constant:<a> | "
        "eps:<a>:<epsilon>",
    )
    harvest.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="seed for the scenario generator and the sampling stream",
    )
    harvest.add_argument(
        "--ledger",
        action="store_true",
        help="audit-grade harvest: derive the sampling stream via "
        "HKDF-SHA256 from --seed (shard-deterministic, re-derivable in "
        "isolation) and chain every decision into tamper-evident ledger "
        "metadata; verify later with `python -m repro verify-ledger`",
    )
    harvest.add_argument(
        "--shard-size",
        type=int,
        default=8192,
        metavar="S",
        help="rows per derivation shard under --ledger (default 8192); "
        "any aligned shard of the log regenerates bit-identically from "
        "(seed, stream key, start ordinal)",
    )
    harvest.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="W",
        help="harvest shards across W pool workers (requires --ledger; "
        "rows and chain head are bit-identical for any W — crashed "
        "workers cost only the re-derivation of their shards)",
    )
    harvest.add_argument(
        "--trace",
        action="store_true",
        help="print the top harvest spans by wall time",
    )
    harvest.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write harvest metrics (rows generated, per-batch latency "
        "histogram) in Prometheus text format to PATH ('-' for stdout)",
    )
    harvest.add_argument(
        "--manifest",
        metavar="PATH",
        default=None,
        help="write a provenance manifest (output digest, config, metrics, "
        "span tree) to PATH",
    )
    _add_watchtower_flags(harvest)
    serve = subparsers.add_parser(
        "serve",
        help="run the online policy server (act over TCP, audit-chained "
        "decision log, shadow/canary/OPE-gated hot-swap)",
    )
    serve.add_argument(
        "scenario",
        choices=SERVE_SCENARIOS,
        help="which scenario the service decides for (synthetic is the "
        "dependency-free benchmark workload)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0 = an ephemeral port, printed at boot)",
    )
    serve.add_argument(
        "--policy",
        default="uniform",
        metavar="SPEC",
        help="the boot incumbent: uniform | constant:<a> | "
        "eps:<a>:<epsilon> (default uniform — maximal exploration)",
    )
    serve.add_argument(
        "--swap-policy",
        action="append",
        default=[],
        metavar="NAME=SPEC",
        help="register a named candidate at boot (repeatable); promote it "
        "later via the promote op, the swap op, or --eval-every",
    )
    serve.add_argument(
        "--pool-rows",
        type=int,
        default=8192,
        metavar="N",
        help="scenario context-pool size; decision t serves pool row "
        "t mod N (default 8192)",
    )
    serve.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="master seed for the audit stream registry (default 0)",
    )
    serve.add_argument(
        "--shard-size",
        type=int,
        default=8192,
        metavar="N",
        help="rows per RNG derivation shard / ledger shard (default 8192)",
    )
    serve.add_argument(
        "--log",
        metavar="PATH",
        default=None,
        help="stream flushed decisions to this JSONL log (ledger-chained; "
        "required for the OPE gate)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=8192,
        metavar="N",
        help="max decisions coalesced into one vectorized decide "
        "(default 8192)",
    )
    serve.add_argument(
        "--eval-every",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="auto-gate loop: every SECONDS, evaluate one registered "
        "candidate offline and hot-swap if it passes (default 0 = off)",
    )
    serve.add_argument(
        "--gate-min-rows",
        type=int,
        default=256,
        metavar="N",
        help="minimum logged rows before the OPE gate may promote "
        "(default 256)",
    )
    serve.add_argument(
        "--gate-margin",
        type=float,
        default=0.0,
        metavar="M",
        help="required DR improvement over the incumbent (default 0)",
    )
    serve.add_argument(
        "--burst",
        type=int,
        default=0,
        metavar="N",
        help="self-drive N decisions over loopback TCP, then flush and "
        "exit (CI smoke; default 0 = serve until shutdown)",
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=8,
        metavar="C",
        help="concurrent burst connections (default 8)",
    )
    serve.add_argument(
        "--ask",
        type=int,
        default=64,
        metavar="K",
        help="decisions per burst act request (default 64)",
    )
    serve.add_argument(
        "--trace",
        action="store_true",
        help="record a span tree over the run",
    )
    serve.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the run's metrics registry in Prometheus text format "
        "to PATH ('-' for stdout)",
    )
    serve.add_argument(
        "--manifest",
        metavar="PATH",
        default=None,
        help="write a provenance manifest with a `serving` section "
        "(policy history, shadows, gate decisions, ledger head) to PATH",
    )
    _add_watchtower_flags(serve)
    verify = subparsers.add_parser(
        "verify-ledger",
        help="verify the hash-chained decision ledger of a JSONL log",
    )
    verify.add_argument("log", help="path to a ledgered JSONL exploration log")
    verify.add_argument(
        "--manifest",
        metavar="PATH",
        default=None,
        help="harvest manifest whose recorded ledger head the log must "
        "match (detects truncation/extension, not just tampering)",
    )
    verify.add_argument(
        "--expect-head",
        metavar="HASH",
        default=None,
        help="expected chain head as a hex digest (overridden by "
        "--manifest when both are given)",
    )
    verify.add_argument(
        "--json",
        action="store_true",
        help="emit the verification report as JSON instead of text",
    )
    report = subparsers.add_parser(
        "report", help="render a saved run manifest as a summary"
    )
    report.add_argument("manifest", help="path to a run_manifest.json")
    report.add_argument(
        "--top-spans",
        type=int,
        default=12,
        metavar="N",
        help="how many spans to show in the wall-time table (default 12)",
    )
    dashboard = subparsers.add_parser(
        "dashboard",
        help="render a run manifest (plus optional run history) as a "
        "self-contained static HTML page",
    )
    dashboard.add_argument("manifest", help="path to a run_manifest.json")
    dashboard.add_argument(
        "--history",
        metavar="PATH",
        default=None,
        help="runs.jsonl (or its directory) whose records feed the "
        "cross-run trend sparklines",
    )
    dashboard.add_argument(
        "-o", "--out",
        metavar="PATH",
        default="dashboard.html",
        help="output HTML path (default dashboard.html; '-' for stdout)",
    )
    dashboard.add_argument(
        "--title",
        default=None,
        help="page title (default derived from the manifest command)",
    )
    return parser


def main(argv: list[str]) -> int:
    if not argv:
        print_catalog()
        return 0
    args = build_parser().parse_args(argv)
    if args.command == "evaluate":
        return run_evaluate(args)
    if args.command == "harvest":
        return run_harvest(args)
    if args.command == "serve":
        return run_serve(args)
    if args.command == "verify-ledger":
        return run_verify_ledger(args)
    if args.command == "report":
        return run_report(args)
    if args.command == "dashboard":
        return run_dashboard(args)
    print_catalog()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
