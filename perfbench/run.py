"""The repository benchmark: one command runs one workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload audit-lb --seed 1 --seconds 60 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists), both in
:mod:`offline`:

- ``audit-lb``: ledgered loadbalance harvest → verify-ledger → chunked
  evaluate with bootstrap; its traced runs add the serving phase
  (:mod:`serving`): the policy server under a load generator, then the
  OPE gate — ROADMAP's whole ``harvest → verify-ledger → evaluate →
  serve/gate`` pipeline;
- ``classsearch-mh``: plain machinehealth harvest → 256-policy class
  search.

The workload repeats its fixed unit of work on fresh seeded inputs for
about ``--seconds`` and reports medians over the repetitions.  With
``--trace 0`` it prints every end-to-end metric, measured with tracing
off; with ``--trace 1`` it alternates untraced and traced repetitions
and prints every per-layer metric (:mod:`layers`), including each
command's ``unattributed_s`` and ``trace_overhead``.  A table for
people comes first; the last line is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Every command's exit code and every correctness check counts as one
attempted operation.  The exit code is 0 when every one succeeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from common import ROOT, Tally, Workdir, median, program_present, repro_argv, run, tail
from offline import AuditLB, ClassSearchMH
from serving import REFERENCE_RPS, ServingPhase

WORKLOADS = {w.name: w for w in (AuditLB, ClassSearchMH)}

MIN_REPS = 2


def load_catalog() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- repetition loop ----------------------------------------------------------

def repeat(seconds: float, body) -> None:
    """Call ``body(rep)`` until another repetition would overrun."""
    began = time.perf_counter()
    rep = 0
    while True:
        body(rep)
        rep += 1
        elapsed = time.perf_counter() - began
        if rep >= MIN_REPS and elapsed + elapsed / rep > seconds:
            return


def setup_probe(tally: Tally) -> float | None:
    """Interpreter start plus the ``repro`` CLI import, as a user pays it."""
    done = run(repro_argv(), ROOT)
    return done.wall_s if tally.command(done, "setup probe") else None


def run_workload(workload, serving, work, seed: int, seconds: float,
                 trace: bool, tally: Tally) -> tuple:
    """Repeat the workload.

    Returns ``(end-to-end samples, per-layer values, repetitions)``,
    where ``repetitions`` counts the untraced and traced repetitions the
    per-layer medians are taken over.
    """
    reps, traced_reps, setups = [], [], []
    served, traced_served = [], []

    def body(rep: int) -> None:
        sample = setup_probe(tally)
        if sample is not None:
            setups.append(sample)
        traced = trace and rep % 2 == 1
        first = rep == 0
        result = workload.rep(work, seed * 1000 + rep, traced, tally, first)
        if serving is not None:
            serve = serving.rep(work, seed * 1000 + rep, traced, tally, first)
            if serve is None:
                result = None
        if result is not None:
            (traced_reps if traced else reps).append(result)
            if serving is not None:
                (traced_served if traced else served).append(serve)

    repeat(seconds, body)
    samples = {
        "setup_s": setups,
        "pipeline_s": [sum(r.walls.values()) for r in reps],
        "harvest_rows_per_s": [r.rows / r.walls["harvest"] for r in reps],
        "evaluate_rows_per_s": [r.rows / r.walls["evaluate"] for r in reps],
        "peak_rss_mb": [r.rss_mb for r in reps],
    }
    if not trace:
        return samples, {}, {}
    per_rep = [command_layers(rep) for rep in traced_reps]
    for values, serve in zip(per_rep, traced_served):
        values.update(_summed(values, serving_layers(serve)))
    values = _medians(per_rep)
    values.update(command_walls(reps, traced_reps))
    if serving is not None:
        values.update(serving_summary(serving, served, traced_served))
    repetitions = {"untraced": len(reps), "traced": len(traced_reps)}
    return samples, values, repetitions


# -- per-layer values ---------------------------------------------------------

def _self_total(record: dict) -> float:
    return sum(record["self_s"].values())


def _accumulate(values: dict, record: dict) -> None:
    """Add one command's layer record into ``values``."""
    for metric, seconds in record["self_s"].items():
        values[metric] = values.get(metric, 0.0) + seconds
    for metric, seconds in record["incl_s"].items():
        values[metric] = values.get(metric, 0.0) + seconds
    for metric, count in record["counts"].items():
        values[metric] = values.get(metric, 0.0) + count
    for metric, peak in record["maxima"].items():
        values[metric] = max(values.get(metric, 0.0), peak)


def _summed(left: dict, right: dict) -> dict:
    return {k: left.get(k, 0.0) + right.get(k, 0.0) for k in right}


def _medians(per_rep: list) -> dict:
    names = {name for values in per_rep for name in values}
    return {name: median(v.get(name, 0.0) for v in per_rep) for name in names}


def _ratio(traced: float, untraced: float) -> float:
    """Traced over untraced wall; 0.0 when either side never ran."""
    return traced / untraced if traced and untraced else 0.0


def command_layers(rep) -> dict:
    """One traced repetition of the workload's commands."""
    values: dict = {}
    for command, record in rep.layers.items():
        _accumulate(values, record)
        values[f"cmd.{command}.unattributed_s"] = (
            rep.walls[command] - _self_total(record)
        )
    evaluated = rep.layers["evaluate"]["counts"].get("parse.rows", 0.0)
    values["parse.passes_per_row"] = evaluated / rep.rows
    return values


def command_walls(reps: list, traced_reps: list) -> dict:
    values = {}
    for command in {c for rep in reps for c in rep.walls}:
        untraced = median(rep.walls[command] for rep in reps)
        traced = median(rep.walls[command] for rep in traced_reps)
        values[f"cmd.{command}.wall_s"] = untraced
        values[f"cmd.{command}.trace_overhead"] = _ratio(traced, untraced)
    return values


_BUCKET = re.compile(
    r'^repro_serve_request_seconds_bucket\{(?P<labels>[^}]*)\} (?P<count>\S+)$'
)


def histogram_quantile(text: str, q: float, op: str = "act") -> float:
    """Quantile of the server's request-latency histogram (seconds).

    Interpolates linearly inside the bucket holding the quantile, as
    Prometheus' ``histogram_quantile`` does.
    """
    buckets = []
    for line in text.splitlines():
        match = _BUCKET.match(line)
        if not match or f'op="{op}"' not in match.group("labels"):
            continue
        le = re.search(r'le="([^"]+)"', match.group("labels")).group(1)
        buckets.append((float(le), float(match.group("count"))))
    buckets.sort()
    if not buckets or buckets[-1][1] == 0:
        return 0.0
    rank = q * buckets[-1][1]
    lower_bound, lower_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= rank:
            if bound == float("inf"):
                return lower_bound
            share = (rank - lower_count) / max(count - lower_count, 1e-12)
            return lower_bound + (bound - lower_bound) * share
        lower_bound, lower_count = bound, count
    return lower_bound


def serving_layers(serve) -> dict:
    """One traced repetition of the serving phase."""
    values: dict = {}
    for record in serve.layers.values():
        _accumulate(values, record)
    decides = values.pop("service.decides", 0.0)
    if decides:
        values["batcher.decisions_per_decide"] = (
            values.get("service.rows_served", 0.0) / decides
        )
    asks = values.pop("batcher.asks", 0.0)
    if asks:
        values["batcher.queue_wait_s"] = values["batcher.queue_wait_s"] / asks
    server, gate = serve.layers["serve"], serve.layers["gate"]
    values["cmd.serve.unattributed_s"] = server["cpu_s"] - _self_total(server)
    # The gate's layers come from a separate traced process over the
    # same log, so its unattributed time is against that process's wall
    # (interpreter start included), not the in-server promote round trip
    # that ``cmd.gate.wall_s`` times.
    values["cmd.gate.unattributed_s"] = serve.gate_step_s - _self_total(gate)
    values["server.request_p50_s"] = histogram_quantile(serve.metrics_text, 0.5)
    values["server.request_p99_s"] = histogram_quantile(serve.metrics_text, 0.99)
    return values


def serving_summary(serving, served: list, traced_served: list) -> dict:
    """Untraced serving numbers: ladder, burst, promote, overheads."""
    values = {}
    for command, attr in (("serve", "burst_s"), ("gate", "gate_s")):
        untraced = median(getattr(r, attr) for r in served)
        traced = median(getattr(r, attr) for r in traced_served)
        values[f"cmd.{command}.wall_s"] = untraced
        values[f"cmd.{command}.trace_overhead"] = _ratio(traced, untraced)
    values["serve.setup_s"] = median(r.setup_s for r in served)
    values["serve.burst_dps"] = median(r.burst_decisions / r.burst_s for r in served)
    values["serve.peak_rss_mb"] = median(r.rss_mb for r in served)
    ladder = [r.rungs for r in served]
    for rate in serving.rungs:
        for key in ("p99_ms", "lag_ms", "sent", "ok", "failed"):
            values[f"gen.r{rate}.{key}"] = median(r[rate][key] for r in ladder)
    reference = [rungs[REFERENCE_RPS] for rungs in ladder]
    values["serve.p50_ms"] = median(r["p50_ms"] for r in reference)
    values["serve.p99_ms"] = median(r["p99_ms"] for r in reference)
    values["serve.max_rps"] = median(
        max([rate for rate, r in rungs.items() if r["passed"]], default=0)
        for rungs in ladder
    )
    return values


# -- output ---------------------------------------------------------------------

def report(catalog: dict, workload: str, samples: dict, layers: dict,
           repetitions: dict, trace: bool, tally: Tally) -> dict:
    """Print the table for people; return the metrics object."""
    metrics = {}
    if trace:
        print(f"{workload}: per-layer metrics (traced run)")
        print(f"  layer times and counts, unattributed_s: medians of "
              f"{repetitions['traced']} traced repetition(s); cmd.*.wall_s, "
              f"serve.*, gen.*: medians of {repetitions['untraced']} "
              "untraced repetition(s)")
        for entry in catalog["per_layer"]:
            value = float(layers.get(entry["name"], 0.0))
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            print(f"  {entry['name']:<34s} {value:>16.6g} {entry['unit']}")
    else:
        print(f"{workload}: end-to-end metrics (tracing off)")
        print(f"  {'metric':<22s} {'median':>14s} {'unit':<8s} {'n':>4s}  tail")
        for entry in catalog["end_to_end"]:
            values = samples[entry["name"]]
            value = median(values)
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            pct, worst = tail(values)
            tail_text = f"p{pct:g} {worst:.6g}" if pct else f"max {max(values, default=0):.6g}"
            print(f"  {entry['name']:<22s} {value:>14.6g} {entry['unit']:<8s} "
                  f"{len(values):>4d}  {tail_text}")
    print(f"  operations: {tally.attempted} attempted, {tally.failed} failed")
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")
    return metrics


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, for the benchmark's own tests only",
    )
    return parser


def main(argv: list) -> int:
    args = build_parser().parse_args(argv)
    if not program_present():
        print(f"error: no program to benchmark under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    catalog = load_catalog()
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    serving = (
        ServingPhase(smoke=args.smoke)
        if args.trace and args.workload == AuditLB.name else None
    )
    tally = Tally()
    with Workdir(args.workload) as work:
        samples, layers, repetitions = run_workload(
            workload, serving, work, args.seed, args.seconds,
            bool(args.trace), tally,
        )
    metrics = report(catalog, args.workload, samples, layers, repetitions,
                     bool(args.trace), tally)
    correct = tally.failed == 0 and tally.attempted > 0 and all(
        samples[name] for name in samples
    )
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
