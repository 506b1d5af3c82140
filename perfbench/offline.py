"""The offline workloads: a pipeline of commands on one harvested log.

``audit-lb``: ``harvest loadbalance --ledger --manifest`` →
``verify-ledger --manifest`` → ``evaluate --backend chunked`` (uniform
and constant:0, IPS + DR, seeded bootstrap).  ``classsearch-mh``: plain
``harvest machinehealth`` → load the log and search a 256-member
random linear policy class with IPS (``steps.py classsearch``).

Each repetition harvests a fresh log from ``seed * 1000 + rep`` and
runs every command as its own process, the way a user runs them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from common import (
    ROOT,
    Completed,
    Tally,
    repro_argv,
    run,
    step_argv,
    traced_argv,
)

CLI, STEP = "cli", "step"

_EVAL_LOG = re.compile(r"^log: .* \((\d+) interactions")
_TABLE_ROW = re.compile(r"^(\S+)\s+(-?\d+\.\d{4}) ±\S+\s+(-?\d+\.\d{4}) ±")


@dataclass
class Rep:
    """One repetition's measurements."""

    rows: int
    walls: dict = field(default_factory=dict)
    rss_mb: float = 0.0
    #: command name -> layer record from traced.py (traced reps only).
    layers: dict = field(default_factory=dict)


class OfflineWorkload:
    """A fixed pipeline of commands, repeated on fresh logs."""

    name = ""
    rows = 0

    def __init__(self, smoke: bool) -> None:
        if smoke:
            self.rows = max(500, self.rows // 80)

    def steps(self, work, seed: int) -> list:
        """``[(command name, CLI or STEP, args), ...]`` for one rep.

        The ``harvest`` command's rows/s is ``harvest_rows_per_s`` and
        the ``evaluate`` command's is ``evaluate_rows_per_s``.
        """
        raise NotImplementedError

    def check(self, name: str, done: Completed, work, seed: int,
              tally: Tally, first: bool) -> None:
        """Correctness checks on one finished command."""

    def rep(self, work, seed: int, traced: bool, tally: Tally,
            first: bool) -> Rep | None:
        result = Rep(rows=self.rows)
        for name, kind, args in self.steps(work, seed):
            prefix = ["step"] if kind == STEP else []
            if traced:
                out = work / f"{name}.layers.json"
                argv = traced_argv(out, *prefix, *args)
            else:
                argv = repro_argv(*args) if kind == CLI else step_argv(*args)
            done = run(argv, ROOT)
            if not tally.command(done, f"{self.name} {name}"):
                return None
            result.walls[name] = done.wall_s
            result.rss_mb = max(result.rss_mb, done.rss_mb)
            if traced:
                with open(out, encoding="utf-8") as handle:
                    result.layers[name] = json.load(handle)
            self.check(name, done, work, seed, tally, first)
        return result


class AuditLB(OfflineWorkload):
    name = "audit-lb"
    rows = 40_000
    bootstrap = 500

    def steps(self, work, seed: int) -> list:
        log, manifest = str(work / "lb.jsonl"), str(work / "lb.manifest.json")
        return [
            ("harvest", CLI, [
                "harvest", "loadbalance", log, "--rows", str(self.rows),
                "--ledger", "--manifest", manifest, "--seed", str(seed),
                "--workers", "1",
            ]),
            ("verify", CLI, ["verify-ledger", log, "--manifest", manifest]),
            ("evaluate", CLI, [
                "evaluate", log, "--backend", "chunked", "--workers", "1",
                "--policy", "uniform", "--policy", "constant:0",
                "--estimator", "ips", "--estimator", "dr",
                "--bootstrap", str(self.bootstrap), "--seed", str(seed),
            ]),
        ]

    def check(self, name, done, work, seed, tally, first) -> None:
        if name == "verify":
            tally.check(
                f"{self.rows}/{self.rows} record(s) chained" in done.stdout,
                f"verify-ledger did not chain all {self.rows} rows",
            )
        if name != "evaluate":
            return
        ns = [int(m.group(1)) for m in map(_EVAL_LOG.match,
                                           done.stdout.splitlines()) if m]
        tally.check(ns == [self.rows],
                    f"evaluate n {ns} != {self.rows} harvested")
        if not first:
            return
        # Once per run, outside the timed commands: the chunked
        # estimates agree with the in-memory vectorized backend, and the
        # CLI printed exactly what the engine computed.
        checked = run(step_argv("check-audit", str(work / "lb.jsonl")), ROOT)
        if not tally.command(checked, "check-audit"):
            return
        report = json.loads(checked.stdout.strip().splitlines()[-1])
        tally.check(report["ok"], f"check-audit: {report['problems']}")
        tally.check(report["n"] == self.rows,
                    f"check-audit n {report['n']} != {self.rows}")
        printed = [
            [m.group(2), m.group(3)]
            for m in map(_TABLE_ROW.match, done.stdout.splitlines()) if m
        ]
        expected = [[f"{v:.4f}" for v in row] for row in report["values"]]
        tally.check(printed == expected,
                    f"evaluate printed {printed}, engine gives {expected}")


class ClassSearchMH(OfflineWorkload):
    name = "classsearch-mh"
    rows = 30_000
    policies = 256

    def steps(self, work, seed: int) -> list:
        log = str(work / "mh.jsonl")
        return [
            ("harvest", CLI, [
                "harvest", "machinehealth", log, "--rows", str(self.rows),
                "--seed", str(seed),
            ]),
            ("evaluate", STEP, [
                "classsearch", log, str(work / "scores.json"),
                "--seed", str(seed), "--policies", str(self.policies),
            ]),
        ]

    def check(self, name, done, work, seed, tally, first) -> None:
        if name == "harvest":
            tally.check(f"harvested {self.rows} rows" in done.stdout,
                        f"harvest did not report {self.rows} rows")
            return
        with open(work / "scores.json", encoding="utf-8") as handle:
            searched = json.load(handle)
        tally.check(searched["n"] == self.rows,
                    f"class search n {searched['n']} != {self.rows}")
        tally.check(len(searched["scores"]) == self.policies,
                    f"{len(searched['scores'])} scores for {self.policies}")
        if not first:
            return
        checked = run(step_argv(
            "check-class", str(work / "mh.jsonl"), str(work / "scores.json"),
            "--seed", str(seed),
        ), ROOT)
        if tally.command(checked, "check-class"):
            report = json.loads(checked.stdout.strip().splitlines()[-1])
            tally.check(report["ok"], f"check-class: {report['problems']}")
