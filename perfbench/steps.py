"""Benchmark steps that drive the program through its library API.

Usage::

    python perfbench/steps.py classsearch LOG OUT.json --seed S --policies N
    python perfbench/steps.py gate LOG
    python perfbench/steps.py check-audit LOG
    python perfbench/steps.py check-class LOG SCORES.json --seed S

``classsearch`` is the §4 workload a library user runs: load the log,
search a seeded random linear policy class with IPS, keep the policy
with the lowest estimated cost.  ``gate`` runs the serving OPE gate's
evaluation over a served log.  The ``check-*`` steps are correctness
checks the benchmark runs outside its timed region; each prints one
JSON object with an ``ok`` field.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Context features the class's linear policies read (machinehealth).
FEATURES = ["age_years", "n_vms", "prior_failures"]
N_ACTIONS = 10
#: Every CHECK_STRIDE-th member of the class is re-scored by the
#: chunked backend in ``check-class``.
CHECK_STRIDE = 32
#: The repository's own equivalence tolerance between the in-memory
#: and chunked backends (tests/core/test_reduction_equivalence.py):
#: chunked folds sum in a different order, so the last bits may differ.
REL_TOL = 1e-9


def _policy_class(seed: int, n_policies: int):
    import numpy as np

    from repro.core.policies import PolicyClass

    return PolicyClass.random_linear(
        n_policies, N_ACTIONS, FEATURES, np.random.default_rng(seed)
    )


def classsearch(args) -> int:
    from repro.core import Dataset, IPSEstimator
    from repro.core.learners.cb import PolicyClassOptimizer

    dataset = Dataset.load_jsonl(args.log)
    policy_class = _policy_class(args.seed, args.policies)
    optimizer = PolicyClassOptimizer(IPSEstimator(), maximize=False)
    scored = optimizer.score_all(policy_class, dataset)
    best = min(range(len(scored)), key=lambda i: scored[i][1])
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "n": len(dataset),
                "best": scored[best][0].name,
                "scores": [value for _, value in scored],
            },
            handle,
        )
    print(f"searched {len(scored)} policies over {len(dataset)} rows: "
          f"best {scored[best][0].name} = {scored[best][1]:.6f}")
    return 0


def gate(args) -> int:
    from repro.core.policies import ConstantPolicy, UniformRandomPolicy
    from repro.serve.gate import GateConfig, evaluate_candidate

    decision = evaluate_candidate(
        args.log, "cand", ConstantPolicy(0), UniformRandomPolicy(),
        GateConfig(min_rows=1),
    )
    print(json.dumps(decision.to_dict()))
    return 0


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def check_audit(args) -> int:
    """Chunked estimates agree with the in-memory vectorized backend."""
    from repro.core import Dataset
    from repro.core.engine import evaluate_jsonl_chunked, use_backend
    from repro.core.estimators.doubly_robust import DoublyRobustEstimator
    from repro.core.estimators.ips import IPSEstimator
    from repro.core.policies import ConstantPolicy, UniformRandomPolicy

    policies = [UniformRandomPolicy(), ConstantPolicy(0)]
    estimators = [IPSEstimator(), DoublyRobustEstimator()]
    chunked = evaluate_jsonl_chunked(args.log, policies, estimators)
    dataset = Dataset.load_jsonl(args.log)
    problems = []
    values = []
    with use_backend("vectorized"):
        for policy, row in zip(policies, chunked.results):
            values.append([result.value for result in row])
            for estimator, got in zip(estimators, row):
                ref = estimator.estimate(policy, dataset)
                label = f"{policy.name} x {estimator.name}"
                if not (_close(got.value, ref.value)
                        and _close(got.std_error, ref.std_error)):
                    problems.append(f"{label}: chunked {got.value!r} "
                                    f"vs vectorized {ref.value!r}")
                if got.n != ref.n or got.n != len(dataset):
                    problems.append(f"{label}: n {got.n} vs {ref.n}")
                verdicts = [
                    r.diagnostics.verdict if r.diagnostics else None
                    for r in (got, ref)
                ]
                if verdicts[0] != verdicts[1]:
                    problems.append(f"{label}: verdicts {verdicts}")
    print(json.dumps({
        "ok": not problems, "problems": problems,
        "n": chunked.n, "values": values,
    }))
    return 0


def check_class(args) -> int:
    """A fixed subset of the searched class re-scored by the chunked engine."""
    from repro.core.engine import evaluate_jsonl_chunked
    from repro.core.estimators.ips import IPSEstimator

    with open(args.scores, encoding="utf-8") as handle:
        searched = json.load(handle)
    members = list(_policy_class(args.seed, len(searched["scores"])))
    subset = list(range(0, len(members), CHECK_STRIDE))
    chunked = evaluate_jsonl_chunked(
        args.log, [members[i] for i in subset], [IPSEstimator()]
    )
    problems = [
        f"{members[i].name}: search {searched['scores'][i]!r} vs "
        f"chunked {row[0].value!r}"
        for i, row in zip(subset, chunked.results)
        if not _close(searched["scores"][i], row[0].value)
    ]
    if chunked.n != searched["n"]:
        problems.append(f"n: search {searched['n']} vs chunked {chunked.n}")
    print(json.dumps({"ok": not problems, "problems": problems,
                      "checked": len(subset)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="steps.py")
    sub = parser.add_subparsers(dest="step", required=True)
    search = sub.add_parser("classsearch")
    search.add_argument("log")
    search.add_argument("out")
    search.add_argument("--seed", type=int, required=True)
    search.add_argument("--policies", type=int, required=True)
    search.set_defaults(run=classsearch)
    gate_parser = sub.add_parser("gate")
    gate_parser.add_argument("log")
    gate_parser.set_defaults(run=gate)
    audit = sub.add_parser("check-audit")
    audit.add_argument("log")
    audit.set_defaults(run=check_audit)
    klass = sub.add_parser("check-class")
    klass.add_argument("log")
    klass.add_argument("scores")
    klass.add_argument("--seed", type=int, required=True)
    klass.set_defaults(run=check_class)
    return parser


def main(argv: list) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
