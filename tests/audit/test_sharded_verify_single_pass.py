"""``verify-ledger --manifest`` walks the log once, in O(shards) memory.

:func:`repro.audit.shards.verify_sharded_records` checks each record's
binding once and feeds the result to the overall walk and to the walk
of the record's shard.  The oracle below is the materializing
implementation it replaced — the whole record list in memory, one
:func:`~repro.audit.ledger.verify_records` walk overall and one per
routed shard group — and every report and summary must match it byte
for byte on a corpus of clean and damaged logs.
"""

from __future__ import annotations

import json
import weakref

import pytest

from repro.__main__ import main
from repro.audit.ledger import GENESIS, ChainFollower, _jsonl_records, verify_records
from repro.audit.shards import (
    ShardedVerification,
    _splice_geometry_issues,
    verify_sharded_jsonl,
    verify_sharded_records,
)


def reference_verify_sharded_records(
    records, shards, expected_head=None, expected_n=None, genesis=GENESIS
):
    """The two-walk implementation: materialize, walk, route, walk again."""
    records = list(records)
    ordered = sorted(shards, key=lambda shard: int(shard["start"]))
    overall = verify_records(
        iter(records),
        expected_head=expected_head,
        genesis=genesis,
        expected_n=expected_n,
    )
    splice_issues = _splice_geometry_issues(ordered, genesis, expected_head)
    grouped = {position: [] for position in range(len(ordered))}
    starts = [int(shard["start"]) for shard in ordered]
    stops = [int(shard["start"]) + int(shard["n"]) for shard in ordered]
    for line_number, record in records:
        meta = ChainFollower.metadata_of(record)
        if meta is None or "ordinal" not in meta:
            continue
        try:
            ordinal = int(meta["ordinal"])
        except (TypeError, ValueError):
            continue
        for position, (start, stop) in enumerate(zip(starts, stops)):
            if start <= ordinal < stop:
                grouped[position].append((line_number, record))
                break
        else:
            splice_issues.append(
                f"line {line_number}: ledgered ordinal {ordinal} falls "
                f"outside every manifest shard"
            )
    result = ShardedVerification(overall=overall, splice_issues=splice_issues)
    for position, shard in enumerate(ordered):
        result.shards.append(
            {
                "index": int(shard.get("index", position)),
                "start": int(shard["start"]),
                "n": int(shard["n"]),
                "prev": str(shard["prev"]),
                "head": str(shard["head"]),
                "verification": verify_records(
                    iter(grouped[position]),
                    expected_head=str(shard["head"]),
                    genesis=str(shard["prev"]),
                    expected_n=int(shard["n"]),
                ),
            }
        )
    return result


@pytest.fixture(scope="module")
def harvested(tmp_path_factory):
    """A 600-row ledgered loadbalance log in five shards, plus its manifest."""
    root = tmp_path_factory.mktemp("sharded")
    log = root / "clean.jsonl"
    manifest = root / "manifest.json"
    code = main(
        [
            "harvest", "loadbalance", str(log), "--rows", "600", "--seed", "2",
            "--ledger", "--shard-size", "128", "--manifest", str(manifest),
        ]
    )
    assert code == 0
    ledger = json.loads(manifest.read_text())["ledger"]
    assert len(ledger["shards"]) == 5
    return log.read_text().splitlines(), ledger


def _edit_meta(line, **changes):
    record = json.loads(line)
    record["metadata"]["ledger"].update(changes)
    return json.dumps(record)


def _tamper_propensity(lines):
    record = json.loads(lines[200])
    record["propensity"] = record["propensity"] * 0.5
    lines[200] = json.dumps(record)
    return lines


def _tamper_context(lines):
    record = json.loads(lines[333])
    key = sorted(record["context"])[0]
    record["context"][key] = record["context"][key] + 1.0
    lines[333] = json.dumps(record)
    return lines


def _swap_two(lines):
    lines[140], lines[141] = lines[141], lines[140]
    return lines


def _strip_metadata(lines):
    record = json.loads(lines[450])
    del record["metadata"]
    lines[450] = json.dumps(record)
    return lines


def _garbage(lines):
    lines[70] = "{not json at all"
    return lines


def _foreign_ordinal(lines):
    lines[500] = _edit_meta(lines[500], ordinal=10_000)
    return lines


CORPUS = {
    "clean": lambda lines: lines,
    "tampered-propensity": _tamper_propensity,
    "tampered-context": _tamper_context,
    "ten-deleted": lambda lines: lines[:300] + lines[310:],
    "two-swapped": _swap_two,
    "garbage-line": _garbage,
    "missing-metadata": _strip_metadata,
    "ordinal-outside-plan": _foreign_ordinal,
    "front-truncated": lambda lines: lines[40:],
    "tail-truncated": lambda lines: lines[:-25],
}


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_single_pass_matches_two_walk_reference(harvested, tmp_path, case):
    lines, ledger = harvested
    path = tmp_path / f"{case}.jsonl"
    path.write_text("\n".join(CORPUS[case](list(lines))) + "\n")
    kwargs = dict(expected_head=ledger["head"], expected_n=ledger["n"])
    got = verify_sharded_jsonl(str(path), ledger["shards"], **kwargs)
    want = reference_verify_sharded_records(
        _jsonl_records(str(path)), ledger["shards"], **kwargs
    )
    assert json.dumps(got.report()) == json.dumps(want.report())
    assert got.summary_text() == want.summary_text()
    assert got.ok is (case == "clean")


MALFORMED_MAPS = {
    "overlapping": {1: {"n": 200}},  # shard 1 reaches into shard 2
    "nested": {0: {"n": 600}, 3: {"n": 20}},  # one shard holds them all
    "empty-and-gap": {2: {"n": 0}, 4: {"start": 560}},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MAPS))
def test_malformed_shard_map_routes_like_the_reference(harvested, tmp_path, case):
    """Records go to the first shard, in start order, that holds them."""
    lines, ledger = harvested
    shards = [dict(shard) for shard in ledger["shards"]]
    for position, changes in MALFORMED_MAPS[case].items():
        shards[position].update(changes)
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(lines) + "\n")
    got = verify_sharded_jsonl(str(path), shards, expected_head=ledger["head"])
    want = reference_verify_sharded_records(
        _jsonl_records(str(path)), shards, expected_head=ledger["head"]
    )
    assert json.dumps(got.report()) == json.dumps(want.report())
    assert got.summary_text() == want.summary_text()


class _Record(dict):
    """A dict that can be weakly referenced, to watch its lifetime."""


def test_records_are_not_retained(harvested):
    """Each record is released once walked: memory is O(shards), not O(log)."""
    lines, ledger = harvested
    alive = []
    peak = 0

    def records():
        nonlocal peak
        for number, line in enumerate(lines, start=1):
            record = _Record(json.loads(line))
            alive.append(weakref.ref(record))
            peak = max(peak, sum(ref() is not None for ref in alive[-50:]))
            yield number, record

    result = verify_sharded_records(
        records(), ledger["shards"], expected_head=ledger["head"],
        expected_n=ledger["n"],
    )
    assert result.ok
    assert peak <= 2
