"""Byte-identity pins for seeded CLI harvests.

Each digest was recorded from ``repro harvest`` before the sampling and
full-feedback paths were vectorized; every later optimization of the
harvest must reproduce these logs and ledger heads bit for bit. A change
that moves one of them on purpose must bump a format version and say so.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.__main__ import main

# (scenario, ledger) -> (log sha256, ledger head or None), --rows 2000 --seed 3
PINS = {
    ("machinehealth", False): (
        "59c0fec1bbc3d8f2795293dae654a024e99aa11ef220cad10750c6d2bb0dbfbf",
        None,
    ),
    ("machinehealth", True): (
        "c2891f50c80ddfca069d7050a8c397a5479f1615fb65c619814ae0f46c7acc28",
        "14dcc05587c1609adb32e333c2ff7203615b90979c822fc58cb61b0853969093",
    ),
    ("loadbalance", False): (
        "934ff1804857852068525ca9c15e2868e12fc61f6822cca521bc726104cbe5a1",
        None,
    ),
    ("loadbalance", True): (
        "d1e4702048f19a5c13c06dd5a1f0888d2155433916f45336035a1c73baf22460",
        "197dc06dfe9a074aece73e5eded14583580d96bfe933c337e00c0b7e5d1c351a",
    ),
    ("cache", False): (
        "e8e87aa66318da953c2ee99f39f613f37a075cf931c6c098bbbca0605f3785c7",
        None,
    ),
    ("cache", True): (
        "daa7122a2122fba8db5a4e4d4f455b2a2e1a42e800d7eb7dec89f979cd8acb41",
        "2d25cca4edc558d84ea3fd9e7924d664689786fbf2da7c8757f92350df850cd1",
    ),
}

# scenario -> (log sha256, ledger head) of a two-worker harvest,
# --rows 2000 --seed 3 --ledger --workers 2 --shard-size 512.
SHARDED_PINS = {
    "machinehealth": (
        "6fb69251519c2ffdd4ab4e19cbf5fd4185f0c6be6ce4d1e1840382ef203ef404",
        "167e468d4e27ba8dacddb6fbda6d788db6be87c75366dc14b4244d11c163c926",
    ),
    "loadbalance": (
        "c829b7011cd74dbfec81513b7b2e8fe01230a59267c71a2041b9ed819080f436",
        "5671b1a34428bb9024047e8319cbba9dd9e8c64fadea3222b7a106cafa056cde",
    ),
    "cache": (
        "037cfda8444ad5517134ee63a0b4134ea852f8833968c0800199f488daeca6f6",
        "17e72782e71d98361b4637333fd9695c0a8987b1c6a322e7745c708094264bdc",
    ),
}

# The perfbench classsearch-mh size: --rows 30000 --seed 5, plain.
MH_30K_SHA256 = "c64bbabf0da2b589dd3934ae8fcf597c78dd78b3f281d8cbd273ada6f54c996e"


def _harvest(tmp_path, capsys, scenario, extra):
    out = tmp_path / f"{scenario}.jsonl"
    code = main(["harvest", scenario, str(out)] + extra)
    stdout = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest(), stdout


@pytest.mark.parametrize("scenario,ledger", sorted(PINS))
def test_seeded_harvest_is_byte_identical(tmp_path, capsys, scenario, ledger):
    extra = ["--rows", "2000", "--seed", "3"] + (["--ledger"] if ledger else [])
    digest, stdout = _harvest(tmp_path, capsys, scenario, extra)
    want_digest, want_head = PINS[(scenario, ledger)]
    assert digest == want_digest
    if want_head is not None:
        assert f"head {want_head}" in stdout


@pytest.mark.parametrize("scenario", sorted(SHARDED_PINS))
def test_two_worker_harvest_is_byte_identical(tmp_path, capsys, scenario):
    extra = [
        "--rows", "2000", "--seed", "3", "--ledger", "--workers", "2",
        "--shard-size", "512",
    ]
    digest, stdout = _harvest(tmp_path, capsys, scenario, extra)
    want_digest, want_head = SHARDED_PINS[scenario]
    assert digest == want_digest
    assert f"head {want_head}" in stdout


def test_machinehealth_benchmark_size_is_byte_identical(tmp_path, capsys):
    digest, _ = _harvest(
        tmp_path, capsys, "machinehealth", ["--rows", "30000", "--seed", "5"]
    )
    assert digest == MH_30K_SHA256
