"""Bench-registry grouping: the tape benches next to the other families.

``repro-storage bench list`` groups bench ids by family so the tape
benches are discoverable next to the figure/ablation/serve tiers. The
tape_tier sweep's result payload is digest-pinned as ``tape_tier`` in
``tests/data/pins.sha256``, checked by ``tests/test_pins.py``.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.cli import main as cli_main
from repro.experiments.harness import bench as bench_mod


def test_bench_list_groups_ids_by_family(
    capsys: "pytest.CaptureFixture[str]",
) -> None:
    assert cli_main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    headers = [line for line in lines if line and not line.startswith(" ")]
    # Families print in registry order, each id indented under its own.
    assert headers == [f"{family}:" for family in bench_mod.BENCH_FAMILIES]
    grouped: Dict[str, List[str]] = {}
    family = ""
    for line in lines:
        if not line:
            continue
        if not line.startswith(" "):
            family = line.rstrip(":")
            grouped[family] = []
        else:
            grouped[family].append(line.split()[0])
    assert "tape_tier" in grouped["tape"]
    assert "serve_sweep" in grouped["serve"]
    assert "fault_sweep" in grouped["ablations"]
    assert "headline" in grouped["figures"]
    # Grouping must not drop or duplicate ids.
    flat: List[str] = [bench_id for ids in grouped.values() for bench_id in ids]
    assert sorted(flat) == sorted(bench_mod.BENCHES)


def test_every_bench_family_is_registered() -> None:
    for definition in bench_mod.BENCHES.values():
        assert definition.family in bench_mod.BENCH_FAMILIES
