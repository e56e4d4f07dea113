"""The resource limits: one table, one admission helper, one refusal form at the CLI."""

import json
import re
from itertools import repeat
from pathlib import Path

import pytest

from flatrank import caps
from flatrank.cli import main

LIMITS = [
    "MAX_ENTRIES",
    "MAX_AXES",
    "MAX_WORKSPACE_BYTES",
    "MAX_SHIFT_ROUNDS",
    "MAX_SEARCH_NODES",
    "MAX_FREE_ENTRIES",
    "MAX_BADBOX_GROUND",
    "MAX_BINOMIAL_TOP",
    "MAX_PRIME",
    "ARENA_KEEP_BYTES",
]


def test_caps_holds_the_ten_limits():
    names = [name for name in vars(caps) if re.fullmatch(r"MAX_[A-Z_]+|ARENA_KEEP_BYTES", name)]
    assert sorted(names) == sorted(LIMITS)
    assert all(type(getattr(caps, name)) is int and getattr(caps, name) > 0 for name in LIMITS)


def test_admit_stops_at_the_cap():
    assert caps.admit((8, 8, 8), "grid") == 512
    assert caps.admit(repeat(2, 24), "grid") == 1 << 24
    assert caps.admit(repeat(1, 64), "grid") == 1
    assert caps.admit((0, 1 << 80), "grid") == 0
    with pytest.raises(ValueError, match=r"^grid needs 33554432 cells, over the cap of 16777216 cells$"):
        caps.admit(repeat(2, 25), "grid")
    # a^d for a huge d is refused after at most 64 factors, never computed
    with pytest.raises(ValueError, match=r"^grid needs at least 33554432 cells, over the cap of 16777216 cells$"):
        caps.admit(repeat(2, 10**18), "grid")
    drawn = []
    with pytest.raises(ValueError, match=r"^grid needs at least 43046721 cells,"):
        caps.admit(map(lambda f: drawn.append(f) or f, repeat(3, 10**8)), "grid")
    assert len(drawn) == 17  # 3^16 passes the cap; one more factor tells "at least" from exact
    with pytest.raises(ValueError, match=r"^grid needs at least 65 axes, over the cap of 64 axes$"):
        caps.admit(repeat(1, 10**18), "grid")
    with pytest.raises(ValueError, match=r"^grid needs 65 axes, over the cap of 64 axes$"):
        caps.admit(repeat(1, 65), "grid")
    assert caps.admit((3, 7), "rounds", 21, "rounds") == 21
    with pytest.raises(ValueError, match=r"^job needs 22 rounds, over the cap of 21 rounds$"):
        caps.admit((2, 11), "job", 21, "rounds")


def test_admit_reads_the_cap_when_it_runs(monkeypatch):
    monkeypatch.setattr(caps, "MAX_ENTRIES", 10)
    assert caps.grid_shape(3, 2) == (3, 3)
    with pytest.raises(ValueError, match=r"^grid of 4\^2 needs 16 cells, over the cap of 10 cells$"):
        caps.grid_shape(4, 2)


def _turan_badbox(tmp_path: Path) -> Path:
    """12 single-factor members in 4 parts of 3, no 5 of them pairwise odd: 175 search nodes."""
    parts, size = 4, 3
    members = [[1 | 1 << p | 1 << (parts + 1 + (p - 1) * size + i)] for p in range(1, parts + 1)
               for i in range(size)]
    doc = tmp_path / "turan.json"
    doc.write_text(json.dumps({"t": 20, "s": 1, "k": 5, "members_factors": members}))
    return doc


def _hypergraph_8193(tmp_path: Path) -> Path:
    doc = tmp_path / "wide.json"
    doc.write_text(json.dumps({"N": 3, "r": 3, "t": 2731, "colors": []}))  # r t = 8193
    return doc


# one input per cap that refuses a computed need: (argv, limit, unit, patched limit)
REFUSALS = {
    "dense cells": (["construct", "partition", "--a", 257, "--d", 3], "MAX_ENTRIES", "cells", None),
    "axes": (["experiment", "exhaustive", "--a", 1, "--d", 65], "MAX_AXES", "axes", None),
    "workspace": (
        ["experiment", "random-semidiagonal", "--a", 1000, "--d", 2, "--count", 1, "--seed", 1],
        "MAX_WORKSPACE_BYTES",
        "bytes",
        None,
    ),
    "shift rounds": (
        ["experiment", "random-semidiagonal", "--a", 2, "--d", 14, "--count", 59, "--seed", 1,
         "--field", "binary:20"],
        "MAX_SHIFT_ROUNDS",
        "rounds",
        None,
    ),
    "free entries": (["experiment", "exhaustive", "--a", 3, "--d", 4], "MAX_FREE_ENTRIES", "free entries", None),
    "bad-box ground": (
        ["experiment", "badbox-sample", "--t", 3, "--s", 10_000_000, "--seed", 1],
        "MAX_BADBOX_GROUND",
        "cells",
        None,
    ),
    "binomial top": (["verify", "rainbow", _hypergraph_8193], "MAX_BINOMIAL_TOP", "vertices", None),
    "search nodes": (["verify", "badbox", _turan_badbox], "MAX_SEARCH_NODES", "nodes", 100),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_cap_refuses_in_one_form(monkeypatch, capsys, tmp_path, case):
    argv, limit, unit, patched = REFUSALS[case]
    if patched is not None:
        monkeypatch.setattr(caps, limit, patched)
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    assert main([str(a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    form = rf"flatrank: error: .+ needs (at least )?\d+ {unit}, over the cap of {getattr(caps, limit)} {unit}\n"
    assert re.fullmatch(form, err), err


def test_readme_table_lists_every_limit():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^ *\| `(\w+)` \| .+ \| ([\d,]+) \|$", readme, re.M))
    assert {name: int(value.replace(",", "")) for name, value in rows.items()} == {
        name: getattr(caps, name) for name in LIMITS
    }
