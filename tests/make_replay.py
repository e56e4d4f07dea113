"""Regenerate ``tests/replay.json``: CLI calls and the sha256 of their stdout.

Run from the repository root::

    PYTHONPATH=src python tests/make_replay.py

It first writes the rank fixtures under ``tests/fixtures/replay/`` (seeded, so
they come out the same every time), then runs every call of :data:`CALLS` in
process with ``FLATRANK_THREADS`` 1 and records its argv and the sha256 of
the bytes it wrote to stdout.  ``tests/test_replay.py`` replays each call at
1 and 2 threads against those hashes.  Regenerate only for a change that is
meant to change a report, and name the call and the reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
REPLAY = TESTS / "replay.json"
FIXTURES = "tests/fixtures"

# (field, a, d, count): every larger-field kernel, with counts that span at
# least three blocks of the sweep, except the scalar GF(2^20) path, which
# ranks too slowly for that and runs one block.  Sweep reports hold only
# minima, which the large shapes reach on any draw; the two small GF(3)
# shapes last fall short of the smallest sums, so their minima change with
# the stream
SWEEPS = [
    ("prime:3", 2, 10, 700),
    ("prime:5", 2, 9, 1400),
    ("prime:251", 2, 10, 520),
    ("prime:2147483647", 7, 3, 1403),  # uint64 elimination, reduced every fourth step
    ("binary:2", 2, 10, 370),
    ("binary:8", 2, 9, 790),
    ("binary:16", 2, 11, 140),
    ("binary:20", 3, 3, 40),
    ("prime:3", 2, 3, 30),
    ("prime:3", 2, 4, 40),
]

# (file, field document, dims, seed) of the rank fixtures, one per field family;
# GF(2) uses the partition fixture
RANK_FIXTURES = [
    ("replay/gf5_5x5x5.json", {"kind": "prime", "p": 5}, (5, 5, 5), 1),
    ("replay/gf2147483647_6x6x6.json", {"kind": "prime", "p": 2147483647}, (6, 6, 6), 2),
    ("replay/gf2_8_4x4x4x4.json", {"kind": "binary", "k": 8}, (4, 4, 4, 4), 3),
    ("replay/gf2_20_3x3x3.json", {"kind": "binary", "k": 20}, (3, 3, 3), 4),
]


def rank_fixture(field: dict, dims: tuple[int, ...], seed: int) -> dict:
    """A dense tensor with half its entries zero and its last axis-0 slice a copy of the first."""
    order = field["p"] if field["kind"] == "prime" else 1 << field["k"]
    rng = np.random.default_rng(seed)
    entries = rng.integers(0, order, dims) * (rng.random(dims) < 0.5)
    entries[-1] = entries[0]
    return {"dims": list(dims), "entries": entries.reshape(-1).tolist(), "field": field}


def calls() -> list[list[str]]:
    argv = [
        ["experiment", "random-semidiagonal", "--a", str(a), "--d", str(d),
         "--count", str(count), "--seed", "11", "--field", spec]
        for spec, a, d, count in SWEEPS
    ]
    argv.append(["experiment", "badbox-sample", "--t", "5", "--s", "2", "--seed", "11"])  # scalar stream
    docs = ["partition_4_3.json"] + [name for name, *_ in RANK_FIXTURES]
    for doc in docs:
        for mode in (["--max"], ["--sum"], ["--axis", "1"]):
            argv.append(["rank", f"{FIXTURES}/{doc}", *mode])
    return argv


def stdout_sha256(argv: list[str]) -> str:
    """sha256 of what ``flatrank`` writes to stdout for ``argv``, run in process from the repo root."""
    from flatrank.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> None:
    os.chdir(ROOT)
    os.environ["FLATRANK_THREADS"] = "1"
    for name, field, dims, seed in RANK_FIXTURES:
        path = TESTS / "fixtures" / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(rank_fixture(field, dims, seed), separators=(",", ":")) + "\n")
    manifest = [{"argv": argv, "sha256": stdout_sha256(argv)} for argv in calls()]
    REPLAY.write_text("[\n" + ",\n".join(json.dumps(call) for call in manifest) + "\n]\n")
    print(f"wrote {len(manifest)} calls to {REPLAY.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
