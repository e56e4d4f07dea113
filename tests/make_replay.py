"""Regenerate ``tests/replay.json``: CLI calls and the sha256 of their stdout.

Run from the repository root::

    PYTHONPATH=src python tests/make_replay.py

It first writes the rank fixtures under ``tests/fixtures/replay/`` (seeded, so
they come out the same every time), then runs every call of :func:`calls` in
process and records its argv, its exit code and the sha256 of the bytes it
wrote to stdout.  A call must exit 0 (verified) or 1 (a hypothesis or bound
failed, with its report on stdout); any other code stops the script.  A sweep
report holds only minima, which most shapes reach on any draw, so each
``random-semidiagonal`` call also records the sha256 of the stream words it
consumes (:func:`stream_digest`).  ``tests/test_replay.py`` replays each call
against those codes and hashes.
Regenerate only for a change that is meant to change a report, and name the
call and the reason in CHANGES.md.
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

# (field, a, d, count): every sweep kernel, with counts that span at least
# three blocks of the sweep, except GF(2^20), which runs one block.  Sweep
# reports hold only minima, which the large shapes reach on any draw; the
# small GF(3) (2,3) and (2,4) and GF(2) (2,3) sweeps fall short of the
# smallest sums, so their minima change with the stream.  No bit-sliced GF(2)
# shape has such a count: every draw there reads full rank
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
    # GF(2) over every kernel: byte tables at (4,3), 16,384 tensors a block
    # (four blocks); the certificate at (5,3), (6,3) and (4,4), 13,107, 10,082
    # and 8,192 tensors a block (two, two and two), whose misses go to byte
    # tables at (5,3), 8,738 a chunk, and are bit-sliced at (6,3) and (4,4),
    # 6,464 and 4,096 a chunk, each chunk with a short last word of lanes
    ("gf2", 4, 3, 50000),
    ("gf2", 5, 3, 20000),
    ("gf2", 6, 3, 15000),
    ("gf2", 4, 4, 10000),
    ("gf2", 2, 3, 2),
]

# (a, d) of the exhaustive sweeps: (2,4) in one chunk, (3,3) in 8
EXHAUSTIVE = [(2, 4), (3, 3)]

# (file, field document, dims, seed, sparse) of the rank fixtures, one per field
# family (GF(2) uses the partition fixture); then a tensor whose axes differ, so
# its flattenings are ranked one axis at a time, and a document of sparse pairs
# of one-digit integers, read by the pair reader
RANK_FIXTURES = [
    ("replay/gf5_5x5x5.json", {"kind": "prime", "p": 5}, (5, 5, 5), 1, False),
    ("replay/gf2147483647_6x6x6.json", {"kind": "prime", "p": 2147483647}, (6, 6, 6), 2, False),
    ("replay/gf2_8_4x4x4x4.json", {"kind": "binary", "k": 8}, (4, 4, 4, 4), 3, False),
    ("replay/gf2_20_3x3x3.json", {"kind": "binary", "k": 20}, (3, 3, 3), 4, False),
    ("replay/gf3_3x4x5.json", {"kind": "prime", "p": 3}, (3, 4, 5), 5, False),
    ("replay/gf2_sparse_6x6x6.json", {"kind": "prime", "p": 2}, (6, 6, 6), 6, True),
]


def rank_fixture(field: dict, dims: tuple[int, ...], seed: int, sparse: bool) -> dict:
    """A tensor with half its entries zero and its last axis-0 slice a copy of the first.

    ``sparse`` writes its nonzero entries as ``[[i0, ..., i_{d-1}], v]`` pairs, in C order.
    """
    order = field["p"] if field["kind"] == "prime" else 1 << field["k"]
    rng = np.random.default_rng(seed)
    entries = rng.integers(0, order, dims) * (rng.random(dims) < 0.5)
    entries[-1] = entries[0]
    if sparse:
        pairs = [[idx.tolist(), int(entries[tuple(idx)])] for idx in np.argwhere(entries)]
        return {"dims": list(dims), "field": field, "sparse": pairs}
    return {"dims": list(dims), "entries": entries.reshape(-1).tolist(), "field": field}


def calls() -> list[list[str]]:
    argv = [
        ["experiment", "random-semidiagonal", "--a", str(a), "--d", str(d),
         "--count", str(count), "--seed", "11", "--field", spec]
        for spec, a, d, count in SWEEPS
    ]
    argv += [["experiment", "exhaustive", "--a", str(a), "--d", str(d)] for a, d in EXHAUSTIVE]
    argv.append(["experiment", "badbox-sample", "--t", "5", "--s", "2", "--seed", "11"])  # scalar stream
    argv.append(["experiment", "oddtown-search", "--n", "4", "--d", "3", "--budget", "60", "--seed", "11"])
    argv += [
        ["construct", "partition", "--a", "4", "--d", "3"],
        ["construct", "partition", "--a", "4", "--d", "3", "--field", "prime:5", "--sparse"],
        ["construct", "axis-constant", "--a", "3", "--d", "3", "--axis", "0", "--field", "binary:8"],
        ["construct", "axis-constant", "--a", "3", "--d", "4", "--axis", "2", "--sparse"],
        ["verify", "fw", f"{FIXTURES}/fw_singletons.json", "--config", f"{FIXTURES}/fw_config.json",
         "--distinct", "positions"],
        ["verify", "badbox", f"{FIXTURES}/badbox_family.json", "--k", "3"],
    ]
    # every verify chain on its fixtures, failing ones too; the passing rainbow
    # and bollobas calls build wedge tensors over GF(2^8) through its log tables
    argv += [
        ["verify", "oddtown", f"{FIXTURES}/oddtown_singletons.json"],
        ["verify", "oddtown", f"{FIXTURES}/oddtown_bad.json"],
        ["verify", "rainbow", f"{FIXTURES}/k4_hypergraph.json"],
        ["verify", "rainbow", f"{FIXTURES}/rainbowful.json"],
        ["verify", "bollobas", f"{FIXTURES}/bollobas_classic.json"],
        ["verify", "bollobas", f"{FIXTURES}/bollobas_bad.json"],
        ["verify", "fw", f"{FIXTURES}/fw_bad_family.json", "--config", f"{FIXTURES}/fw_config.json"],
        # k = 3 over GF(3), C the three slot pairs, L = {0}: a passing family,
        # a failing one with a witness and a member of size 3, and a passing
        # one whose repeated set is identified in the witness search but
        # keeps its own cells in the tensor
        ["verify", "fw", f"{FIXTURES}/fw_p3_family.json", "--config", f"{FIXTURES}/fw_config_p3.json"],
        ["verify", "fw", f"{FIXTURES}/fw_p3_bad_family.json", "--config", f"{FIXTURES}/fw_config_p3.json"],
        ["verify", "fw", f"{FIXTURES}/fw_p3_repeated.json", "--config", f"{FIXTURES}/fw_config_p3.json",
         "--distinct", "sets"],
        ["verify", "badbox", f"{FIXTURES}/badbox_family.json", "--k", "2"],
        # factors over [70], on two 64-bit limbs: members of one part meet in
        # two elements, of the two parts in one, so pairs are odd and triples not
        ["verify", "badbox", f"{FIXTURES}/badbox_t70.json"],
        ["verify", "badbox", f"{FIXTURES}/badbox_t70.json", "--k", "2"],
    ]
    docs = ["partition_4_3.json"] + [name for name, *_ in RANK_FIXTURES]
    for doc in docs:
        for mode in (["--max"], ["--sum"], ["--axis", "1"]):
            argv.append(["rank", f"{FIXTURES}/{doc}", *mode])
    # exhaustive (5,2): the identity alone, no free entry; (2,3): one chunk that
    # reads byte 0 of its tables only.  The rainbow chain over GF(2^20), past the
    # log tables: its products by shift and XOR
    argv += [
        ["experiment", "exhaustive", "--a", "5", "--d", "2"],
        ["experiment", "exhaustive", "--a", "2", "--d", "3"],
        ["verify", "rainbow", f"{FIXTURES}/k4_hypergraph.json", "--field-k", "20"],
    ]
    return argv


def stream_digest(argv: list[str]) -> str:
    """sha256 of the stream words a ``random-semidiagonal`` call draws its tensors from.

    They are the first words of the streams of tensors 0 .. count-1, read in
    bulk as the sweep reads them, little-endian, one tensor after another.
    """
    from flatrank.cli import _parse_field
    from flatrank.search import _semidiagonal_words, _stream_block

    opts = dict(zip(argv[2::2], argv[3::2]))
    a, d, count, seed = (int(opts[f"--{key}"]) for key in ("a", "d", "count", "seed"))
    nwords = _semidiagonal_words(a, d, _parse_field(opts["--field"]))
    words = _stream_block(seed, 0, count, nwords)
    return hashlib.sha256(words.astype("<u8", copy=False).tobytes()).hexdigest()


def replay(argv: list[str]) -> tuple[int, str]:
    """Exit code of ``flatrank`` on ``argv``, run in process from the repo root, and
    the sha256 of what it wrote to stdout; refuses a code other than 0 or 1."""
    from flatrank.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code not in (0, 1):
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> None:
    os.chdir(ROOT)
    for name, *fixture in RANK_FIXTURES:
        path = TESTS / "fixtures" / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(rank_fixture(*fixture), separators=(",", ":")) + "\n")
    manifest = []
    for argv in calls():
        code, digest = replay(argv)
        manifest.append({"argv": argv, "exit": code, "sha256": digest})
        if argv[1] == "random-semidiagonal":
            manifest[-1]["stream_sha256"] = stream_digest(argv)
    REPLAY.write_text("[\n" + ",\n".join(json.dumps(call) for call in manifest) + "\n]\n")
    print(f"wrote {len(manifest)} calls to {REPLAY.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
