"""Every call of ``tests/replay.json`` exits with the same code and writes the same stdout bytes.

The manifest holds seeded sweeps over each sweep kernel, the exhaustive
sweeps, a seeded bad-box sample and cross-Oddtown search, both constructions
dense and sparse, every verify chain on passing and failing fixtures, ``verify
fw``/``badbox`` with their options, ranks in each field family and of a
non-cubical and a sparse document;
``tests/make_replay.py`` regenerates it.  Each random sweep also draws the
same stream words.
"""

import json
from pathlib import Path

import pytest

from make_replay import REPLAY, ROOT, replay, stream_digest

MANIFEST = json.loads(REPLAY.read_text())


@pytest.mark.parametrize("call", MANIFEST, ids=lambda call: " ".join(call["argv"]))
def test_replay_is_byte_identical(monkeypatch, call):
    monkeypatch.chdir(ROOT)
    assert replay(call["argv"]) == (call["exit"], call["sha256"])


@pytest.mark.parametrize(
    "call",
    [call for call in MANIFEST if call["argv"][1] == "random-semidiagonal"],
    ids=lambda call: " ".join(call["argv"]),
)
def test_replay_sweep_draws_the_same_stream(call):
    assert stream_digest(call["argv"]) == call["stream_sha256"]


def test_replay_covers_every_rank_fixture():
    named = {arg for call in MANIFEST for arg in call["argv"] if arg.endswith(".json")}
    fixtures = {f"tests/fixtures/replay/{p.name}" for p in (Path(ROOT) / "tests/fixtures/replay").iterdir()}
    assert fixtures <= named
