"""Document round-trips, canonical serialization, and the loader against ``json.loads``."""

import contextlib
import io
import itertools
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatrank import caps, cli, formats, linalg
from flatrank.field import GF2, _is_prime, make_binary_field, make_prime_field
from flatrank.formats import (
    badbox_from_document,
    badbox_to_document,
    canonical_json,
    configuration_from_document,
    digest_bytes,
    digest_params,
    hypergraph_from_document,
    load_document,
    set_family_from_document,
    setpair_from_document,
    tensor_from_document,
    tensor_text,
    tensor_to_document,
    tuple_family_from_document,
    write_atomic,
)
from flatrank.fw import Configuration, sample_badbox_family
from flatrank.rainbow import SetPairSystem
from flatrank.rng import Rng
from flatrank.setfam import SetFamily, TupleFamily
from flatrank.tensor import Tensor

from arena_peak import arena_peak
from oracles import hypergraph_from_vertex_lists, tensor_key


def random_tensor(dims, field, rng):
    return Tensor(tuple(dims), field, tuple(rng.next_below(field.order) for _ in range(math.prod(dims))))


def test_tensor_round_trip_dense_and_sparse():
    rng = Rng(1)
    for field in (GF2, make_prime_field(5), make_binary_field(4)):
        t = random_tensor((2, 3, 2), field, rng)
        dense = tensor_to_document(t)
        sparse = tensor_to_document(t, sparse=True)
        assert tensor_key(tensor_from_document(dense)) == tensor_key(t)
        assert tensor_key(tensor_from_document(sparse)) == tensor_key(t)
        assert canonical_json(dense) == canonical_json(tensor_to_document(tensor_from_document(dense)))


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize(
    "field",
    [GF2, make_prime_field(3), make_prime_field(251), make_prime_field((1 << 31) - 1), make_binary_field(8)],
    ids=str,
)
def test_tensor_text_is_canonical_json(field, sparse):
    # random entries up to the field order, so every decimal width occurs
    values = np.random.default_rng(field.order).integers(0, field.order, size=4 * 3 * 5)
    values[:2] = [0, field.order - 1]
    t = Tensor((4, 3, 5), field, values)
    meta = {"construction": "random", "entries": []}
    for metadata in (None, meta):
        expected = canonical_json(tensor_to_document(t, metadata=metadata, sparse=sparse))
        assert tensor_text(t, metadata, sparse) == expected
    assert tensor_text(Tensor((1,), field, [0])) == canonical_json(
        tensor_to_document(Tensor((1,), field, [0]))
    )


def test_tensor_document_errors():
    with pytest.raises(ValueError):
        tensor_from_document({"dims": [2, 2], "field": {"kind": "prime", "p": 2}})
    with pytest.raises(ValueError):
        tensor_from_document(
            {"dims": [2], "field": {"kind": "prime", "p": 2}, "entries": [0, 1, 0]}
        )
    with pytest.raises(ValueError):
        tensor_from_document(
            {"dims": [2], "field": {"kind": "prime", "p": 2}, "sparse": [[[5], 1]]}
        )
    with pytest.raises(ValueError):
        tensor_from_document(
            {"dims": [2], "field": {"kind": "prime", "p": 2}, "entries": [0, 3]}
        )
    # the indices are checked before the values
    gf2 = {"kind": "prime", "p": 2}
    with pytest.raises(ValueError, match=r"sparse index \[5\] out of range"):
        tensor_from_document({"dims": [2], "field": gf2, "sparse": [[[5], 1.0]]})
    with pytest.raises(ValueError, match="more than once"):
        tensor_from_document({"dims": [2], "field": gf2, "sparse": [[[1], True], [[1], 1]]})


def test_tuple_family_reads_masks_and_lists():
    fam = TupleFamily(n=4, d=2, members=((0b0011, 0b0101), (0b1000, 0b0001)))
    assert tuple_family_from_document({"n": 4, "d": 2, "members": [[3, 5], [8, 1]]}) == fam
    # element-list spelling of the same family
    listy = {
        "n": 4,
        "d": 2,
        "members": [[[0, 1], [0, 2]], [[3], [0]]],
    }
    assert tuple_family_from_document(listy) == fam
    with pytest.raises(ValueError):
        tuple_family_from_document({"n": 2, "members": [[1, 2], [1]]})


def test_set_family_reads_masks_and_lists():
    fam = SetFamily(n=5, members=(0b10101, 0, 0b00111))
    assert set_family_from_document({"n": 5, "members": [21, 0, 7]}) == fam
    assert set_family_from_document({"n": 3, "members": [[0, 2], 1]}).members == (0b101, 1)


def test_configuration_reads_slot_lists():
    cfg = Configuration(k=3, p=3, C=(0b011, 0b111), L=(0, 2))
    assert configuration_from_document({"k": 3, "p": 3, "L": [0, 2], "C": [[0, 1], [0, 1, 2]]}) == cfg


def test_hypergraph_reads_vertex_lists():
    h = hypergraph_from_vertex_lists(5, 2, 2, [[[0, 1], [2, 3]], [[1, 4], [2, 0]]])
    doc = {"N": 5, "r": 2, "t": 2, "colors": [[[0, 1], [2, 3]], [[1, 4], [0, 2]]]}
    assert hypergraph_from_document(doc) == h


def test_hypergraph_reads_a_huge_ground_set():
    # the reader takes one step per element of an edge, not per vertex of
    # [N]: two edges over 10^12 vertices are read and compared in a fresh
    # process well inside its timeout (a day, testing every vertex)
    import os
    import subprocess
    import sys

    code = (
        "from flatrank.formats import hypergraph_from_document\n"
        "from flatrank.rainbow import ColoredHypergraph\n"
        "h = ColoredHypergraph(num_vertices=10**12, r=3, t=1, colors=((0b111,), (1 << 40 | 1 << 39 | 8,)))\n"
        "doc = {'N': 10**12, 'r': 3, 't': 1, 'colors': [[[0, 1, 2]], [[3, 39, 40]]]}\n"
        "assert hypergraph_from_document(doc) == h\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10, env=env)
    assert proc.returncode == 0, proc.stderr


def test_setpair_reads_masks():
    s = SetPairSystem(base_size=3, sizes=(1, 2), members=((0b001, 0b110),))
    assert setpair_from_document({"base": 3, "sizes": [1, 2], "members": [[1, 6]]}) == s


def test_badbox_round_trip():
    fam = sample_badbox_family(3, 2, seed=3)
    assert badbox_from_document(badbox_to_document(fam)) == fam


def test_write_atomic_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    def refused(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(formats.os, "replace", refused)
    with pytest.raises(OSError, match="rename refused"):
        write_atomic(str(tmp_path / "out.json"), "{}\n")
    assert list(tmp_path.iterdir()) == []


def test_save_load_atomic(tmp_path):
    doc = {"b": 2, "a": [1, 2, 3]}
    path = tmp_path / "doc.json"
    write_atomic(str(path), canonical_json(doc))
    loaded, digest = load_document(str(path))
    assert loaded == doc
    raw = path.read_bytes()
    assert raw == canonical_json(doc).encode()
    assert digest == digest_bytes(raw)
    # canonical bytes are key-sorted and newline-terminated
    assert raw.startswith(b'{"a":') and raw.endswith(b"}\n")


def test_load_document_rejects_non_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1,2,3]")
    with pytest.raises(ValueError):
        load_document(str(path))


def test_digest_params_stable():
    assert digest_params({"a": 1, "b": 2}) == digest_params({"b": 2, "a": 1})
    assert digest_params({"a": 1}) != digest_params({"a": 2})


def test_canonical_json_fixed_form():
    assert canonical_json({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}\n'


def refuse_repeated_keys(pairs):
    """An object's pairs as a dict; a repeated key raises, named as for a top-level object."""
    keys = [key for key, _ in pairs]
    if repeated := [key for i, key in enumerate(keys) if key in keys[:i]]:
        raise ValueError(f"document repeats the key {repeated[0]}")
    return dict(pairs)


def json_loads_document(path):
    """``load_document`` as ``json.loads`` alone would make it, repeated keys refused: the reference loader."""
    data = Path(path).read_bytes()
    try:
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=refuse_repeated_keys)
    except RecursionError:
        raise ValueError("document nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ValueError("document root must be a JSON object")
    return doc, digest_bytes(data)


def plain(value):
    """``value`` with every ndarray as a list, for comparison with ``json.loads``.

    Sparse rows ``[i0, ..., v]`` become the pairs ``[[i0, ...], v]`` they were read from.
    """
    if isinstance(value, np.ndarray):
        if value.ndim == 2:
            return [[row[:-1], row[-1]] for row in value.tolist()]
        return value.tolist()
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def rank_outcome(path, loader):
    """(exit code, stdout, stderr) of ``flatrank rank path --max`` with ``loader`` reading documents."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "load_document", loader), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        code = cli.main(["rank", str(path), "--max"])
    return code, out.getvalue(), err.getvalue()


def assert_loads_like_json(text: str):
    """``load_document`` parses ``text`` as ``json.loads`` does, or ``rank`` rejects it alike."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = json_loads_document(path)
        except ValueError:
            expected = None
        if expected is None:
            with pytest.raises(ValueError):
                load_document(str(path))
        else:
            doc, digest = load_document(str(path))
            assert (plain(doc), digest) == expected
            assert list(doc) == list(expected[0])
        assert rank_outcome(path, load_document) == rank_outcome(path, json_loads_document)


def tensor_document_text(entries: str, size: int = 3, before: str = "", after: str = "") -> str:
    return (
        f'{{{before}"dims":[{size}],"field":{{"kind":"prime","p":2}},"entries":{entries}{after}}}'
    )


def canonical_document_text(entries: str, size: int = 3, field: str = '{"kind":"prime","p":2}') -> str:
    """A dense document with its keys in canonical order: ``"entries"`` before ``"field"``."""
    return f'{{"dims":[{size}],"entries":{entries},"field":{field}}}'


def sparse_document_text(pairs: str, dims: str = "[2,2]", before: str = "", after: str = "") -> str:
    return f'{{{before}"dims":{dims},"field":{{"kind":"prime","p":3}},"sparse":{pairs}{after}}}'


I64 = 2**63
P251, B8 = '{"kind":"prime","p":251}', '{"kind":"binary","k":8}'
LOADER_CASES = [
    tensor_document_text("[1,0,1]"),
    tensor_document_text(" [ 1 , 0 ,\n1 ] "),
    tensor_document_text("[\t1,\r\n0,1\n]"),
    tensor_document_text("[]"),
    tensor_document_text("[ ]"),
    tensor_document_text("[-0,0,1]"),
    tensor_document_text("[01,0,1]"),
    tensor_document_text("[-01,0,1]"),
    tensor_document_text("[00,0,1]"),
    tensor_document_text("[- 1,0,1]"),
    tensor_document_text("[1 0,1]"),
    tensor_document_text("[1,,0,1]"),
    tensor_document_text("[,1,0,1]"),
    tensor_document_text("[1,0,1,]"),
    tensor_document_text("[1,0,1, ]"),  # with the space dropped, a comma ends the body
    tensor_document_text("[1,0, ]"),
    tensor_document_text("[1,0,-]"),
    tensor_document_text("[1,0,--1]"),
    tensor_document_text("[1,0,1-1]"),
    tensor_document_text("[+1,0,1]"),
    tensor_document_text("[0x1,0,1]"),
    tensor_document_text("[9999,10000,0]"),  # the widest Horner token, and the narrowest wide one
    tensor_document_text("[-9999,1,10]"),
    tensor_document_text("[-10000,99999,-0]"),
    tensor_document_text("[1000,-100,10]"),
    tensor_document_text("[0010,1,2]"),
    tensor_document_text("[-0010,1,2]"),
    tensor_document_text("[12,-0,345]"),
    tensor_document_text(" [ 12 , -345 ,\n6789 ] "),
    tensor_document_text("[\t10,\r\n200,\n  3000\n]"),
    tensor_document_text("[12, 345 ,67890]"),
    tensor_document_text("[12 34,5,6]"),
    tensor_document_text("[12,- 345,6]"),
    tensor_document_text("[12,345\f,6]"),
    tensor_document_text("[12,,345]"),
    tensor_document_text("[12,345,]"),
    tensor_document_text("[12-3,45,6]"),
    tensor_document_text("[999999999999999999,-999999999999999999,0]"),
    tensor_document_text(f"[{I64 - 1},{-I64},0]"),
    tensor_document_text(f"[{I64 - 1},{-(I64 - 1)},0]"),
    tensor_document_text(f"[{I64},0,1]"),
    tensor_document_text(f"[{-I64 - 1},0,1]"),
    tensor_document_text("[12345678901234567890,0,1]"),
    tensor_document_text("[-12345678901234567890,0,1]"),
    tensor_document_text("[true,0,1]"),
    tensor_document_text("[1.0,0,1]"),
    tensor_document_text("[1e3,0,1]"),
    tensor_document_text("[1E3,0,1]"),
    tensor_document_text("[NaN,0,1]"),
    tensor_document_text("[Infinity,0,1]"),
    tensor_document_text('["]",0,1]'),
    tensor_document_text("[[1],0,1]"),
    tensor_document_text("[1,0,1]]"),
    tensor_document_text("[1,0,1"),
    tensor_document_text("[1,0,1]", after=',"entries":[0,1,1]'),
    tensor_document_text("[1,0,1]", after=',"entries":"x"'),
    tensor_document_text('"x"', after=',"entries":[0,1,1]'),
    tensor_document_text("[1,0,1]", before='"metadata":{"entries":[7,8]},'),
    tensor_document_text("[1,0,1]", before='"note":"\u00e9t\u00e9 \u2014",'),
    tensor_document_text("[1,0,1]", before='"note":"été — ünïcode",'),
    tensor_document_text("[1,0,1]", after=',"note":"é"'),
    tensor_document_text("[1,0,1]") + " x",
    tensor_document_text("[1,0,1]") + "{}",
    tensor_document_text("[1,0,1]") + "\n\t ",
    " \n" + tensor_document_text("[1,0,1]"),
    "\ufeff" + tensor_document_text("[1,0,1]"),
    tensor_document_text("[1,0,1]").replace(":", " : "),
    tensor_document_text("[1,0,1]").replace(",", " , "),
    tensor_document_text("[1,0,1]", after=","),
    tensor_document_text("[1,0,1]").replace('"dims"', "dims"),
    tensor_document_text("[1,0,1]").replace('"dims":', '"dims"'),
    tensor_document_text("[1,0,1]").replace(',"field"', ' "field"'),
    tensor_document_text("[1\f,0,1]"),
    tensor_document_text("[1,\u00a00,1]"),
    tensor_document_text("[1,0,1,1]"),
    tensor_document_text("[1,0,2]"),
    tensor_document_text("[1,0,1]").replace('"entries"', '"\\u0065ntries"'),
    tensor_document_text("[1,0,1]", before='"metadata":{"entries":[]},').replace(
        '"entries":[1', '"\\u0065ntries":[1'
    ),
    canonical_document_text("[1,0,1]"),
    canonical_document_text("[1,0,2]"),
    canonical_document_text("[-0,1,-0]"),
    canonical_document_text("[-0,-1,0]"),
    canonical_document_text("[1, 0 ,\n1]"),
    canonical_document_text("[250,-0,17]", field=P251),
    canonical_document_text("[250,251,17]", field=P251),
    canonical_document_text("[-0,123456,0]", field='{"kind":"prime","p":1000003}'),
    canonical_document_text("[-0,-123456,0]", field='{"kind":"prime","p":1000003}'),
    canonical_document_text("[1,0,1]", field="7"),
    canonical_document_text("[1,0,1]", field='{"kind":"prime","p":4}'),
    canonical_document_text("[1,0,1]", field='{"kind":"binary","k":0}'),
    canonical_document_text("[1,0,1]", field='{"kind":"prime","p":2,"k":1}'),
    '{"dims":[3],"entries":[1,0,1]}',
    '{"dims":[3],"entries":[1,0,7]}',
    # a body read after the walk: a fault the walk meets later does not hide its syntax error
    canonical_document_text("[1,,1]")[:-1] + ',"dims":[3]}',
    canonical_document_text("[1,,1]")[:-1] + ',"metadata":' + "[" * 5000 + "]" * 5000 + "}",
    canonical_document_text("[1,0,1]")[:-1] + ',"metadata":' + "[" * 5000 + "]" * 5000 + "}",
    # a value equal to the order in the second window of a multi-digit body
    canonical_document_text("[" + "250," * 9000 + "251]", 9001, P251),
    canonical_document_text("[" + "250," * 9000 + "250]", 9001, P251),
    canonical_document_text("[" + "255," * 9000 + "256]", 9001, B8),
    canonical_document_text("[" + "255," * 9000 + "255]", 9001, B8),
    # a non-ASCII key before a multi-digit body: its bytes lie past its characters
    canonical_document_text("[250,0,17]", field=P251).replace('{"dims"', '{"metadata":{"\u00e9t\u00e9":"\u2014"},"dims"'),
    canonical_document_text("[250,0,17]", field=P251).replace('{"dims"', '{"\u00e9":"\u00fc","dims"'),
    canonical_document_text("[250,\u00e9,17]", field=P251).replace('{"dims"', '{"metadata":"\u00e9","dims"'),
    "{}",
    "{ }",
    '{ } "entries"',
    "[1,0,1]",
    "",
    '{"entries":[1,0,1]}',
    sparse_document_text("[[[0,1],1],[[1,0],2]]"),
    sparse_document_text(" [ [ [0 , 1] ,1 ] ,\n[[1,0],\t2]\r\n] "),
    sparse_document_text("[[ [0,1], 1],[[1,0] ,2 ]]"),
    sparse_document_text("[[[0,1],-1]]"),
    sparse_document_text("[[[0,-1],1]]"),
    sparse_document_text("[[[-0,1],-0]]"),
    sparse_document_text("[[[01,1],1]]"),
    sparse_document_text("[[[0,1],01]]"),
    sparse_document_text("[[[0,1],-01]]"),
    sparse_document_text("[[[0,1],- 1]]"),
    sparse_document_text("[[[0,1 1],1]]"),
    sparse_document_text("[[[0,1],1 2]]"),
    sparse_document_text("[[[0,1],1-1]]"),
    sparse_document_text("[[[0,1],--1]]"),
    sparse_document_text("[[[0,1],-]]"),
    sparse_document_text("[[[0,1],999999999999999999],[[1,1],-999999999999999999]]"),
    sparse_document_text("[[[0,1],1234567890123456789]]"),
    sparse_document_text("[[[0,12345678901234567890],1]]"),
    sparse_document_text(f"[[[0,1],{I64}]]"),
    sparse_document_text("[[[0,true],1]]"),
    sparse_document_text("[[[0,1],false]]"),
    sparse_document_text("[[[0,1],null]]"),
    sparse_document_text("[[[0,1.0],1]]"),
    sparse_document_text("[[[0,1],1.0]]"),
    sparse_document_text("[[[0,1],1e0]]"),
    sparse_document_text('[[[0,1],"1"]]'),
    sparse_document_text('[[[0,1],"]]"]]'),
    sparse_document_text("[[[0],1],[[1],1]]"),
    sparse_document_text("[[[0,1,1],1]]"),
    sparse_document_text("[[[0,1],1],[[1],1]]"),
    sparse_document_text("[[[0],1],[[1,0,1],1]]"),
    sparse_document_text("[[[0,1],1],[[1,0],1,2]]"),
    sparse_document_text("[[[0,1]],[[1,0],1]]"),
    sparse_document_text("[[[0,1],[1]]]"),
    sparse_document_text("[[0,1],1]"),
    sparse_document_text("[[[0,1],1][[1,0],1]]"),
    sparse_document_text("[[[0,1] 1]]"),
    sparse_document_text("[[[0,1],1],,[[1,0],1]]"),
    sparse_document_text("[,[[0,1],1]]"),
    sparse_document_text("[[[0,1],1],]"),
    sparse_document_text("[[[,0,1],1]]"),
    sparse_document_text("[[[0,1,],1]]"),
    sparse_document_text("[[[0,1],1]"),
    sparse_document_text("[[[0,1],1]]]"),
    sparse_document_text("[]"),
    sparse_document_text("[ ]"),
    sparse_document_text("[[[]],1]"),
    sparse_document_text("[[[],1]]"),
    sparse_document_text("[[[],1]]", dims="[1]"),
    sparse_document_text("[[[0],1]]", dims="[1]"),
    sparse_document_text("[[[0,0,0],1],[[1,2,3],2]]", dims="[2,3,4]"),
    sparse_document_text("[[[0,0,0],1],[[1,2,4],2]]", dims="[2,3,4]"),
    sparse_document_text("[[[0,1],1],[[0,1],2]]"),
    sparse_document_text("[[[2,0],1]]"),
    sparse_document_text("[[[0,1],3]]"),
    sparse_document_text("[[[0,1],12]]"),
    sparse_document_text("[[[0,1],1]]", after=',"sparse":[[[1,1],2]]'),
    sparse_document_text("[[[0,1],1]]", after=',"sparse":"x"'),
    sparse_document_text('"x"', after=',"sparse":[[[1,1],2]]'),
    sparse_document_text("[[[0,1],1]]", before='"metadata":{"sparse":[[[0,0],1]]},'),
    sparse_document_text("[[[0,1],1]]", before='"metadata":{"sparse":[[[0,0],1]]]},'),
    sparse_document_text("[[[0,1],1]]", before='"note":"]]",'),
    sparse_document_text("[[[0,1],1]]", after=',"note":[[1]]'),
    sparse_document_text("[[[0,1],1]]", after=',"entries":[1,0,0,1]'),
    sparse_document_text("[[[0,1],1]]", before='"entries":[1,0,0,2],'),
    sparse_document_text("[[[0,1],1]]", before='"note":"été",'),
    sparse_document_text("[[[0,1],1]]").replace('"sparse"', '"\\u0073parse"'),
    sparse_document_text("[[[0,1],1]]") + " x",
    sparse_document_text("[[[0,1],1]]") + "]]",
    sparse_document_text("[[[0,1],1]]") + "\n",
    sparse_document_text("[[[0,1],1]]", after=","),
    '{"sparse":[[[0,1],1]]}',
    sparse_document_text("[[[n,1],1]]", dims="[100,2]"),
    sparse_document_text("[[[0,1],n]]", dims="[100,2]"),
    sparse_document_text("[[[0,1],1],[[1,0],x]]", dims="[100,2]"),
    sparse_document_text("[[[0,1],1],[[1,0],nn]]", dims="[100,2]"),
]


@pytest.mark.parametrize("text", LOADER_CASES)
def test_loader_matches_json_loads(text):
    assert_loads_like_json(text)


# bodies read in windows of 8 bytes, each cut after its last comma, and the values the reader gives or None
WINDOW_CASES = [
    ("1,22,333,4444,55555,-6,-77,-888,-9999,0,-0", [1, 22, 333, 4444, 55555, -6, -77, -888, -9999, 0, 0]),
    ("-123,4567,10000,-99999,8,9", [-123, 4567, 10000, -99999, 8, 9]),
    ("1,22,-0,333,4444,0,5", [1, 22, 0, 333, 4444, 0, 5]),  # the largest in the third window
    ("7,10000,-0,99999,0,12", [7, 10000, 0, 99999, 0, 12]),  # and in a window of a longer token
    ("1,0,7,3,5", [1, 0, 7, 3, 5]),  # one digit each: read as raw[::2] - 48, in no window
    ("1,2,3,45,6,7x,8", None),  # its only bad token in the second window, "45,6,7x,"
    ("1,2,3,45,6,07,8", None),
    ("1,2,3,45,6,7-,8", None),
    ("123,456,,7", None),  # ",," across the edge: the first window is "123,456,"
    ("123,456,", None),
    ("12345678,1", None),  # no comma in a window's bytes
]


@pytest.mark.parametrize("body,values", WINDOW_CASES)
def test_reader_windows(monkeypatch, body, values):
    monkeypatch.setattr(formats, "READ_WINDOW", 8)
    text = f"[{body}]"
    assert formats._flat_end(text, 0) == len(body) + 2
    data, span = text.encode(), slice(0, len(text))
    got = formats._int_array(data, span, {})  # no field: int64
    if values is None:
        assert got is None
    else:
        assert got.tolist() == values and got.dtype == np.int64
        # over a prime above the largest value, a body of no negative value is read in the
        # field's entry dtype; over one at most the largest, it is read again into int64
        top = max(values)
        above = next(p for p in itertools.count(top + 1) if _is_prime(p))
        below = next(p for p in range(top, 1, -1) if _is_prime(p))
        for p, canonical in ((above, min(values) >= 0), (below, False)):
            got = formats._int_array(data, span, {"field": {"kind": "prime", "p": p}})
            assert got.tolist() == values
            assert got.dtype == (linalg.entry_dtype(make_prime_field(p)) if canonical else np.int64)
    assert_loads_like_json(tensor_document_text(f"[{body}]", len(values or [0])))


def test_reader_over_a_poisoned_arena(monkeypatch, tmp_path):
    # a read takes nothing from its scratch that it did not write: over an
    # arena of 0xFF bytes, whatever window, it gives the same document
    values = np.random.default_rng(5).integers(-99999, 10**6, 5000)
    values[::7] = 0
    path = tmp_path / "doc.json"
    path.write_text(tensor_document_text("[" + ",".join(map(str, values.tolist())) + "]", values.size))
    for window in (64, 1 << 10, formats.READ_WINDOW):
        monkeypatch.setattr(formats, "READ_WINDOW", window)
        for poison in (False, True):
            if poison:
                np.frombuffer(linalg._arena.map, np.uint8).fill(0xFF)
            assert load_document(str(path))[0]["entries"].tolist() == values.tolist()


def test_three_digit_load_peak(tmp_path):
    # values 100-999 are not canonical in GF(2): the 2^20-entry body of 4 MiB is read
    # again into 8 MiB of int64, beside the bytes read; the reader's scratch is one window's
    values = np.random.default_rng(3).integers(100, 1000, 1 << 20)
    path = tmp_path / "doc.json"
    path.write_text(tensor_document_text("[" + ",".join(map(str, values.tolist())) + "]", values.size))
    (doc, _), peak = arena_peak(load_document, str(path))
    assert np.array_equal(doc["entries"], values)
    assert peak < 24 << 20


def test_three_digit_canonical_load_peak(tmp_path):
    # the same body over GF(2^10), where it is canonical, goes from the bytes straight
    # into 2 MiB of uint16 once the text is dropped: the peak is the bytes read and their text
    values = np.random.default_rng(3).integers(100, 1000, 1 << 20)
    path = tmp_path / "doc.json"
    body = "[" + ",".join(map(str, values.tolist())) + "]"
    path.write_text(canonical_document_text(body, values.size, '{"kind":"binary","k":10}'))
    (doc, _), peak = arena_peak(load_document, str(path))
    assert doc["entries"].dtype == np.uint16 and np.array_equal(doc["entries"], values)
    assert peak <= 2 * path.stat().st_size + (1 << 20)


def test_gf2_rank_peak(tmp_path, capsys):
    # an in-process rank --max of a random 2^22-cell GF(2) document of 8 MiB: the peak
    # is the bytes read and the text walked for the field; the body goes from the
    # bytes into 4 MiB of uint8 once the text is dropped, and the ranks take less
    values = np.random.default_rng(4).integers(0, 2, 1 << 22).astype(np.uint8)
    path = tmp_path / "doc.json"
    path.write_text(tensor_text(Tensor((2,) * 22, GF2, values)))
    assert cli.main(["rank", str(path), "--max"]) == 0  # the first call in a process costs more
    code, peak = arena_peak(cli.main, ["rank", str(path), "--max"])
    assert code == 0 and peak <= 2 * path.stat().st_size + (1 << 20)


@pytest.mark.parametrize("key", ["entries", "sparse"])
def test_over_cap_body_refused_before_it_is_copied(monkeypatch, tmp_path, capsys, key):
    # a body of more numbers (pairs) than MAX_ENTRIES exits 2 before any copy of
    # it or array of its size: the peak is the bytes read and the text
    monkeypatch.setattr(caps, "MAX_ENTRIES", 1000)
    if key == "entries":
        text = tensor_document_text("[" + ",".join(["1"] * (1 << 20)) + "]", 1 << 20)
    else:
        text = sparse_document_text("[" + ",".join(["[[0,1],1]"] * (1 << 18)) + "]")
    path = tmp_path / "doc.json"
    path.write_text(text)
    tracemalloc.start()
    try:
        code = cli.main(["rank", str(path), "--max"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"'{key}' array needs " in capsys.readouterr().err
    assert peak < 2 * len(text) + (1 << 20)


@pytest.mark.parametrize(
    "pairs,dims,rows",
    [
        ("[[[0,1],1],[[1,0],2]]", "[2,2]", [[0, 1, 1], [1, 0, 2]]),
        ("[[[1],2]]", "[2,2]", [[1, 2]]),
        ("[[[0,1,2],1]]", "[2,2,3]", [[0, 1, 2, 1]]),
        ("[\n  [\n    [0, 1],\n    1\n  ],\n  [[1,\t0] , 2 ]\n]", "[2,2]", [[0, 1, 1], [1, 0, 2]]),
        ("[ [ [0,9], 1] ]", "[2,12]", [[0, 9, 1]]),
    ],
)
def test_sparse_pairs_read_as_rows(tmp_path, pairs, dims, rows):
    path = tmp_path / "doc.json"
    path.write_text(sparse_document_text(pairs, dims, after=',"note":[[1]]'))
    doc = load_document(str(path))[0]
    assert isinstance(doc["sparse"], np.ndarray) and doc["sparse"].dtype == np.uint8
    assert doc["sparse"].tolist() == rows
    assert doc["note"] == [[1]]


@pytest.mark.parametrize(
    "pairs", ["[[[0,10],1]]", "[[[0,1],-1]]", "[[[0,1],-0]]", "[[[0,1],12],[[1,0],1]]"]
)
def test_sparse_pairs_of_longer_numbers_read_as_lists(tmp_path, pairs):
    # only one-digit pairs take the array path; the stdlib decoder reads the rest
    path = tmp_path / "doc.json"
    path.write_text(sparse_document_text(pairs, "[2,11]"))
    assert load_document(str(path))[0]["sparse"] == json.loads(pairs)


@pytest.mark.parametrize(
    "text",
    [
        canonical_document_text("[250,0,17]", field=P251).replace('{"dims"', '{"\u00e9":"\u2014","dims"'),
        sparse_document_text("[[[0,1],1]]", before='"note":"\u00e9t\u00e9",'),
    ],
)
def test_bodies_after_non_ascii_text_read_as_arrays(tmp_path, text):
    # the walk spans a body in characters and the reader in bytes, which differ past "é"
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode("utf-8"))
    doc = load_document(str(path))[0]
    assert isinstance(doc.get("entries", doc.get("sparse")), np.ndarray)
    assert plain(doc) == json.loads(text)


TOKENS = st.one_of(
    st.integers(0, 1).map(str),
    st.integers(-99999, 99999).map(str),
    st.integers(-(10**18) + 1, 10**18 - 1).map(str),
    st.integers(-I64 - 2, I64 + 2).map(str),
    st.integers(10**19, 10**21).map(str),
    st.sampled_from(["-0", "01", "-01", "00", "- 1", "+1", "1.0", "1e3", "-", "", "n", "x0"]),
    st.sampled_from(["true", "false", "null", "NaN", "-Infinity", '"]"', '"1"', "[1]", "{}"]),
)
SPACE = st.sampled_from(["", "", " ", "\n  ", "\t", "\r\n"])


@st.composite
def entries_texts(draw):
    tokens = draw(st.lists(TOKENS, max_size=6))
    body = draw(SPACE)
    for i, token in enumerate(tokens):
        if i:
            body += draw(st.sampled_from([",", ",", ", ", " ,", ",\n", ",,", " ", ""]))
        body += draw(SPACE) + token + draw(SPACE)
    return draw(SPACE) + "[" + body + "]" + draw(st.sampled_from(["", " ", "]", ",", " x"]))


@settings(max_examples=300, deadline=None)
@given(entries=entries_texts(), size=st.integers(1, 6))
def test_loader_matches_json_loads_property(entries, size):
    assert_loads_like_json(tensor_document_text(entries, size))


VALID_TOKENS = st.one_of(
    st.integers(0, 2).map(str),
    st.integers(0, 2).map(str),
    st.integers(-(10**18) + 1, 10**18 - 1).map(str),
    st.just("-0"),
)


@st.composite
def sparse_texts(draw):
    """(text of ``[[i0, ...], v]`` pairs, dims): a third of them with malformed tokens or separators."""
    arity = draw(st.integers(0, 3))
    fuzzed = draw(st.integers(0, 2)) == 0
    tokens = st.one_of(VALID_TOKENS, TOKENS) if fuzzed else VALID_TOKENS
    separators = [",", ", ", " ,\n"] + ([",,", " ", ""] if fuzzed else [])

    def joined(items):
        body = draw(SPACE)
        for i, item in enumerate(items):
            if i:
                body += draw(st.sampled_from(separators))
            body += draw(SPACE) + item + draw(SPACE)
        return "[" + body + "]"

    pairs = []
    for _ in range(draw(st.integers(0, 5))):
        k = arity if draw(st.integers(0, 9)) else draw(st.integers(0, 4))  # mostly one arity
        index = joined([draw(tokens) for _ in range(k)])
        pairs.append(joined([index, draw(tokens)][: draw(st.sampled_from([2, 2, 2, 2, 2, 1]))]))
    after = draw(st.sampled_from(["", "", "", " ", "]", ",", " x"]))
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    if arity and draw(st.integers(0, 3)):
        dims = draw(st.lists(st.integers(2, 3), min_size=arity, max_size=arity))
    return draw(SPACE) + joined(pairs) + after, dims


@settings(max_examples=300, deadline=None)
@given(case=sparse_texts())
def test_loader_matches_json_loads_sparse_property(case):
    pairs, dims = case
    assert_loads_like_json(sparse_document_text(pairs, json.dumps(dims)))


def sparse_tensor_by_loop(doc):
    """The sparse branch of ``tensor_from_document`` as a per-pair loop: the reference."""
    dims, size = doc["dims"], math.prod(doc["dims"])
    positions, values = [], []
    for pair in doc["sparse"]:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError("sparse pairs must be [multi-index, value]")
        idx, v = pair
        if not isinstance(idx, list) or len(idx) != len(dims):
            raise ValueError(f"sparse index {idx!r} has wrong arity")
        pos = 0
        for m, a in zip(idx, dims):
            if type(m) is not int or not 0 <= m < a:
                raise ValueError(f"sparse index {idx!r} out of range")
            pos = pos * a + m
        positions.append(pos)
        values.append(v)
    if len(set(positions)) != len(positions):
        raise ValueError("sparse entries name a multi-index more than once")
    entries = [0] * size
    for pos, v in zip(positions, values):
        entries[pos] = v
    return Tensor(tuple(dims), make_prime_field(doc["field"]["p"]), entries)


SPARSE_ODD = st.sampled_from([True, False, 1.0, "1", None, [0], -1, 1 << 70])


@st.composite
def sparse_documents(draw):
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    coordinate = st.one_of(st.integers(0, 3), SPARSE_ODD) if draw(st.booleans()) else st.integers(0, 2)
    index = st.lists(coordinate, min_size=len(dims), max_size=len(dims))
    if draw(st.integers(0, 9)) == 0:
        index = st.one_of(index, st.lists(st.integers(0, 2), max_size=4), st.integers(0, 2))
    value = st.one_of(st.integers(0, 3), SPARSE_ODD) if draw(st.booleans()) else st.integers(0, 2)
    pair = st.tuples(index, value).map(list)
    if draw(st.integers(0, 9)) == 0:
        pair = st.one_of(pair, st.lists(st.integers(0, 1), max_size=3), st.just(7))
    p = draw(st.sampled_from([2, 3]))
    return {"dims": dims, "field": {"kind": "prime", "p": p}, "sparse": draw(st.lists(pair, max_size=8))}


@settings(max_examples=400, deadline=None)
@given(doc=sparse_documents())
def test_sparse_ingest_matches_per_pair_loop(doc):
    try:
        expected = sparse_tensor_by_loop(doc)
    except ValueError:
        with pytest.raises(ValueError):
            tensor_from_document(doc)
    else:
        assert tensor_key(tensor_from_document(doc)) == tensor_key(expected)


@pytest.mark.parametrize("spec", ["prime:3", "binary:8"])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_loaded_tensor_documents_build_without_a_copy(tmp_path, monkeypatch, spec, sparse):
    # load_document's arrays are frozen; a dense body is read in the field's entry
    # dtype, which the Tensor keeps, and the sparse reader's uint8 rows fill cells in
    # that dtype: no int64 copy of the a^d entries, and no cast from the body to the ranks
    import flatrank.tensor as tensor_mod
    from flatrank.tensor import flattening_ranks, partition_construction

    field = cli._parse_field(spec)
    t = partition_construction(6, 4, field)
    path = tmp_path / "t.json"
    path.write_text(canonical_json(tensor_to_document(t, sparse=sparse)))
    doc = load_document(str(path))[0]
    array = doc["sparse" if sparse else "entries"]
    assert isinstance(array, np.ndarray) and not array.flags.writeable
    assert array.dtype == (np.uint8 if sparse else linalg.entry_dtype(field))
    copies, stacks = [], []
    convert, rank = tensor_mod.integer_array, tensor_mod.matrix_rank
    monkeypatch.setattr(tensor_mod, "integer_array", lambda *a: copies.append(a[1]) or convert(*a))
    monkeypatch.setattr(tensor_mod, "matrix_rank", lambda m, f: stacks.append(m.dtype) or rank(m, f))
    loaded = tensor_from_document(doc)
    assert tensor_key(loaded) == tensor_key(t)
    assert copies == [] and loaded.entries.dtype == linalg.entry_dtype(field)
    assert sparse or np.shares_memory(loaded.entries, array)
    assert flattening_ranks(loaded) == flattening_ranks(t) and stacks == [loaded.entries.dtype] * 2


def test_caller_arrays_in_documents_stay_writeable():
    entries = np.array([0, 1, 2, 0], dtype=np.int64)
    doc = {"dims": [2, 2], "field": {"kind": "prime", "p": 3}, "entries": entries}
    t = tensor_from_document(doc)
    assert entries.flags.writeable and not np.shares_memory(t.entries, entries)
    entries[0] = 2
    assert t.entries[0] == 0


FIXTURES = Path(__file__).resolve().parent / "fixtures"

# reader -> (a valid document, the CLI call that reads it from "{doc}")
READERS = {
    "tensor": (
        tensor_from_document,
        {"dims": [2, 2], "entries": [1, 0, 0, 2], "field": {"kind": "prime", "p": 3}},
        ["rank", "{doc}", "--max"],
    ),
    "tuple-family": (
        tuple_family_from_document,
        {"d": 2, "members": [[1, 1], [2, 2], [4, 4]], "n": 3},
        ["verify", "oddtown", "{doc}"],
    ),
    "set-family": (
        set_family_from_document,
        {"members": [1, 2, 4, 8], "n": 4},
        ["verify", "fw", "{doc}", "--config", str(FIXTURES / "fw_config.json")],
    ),
    "configuration": (
        configuration_from_document,
        {"C": [[0, 1]], "L": [0], "k": 2, "p": 2},
        ["verify", "fw", str(FIXTURES / "fw_singletons.json"), "--config", "{doc}"],
    ),
    "hypergraph": (
        hypergraph_from_document,
        {"N": 4, "colors": [[[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]]], "r": 2, "t": 2},
        ["verify", "rainbow", "{doc}"],
    ),
    "set-pair": (
        setpair_from_document,
        {"base": 2, "members": [[1, 2], [2, 1]], "sizes": [1, 1]},
        ["verify", "bollobas", "{doc}"],
    ),
    "bad-box": (
        badbox_from_document,
        {"attempts": 1, "k": 8, "members_factors": [[4, 1], [4, 7]], "s": 2, "seed": 7, "t": 3},
        ["verify", "badbox", "{doc}", "--k", "2"],
    ),
}

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.integers(-3, 70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def mutated_documents(draw, base):
    """``base`` with one field, or one item of a list field, set to an arbitrary JSON value or removed."""
    doc = json.loads(json.dumps(base))
    key = draw(st.sampled_from(sorted(doc) + ["field" if "dims" in doc else "extra"]))
    target, slot = doc, key
    if isinstance(doc.get(key), list) and doc[key] and draw(st.booleans()):
        target, slot = doc[key], draw(st.integers(0, len(doc[key]) - 1))
        if isinstance(target[slot], list) and target[slot] and draw(st.booleans()):
            target, slot = target[slot], draw(st.integers(0, len(target[slot]) - 1))
    elif isinstance(doc.get(key), dict) and draw(st.booleans()):  # inside the field object
        target, slot = doc[key], draw(st.sampled_from(sorted(doc[key]) + ["kind"]))
    if isinstance(target, dict) and draw(st.integers(0, 2)) == 0:
        target.pop(slot, None)
    else:
        target[slot] = draw(JSON_VALUES)
    return doc


@pytest.mark.parametrize("kind", sorted(READERS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_readers_return_or_refuse_arbitrary_values(kind, data):
    # every reader returns or raises ValueError, never another exception; the CLI
    # exits 2 on what the reader refuses, and never raises
    reader, base, argv = READERS[kind]
    doc = data.draw(mutated_documents(base), label="document")
    try:
        reader(doc)
        refused = False
    except ValueError:
        refused = True
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        args = [a.replace("{doc}", str(path)) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(args)
    assert code == 2 if refused else code in (0, 1, 2), (doc, code)


@pytest.mark.parametrize(
    "field", [{}, {"kind": "prime"}, {"kind": "binary"}, {"kind": "prime", "k": 3}, {"p": 3}]
)
def test_field_documents_without_their_parameter_exit_two(tmp_path, field):
    # a missing "p" or "k" was a KeyError out of field_from_document
    from flatrank.formats import field_from_document

    with pytest.raises(ValueError):
        field_from_document(field)
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"dims": [2], "entries": [1, 0], "field": field}))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["rank", str(path), "--max"]) == 2


@pytest.mark.parametrize(
    "element,message",
    [
        (0.5, "member 0: element 0.5 is not an integer"),
        ([0], "member 0: element [0] is not an integer"),
        (True, "member 0: element True is not an integer"),
        ("1", "member 0: element '1' is not an integer"),
        (4, "member 0: element 4 out of range(0, 4)"),
        (-1, "member 0: element -1 out of range(0, 4)"),
    ],
)
def test_mask_elements_name_what_is_wrong(tmp_path, element, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        set_family_from_document({"members": [[element]], "n": 4})
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"members": [[element]], "n": 4}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "fw", str(path), "--config", str(FIXTURES / "fw_config.json")])
    assert code == 2 and err.getvalue() == f"flatrank: error: {message}\n"


def strict_cases(kind):
    """(case, document text, message) of the documents of ``kind`` that break the key rules.

    Each key of the READERS document given twice; a key repeated in a nested
    object; an unknown key; and, for a tensor, both encodings and fields with
    an extra or a repeated key.
    """
    base = READERS[kind][1]
    text = lambda doc, tail="": json.dumps(doc)[:-1] + tail + "}"
    cases = [
        (f"{key}-twice", text(base, f', "{key}": {json.dumps(value)}'), f"document repeats the key {key}")
        for key, value in base.items()
    ]
    cases += [
        ("nested-twice", text(base, ', "metadata": {"runs": [{"a": 1, "a": 1}]}'), "document repeats the key metadata.runs.0.a"),
        ("unknown", text({**base, "bogus": 1}), f"{kind} document has an unknown key 'bogus'"),
    ]
    if kind == "tensor":
        cases += [
            ("both", text({**base, "sparse": [[[0, 0], 1]]}), "tensor document gives both 'entries' and 'sparse'"),
            ("field-extra", text({**base, "field": {"kind": "prime", "p": 3, "k": 9}}), "prime field document has an unknown key 'k'"),
            ("binary-field-extra", text({**base, "field": {"kind": "binary", "k": 2, "p": 2}}), "binary field document has an unknown key 'p'"),
            ("field-twice", text({**base, "field": {}}).replace("{}", '{"kind": "prime", "p": 3, "p": 2}'), "document repeats the key field.p"),
        ]
    return [(kind, *case) for case in cases]


@pytest.mark.parametrize(
    "kind,case,text,message",
    [case for kind in sorted(READERS) for case in strict_cases(kind)],
    ids=[f"{kind}-{case[1]}" for kind in sorted(READERS) for case in strict_cases(kind)],
)
def test_documents_refuse_repeated_and_unknown_keys(tmp_path, kind, case, text, message):
    # a repeated key was read as its last value, and an unknown key or a second
    # tensor encoding was ignored: each exits 2 and names the key
    reader, base, argv = READERS[kind]
    if "twice" not in case:  # json.loads keeps one value of a repeated key
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reader(json.loads(text))
    path = tmp_path / "doc.json"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([a.replace("{doc}", str(path)) for a in argv])
    assert code == 2 and err.getvalue() == f"flatrank: error: {message}\n"


# where the first mask of each mask reader's document in READERS sits
FIRST_MASK = {
    "tuple-family": ("members", 0, 0),
    "set-family": ("members", 0),
    "configuration": ("C", 0),
    "hypergraph": ("colors", 0, 0),
    "set-pair": ("members", 0, 0),
    "bad-box": ("members_factors", 0, 0),
}


@pytest.mark.parametrize("kind", sorted(FIRST_MASK))
def test_mask_lists_name_each_element_once(tmp_path, kind):
    # [0, 0] was read as the mask {0}: a repeated element is refused, exit 2
    reader, base, argv = READERS[kind]
    doc = json.loads(json.dumps(base))
    *keys, last = FIRST_MASK[kind]
    target = doc
    for key in keys:
        target = target[key]
    target[last] = [0, 0]
    with pytest.raises(ValueError, match="element 0 is listed twice$"):
        reader(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([a.replace("{doc}", str(path)) for a in argv])
    assert code == 2 and "element 0 is listed twice" in err.getvalue()
