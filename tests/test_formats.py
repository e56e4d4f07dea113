"""Document round-trips, canonical serialization, and the loader against ``json.loads``."""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatrank import cli
from flatrank.field import GF2, make_binary_field, make_prime_field
from flatrank.formats import (
    badbox_from_document,
    badbox_to_document,
    canonical_json,
    configuration_from_document,
    configuration_to_document,
    digest_bytes,
    digest_params,
    hypergraph_from_document,
    hypergraph_to_document,
    load_document,
    set_family_from_document,
    set_family_to_document,
    setpair_from_document,
    setpair_to_document,
    tensor_from_document,
    tensor_text,
    tensor_to_document,
    tuple_family_from_document,
    tuple_family_to_document,
    write_atomic,
)
from flatrank.fw import Configuration, sample_badbox_family
from flatrank.rainbow import SetPairSystem
from flatrank.rng import Rng
from flatrank.setfam import SetFamily, TupleFamily
from flatrank.tensor import Tensor

from oracles import hypergraph_from_vertex_lists


def random_tensor(dims, field, rng):
    return Tensor(tuple(dims), field, tuple(rng.next_below(field.order) for _ in range(math.prod(dims))))


def test_tensor_round_trip_dense_and_sparse():
    rng = Rng(1)
    for field in (GF2, make_prime_field(5), make_binary_field(4)):
        t = random_tensor((2, 3, 2), field, rng)
        dense = tensor_to_document(t)
        sparse = tensor_to_document(t, sparse=True)
        assert tensor_from_document(dense) == t
        assert tensor_from_document(sparse) == t
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


def test_tuple_family_round_trip_and_lists():
    fam = TupleFamily(n=4, d=2, members=((0b0011, 0b0101), (0b1000, 0b0001)))
    doc = tuple_family_to_document(fam)
    assert tuple_family_from_document(doc) == fam
    # element-list spelling of the same family
    listy = {
        "n": 4,
        "d": 2,
        "members": [[[0, 1], [0, 2]], [[3], [0]]],
    }
    assert tuple_family_from_document(listy) == fam
    with pytest.raises(ValueError):
        tuple_family_from_document({"n": 2, "members": [[1, 2], [1]]})


def test_set_family_round_trip():
    fam = SetFamily(n=5, members=(0b10101, 0, 0b00111))
    assert set_family_from_document(set_family_to_document(fam)) == fam
    assert set_family_from_document({"n": 3, "members": [[0, 2], 1]}).members == (0b101, 1)


def test_configuration_round_trip():
    cfg = Configuration(k=3, p=3, C=(0b011, 0b111), L=(0, 2))
    doc = configuration_to_document(cfg)
    assert doc["C"] == [[0, 1], [0, 1, 2]]
    assert configuration_from_document(doc) == cfg


def test_hypergraph_round_trip():
    h = hypergraph_from_vertex_lists(5, 2, 2, [[[0, 1], [2, 3]], [[1, 4], [2, 0]]])
    doc = hypergraph_to_document(h)
    assert hypergraph_from_document(doc) == h


def test_setpair_round_trip():
    s = SetPairSystem(base_size=3, sizes=(1, 2), members=((0b001, 0b110),))
    assert setpair_from_document(setpair_to_document(s)) == s


def test_badbox_round_trip():
    fam = sample_badbox_family(3, 2, seed=3)
    assert badbox_from_document(badbox_to_document(fam)) == fam


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


def sparse_document_text(pairs: str, dims: str = "[2,2]", before: str = "", after: str = "") -> str:
    return f'{{{before}"dims":{dims},"field":{{"kind":"prime","p":3}},"sparse":{pairs}{after}}}'


I64 = 2**63
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
    tensor_document_text("[1,0,1, ]"),  # np.fromstring reads a fourth value, 0
    tensor_document_text("[1,0, ]"),
    tensor_document_text("[1,0,-]"),
    tensor_document_text("[1,0,--1]"),
    tensor_document_text("[1,0,1-1]"),
    tensor_document_text("[+1,0,1]"),
    tensor_document_text("[0x1,0,1]"),
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
    assert isinstance(doc["sparse"], np.ndarray) and doc["sparse"].dtype == np.int64
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


TOKENS = st.one_of(
    st.integers(0, 1).map(str),
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
        assert tensor_from_document(doc) == expected


@pytest.mark.parametrize("spec", ["prime:3", "binary:8"])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_loaded_tensor_documents_build_without_a_copy(tmp_path, monkeypatch, spec, sparse):
    # the arrays load_document and tensor_from_document build are frozen and kept:
    # no second int64 copy of the a^d entries
    import flatrank.tensor as tensor_mod
    from flatrank.tensor import partition_construction

    field = cli._parse_field(spec)
    t = partition_construction(6, 4, field)
    path = tmp_path / "t.json"
    path.write_text(canonical_json(tensor_to_document(t, sparse=sparse)))
    doc = load_document(str(path))[0]
    array = doc["sparse" if sparse else "entries"]
    assert isinstance(array, np.ndarray) and not array.flags.writeable
    copies = []
    convert = tensor_mod.integer_array
    monkeypatch.setattr(tensor_mod, "integer_array", lambda *a: copies.append(a[1]) or convert(*a))
    assert tensor_from_document(doc) == t
    assert copies == []
    if not sparse:
        assert np.shares_memory(tensor_from_document(doc).entries, array)


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
