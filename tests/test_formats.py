"""Document round-trips and canonical serialization."""

import math

import pytest

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
    tensor_to_document,
    tuple_family_from_document,
    tuple_family_to_document,
    write_atomic,
)
from flatrank.fw import Configuration, sample_badbox_family
from flatrank.rainbow import SetPairSystem, hypergraph_from_vertex_lists
from flatrank.rng import Rng
from flatrank.setfam import SetFamily, TupleFamily
from flatrank.tensor import Tensor


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
