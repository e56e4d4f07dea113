"""JSON document formats and deterministic report plumbing.

All artifacts are UTF-8 JSON with integer field-element representatives
(prime fields: residues; binary fields: polynomial masks).  Indices are
0-based everywhere: axes, ground-set elements, vertices, and configuration
slots.  Subsets may be written either as bit-masks (integers) or as lists of
0-based elements.

Canonical serialization (sorted keys, no whitespace, trailing newline) is the
byte format for reports, so identical inputs and seeds reproduce identical
bytes.  Timing never enters a report.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile

import numpy as np

from . import __version__
from .field import field_from_document
from .fw import BadBoxFamily, Configuration
from .rainbow import ColoredHypergraph, SetPairSystem
from .setfam import SetFamily, TupleFamily
from .tensor import MAX_ENTRIES, Tensor, integer_array

__all__ = [
    "canonical_json",
    "digest_bytes",
    "digest_params",
    "save_document",
    "load_document",
    "make_report",
    "tensor_to_document",
    "tensor_from_document",
    "tuple_family_to_document",
    "tuple_family_from_document",
    "set_family_to_document",
    "set_family_from_document",
    "configuration_to_document",
    "configuration_from_document",
    "hypergraph_to_document",
    "hypergraph_from_document",
    "setpair_to_document",
    "setpair_from_document",
    "badbox_to_document",
    "badbox_from_document",
]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_params(params: dict) -> str:
    return digest_bytes(canonical_json(params).encode())


def save_document(path: str, doc: dict) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".flatrank-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(doc))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_document(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("document root must be a JSON object")
    return doc


def make_report(command: str, inputs_digest: str, results: dict, seed: int | None = None) -> dict:
    return {
        "command": command,
        "inputs_digest": inputs_digest,
        "results": results,
        "seed": seed,
        "version": __version__,
    }


def _mask_from(value, n: int, what: str) -> int:
    """Accept an int mask or a list of 0-based elements."""
    if isinstance(value, bool):
        raise ValueError(f"{what}: booleans are not masks")
    if isinstance(value, int):
        if value < 0 or value >> n:
            raise ValueError(f"{what}: mask {value} does not fit in {n} bits")
        return value
    if isinstance(value, list):
        mask = 0
        for v in value:
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValueError(f"{what}: element {v!r} out of range(0, {n})")
            mask |= 1 << v
        return mask
    raise ValueError(f"{what}: expected mask or element list, got {type(value).__name__}")


def tensor_to_document(t: Tensor, metadata: dict | None = None, sparse: bool = False) -> dict:
    doc: dict = {"dims": list(t.dims), "field": t.field.to_document()}
    if sparse:
        flat = np.flatnonzero(t.entries)
        index = np.stack(np.unravel_index(flat, t.dims), axis=1).tolist()
        doc["sparse"] = [list(pair) for pair in zip(index, t.entries[flat].tolist())]
    else:
        doc["entries"] = t.entries.tolist()
    if metadata:
        doc["metadata"] = metadata
    return doc


def tensor_from_document(doc: dict) -> Tensor:
    """Parse a dense or sparse tensor document; non-integer values are rejected.

    A sparse document may name each multi-index once.
    """
    dims = doc.get("dims")
    if (
        not isinstance(dims, list)
        or not dims
        or any(type(a) is not int or a < 1 for a in dims)
    ):
        raise ValueError("tensor document needs a list of positive dims")
    field = field_from_document(doc.get("field", {}))
    size = math.prod(dims)
    if size > MAX_ENTRIES:
        raise ValueError(f"tensor with {size} entries exceeds the {MAX_ENTRIES} dense cap")
    if "entries" in doc:
        entries = doc["entries"]
        if not isinstance(entries, list) or len(entries) != size:
            raise ValueError(f"expected {size} dense entries")
        return Tensor(tuple(dims), field, entries)
    if "sparse" in doc:
        pairs = doc["sparse"]
        if not isinstance(pairs, list):
            raise ValueError("sparse entries must be a list of [multi-index, value] pairs")
        positions, values = [], []
        for pair in pairs:
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
        flat = np.zeros(size, dtype=np.int64)
        flat[positions] = integer_array(values, "sparse values")
        return Tensor(tuple(dims), field, flat)
    raise ValueError("tensor document needs 'entries' or 'sparse'")


def tuple_family_to_document(fam: TupleFamily) -> dict:
    return {"n": fam.n, "d": fam.d, "members": [list(tup) for tup in fam.members]}


def tuple_family_from_document(doc: dict) -> TupleFamily:
    n, d = doc.get("n"), doc.get("d")
    if not isinstance(n, int) or n < 1:
        raise ValueError("tuple-family document needs a positive n")
    members_raw = doc.get("members", [])
    if d is None:
        if not members_raw:
            raise ValueError("cannot infer d from an empty family; provide 'd'")
        d = len(members_raw[0])
    members = []
    for i, tup in enumerate(members_raw):
        if not isinstance(tup, list) or len(tup) != d:
            raise ValueError(f"member {i} is not a width-{d} tuple")
        members.append(tuple(_mask_from(slot, n, f"member {i}") for slot in tup))
    return TupleFamily(n=n, d=d, members=tuple(members))


def set_family_to_document(fam: SetFamily) -> dict:
    return {"n": fam.n, "members": list(fam.members)}


def set_family_from_document(doc: dict) -> SetFamily:
    n = doc.get("n")
    if not isinstance(n, int) or n < 1:
        raise ValueError("set-family document needs a positive n")
    members = tuple(
        _mask_from(m, n, f"member {i}") for i, m in enumerate(doc.get("members", []))
    )
    return SetFamily(n=n, members=members)


def configuration_to_document(cfg: Configuration) -> dict:
    return {
        "k": cfg.k,
        "p": cfg.p,
        "L": list(cfg.L),
        "C": [[i for i in range(cfg.k) if (x >> i) & 1] for x in cfg.C],
    }


def configuration_from_document(doc: dict) -> Configuration:
    k, p = doc.get("k"), doc.get("p")
    if not isinstance(k, int) or not isinstance(p, int):
        raise ValueError("configuration document needs integer k and p")
    c_masks = tuple(
        _mask_from(x, k, f"C[{i}]") for i, x in enumerate(doc.get("C", []))
    )
    L = doc.get("L", [])
    if not isinstance(L, list):
        raise ValueError("L must be a list of residues")
    return Configuration(k=k, p=p, C=c_masks, L=tuple(int(r) for r in L))


def hypergraph_to_document(h: ColoredHypergraph) -> dict:
    return {
        "N": h.num_vertices,
        "r": h.r,
        "t": h.t,
        "colors": [
            [[v for v in range(h.num_vertices) if (e >> v) & 1] for e in cls] for cls in h.colors
        ],
    }


def hypergraph_from_document(doc: dict) -> ColoredHypergraph:
    n, r, t = doc.get("N"), doc.get("r"), doc.get("t")
    for name, v in (("N", n), ("r", r), ("t", t)):
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"hypergraph document needs a positive integer {name}")
    colors = []
    for ci, cls in enumerate(doc.get("colors", [])):
        if not isinstance(cls, list):
            raise ValueError(f"color {ci} must be a list of edges")
        colors.append(tuple(_mask_from(e, n, f"color {ci}") for e in cls))
    return ColoredHypergraph(num_vertices=n, r=r, t=t, colors=tuple(colors))


def setpair_to_document(s: SetPairSystem) -> dict:
    return {
        "base": s.base_size,
        "sizes": list(s.sizes),
        "members": [list(tup) for tup in s.members],
    }


def setpair_from_document(doc: dict) -> SetPairSystem:
    base = doc.get("base")
    sizes = doc.get("sizes")
    if not isinstance(base, int) or base < 1:
        raise ValueError("set-pair document needs a positive base size")
    if not isinstance(sizes, list) or not sizes:
        raise ValueError("set-pair document needs slot sizes")
    members = []
    for i, tup in enumerate(doc.get("members", [])):
        if not isinstance(tup, list) or len(tup) != len(sizes):
            raise ValueError(f"member {i} has the wrong arity")
        members.append(tuple(_mask_from(slot, base, f"member {i}") for slot in tup))
    return SetPairSystem(base_size=base, sizes=tuple(int(x) for x in sizes), members=tuple(members))


def badbox_to_document(fam: BadBoxFamily) -> dict:
    return {
        "t": fam.t,
        "s": fam.s,
        "k": fam.k,
        "members_factors": [list(f) for f in fam.members_factors],
        "attempts": fam.attempts,
        "seed": fam.seed,
    }


def badbox_from_document(doc: dict) -> BadBoxFamily:
    t, s, k = doc.get("t"), doc.get("s"), doc.get("k")
    for name, v in (("t", t), ("s", s), ("k", k)):
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"bad-box document needs a positive integer {name}")
    members = []
    for i, factors in enumerate(doc.get("members_factors", [])):
        if not isinstance(factors, list) or len(factors) != s:
            raise ValueError(f"member {i} needs {s} factors")
        members.append(tuple(_mask_from(f, t, f"member {i}") for f in factors))
    return BadBoxFamily(
        t=t,
        s=s,
        k=k,
        members_factors=tuple(members),
        attempts=int(doc.get("attempts", 0)),
        seed=int(doc.get("seed", 0)),
    )
