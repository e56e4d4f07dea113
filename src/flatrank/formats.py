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
    "write_atomic",
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


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".flatrank-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_document(path: str) -> tuple[dict, str]:
    """The JSON object in ``path`` and the SHA-256 digest of the bytes parsed."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except RecursionError:
        raise ValueError("document nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ValueError("document root must be a JSON object")
    return doc, digest_bytes(data)


def make_report(command: str, inputs_digest: str, results: dict, seed: int | None = None) -> dict:
    return {
        "command": command,
        "inputs_digest": inputs_digest,
        "results": results,
        "seed": seed,
        "version": __version__,
    }


def _json_int(value, what: str, minimum: int | None = None) -> int:
    """``value`` if it is a JSON integer (never a boolean) of at least ``minimum``."""
    if type(value) is not int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{what} must be an integer{bound}, got {value!r}")
    return value


def _json_list(value, what: str) -> list:
    """``value`` if it is a JSON array."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


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
            if type(v) is not int or not 0 <= v < n:
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
    n = _json_int(doc.get("n"), "tuple-family n", 1)
    d = doc.get("d")
    members_raw = _json_list(doc.get("members", []), "tuple-family members")
    if d is None:
        if not members_raw:
            raise ValueError("cannot infer d from an empty family; provide 'd'")
        d = len(members_raw[0])
    d = _json_int(d, "tuple-family d", 2)
    members = []
    for i, tup in enumerate(members_raw):
        if not isinstance(tup, list) or len(tup) != d:
            raise ValueError(f"member {i} is not a width-{d} tuple")
        members.append(tuple(_mask_from(slot, n, f"member {i}") for slot in tup))
    return TupleFamily(n=n, d=d, members=tuple(members))


def set_family_to_document(fam: SetFamily) -> dict:
    return {"n": fam.n, "members": list(fam.members)}


def set_family_from_document(doc: dict) -> SetFamily:
    n = _json_int(doc.get("n"), "set-family n", 1)
    members = tuple(
        _mask_from(m, n, f"member {i}")
        for i, m in enumerate(_json_list(doc.get("members", []), "set-family members"))
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
    k = _json_int(doc.get("k"), "configuration k")
    p = _json_int(doc.get("p"), "configuration p")
    c_masks = tuple(
        _mask_from(x, k, f"C[{i}]")
        for i, x in enumerate(_json_list(doc.get("C", []), "configuration C"))
    )
    L = doc.get("L", [])
    if not isinstance(L, list):
        raise ValueError("L must be a list of residues")
    return Configuration(k=k, p=p, C=c_masks, L=tuple(_json_int(r, "residue in L") for r in L))


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
    n, r, t = (_json_int(doc.get(name), f"hypergraph {name}", 1) for name in ("N", "r", "t"))
    colors = []
    for ci, cls in enumerate(_json_list(doc.get("colors", []), "hypergraph colors")):
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
    base = _json_int(doc.get("base"), "set-pair base size", 1)
    sizes = doc.get("sizes")
    if not isinstance(sizes, list) or not sizes:
        raise ValueError("set-pair document needs slot sizes")
    sizes = tuple(_json_int(x, "set-pair slot size", 1) for x in sizes)
    members = []
    for i, tup in enumerate(_json_list(doc.get("members", []), "set-pair members")):
        if not isinstance(tup, list) or len(tup) != len(sizes):
            raise ValueError(f"member {i} has the wrong arity")
        members.append(tuple(_mask_from(slot, base, f"member {i}") for slot in tup))
    return SetPairSystem(base_size=base, sizes=sizes, members=tuple(members))


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
    t, s, k = (_json_int(doc.get(name), f"bad-box {name}", 1) for name in ("t", "s", "k"))
    members = []
    factors_raw = _json_list(doc.get("members_factors", []), "bad-box members_factors")
    for i, factors in enumerate(factors_raw):
        if not isinstance(factors, list) or len(factors) != s:
            raise ValueError(f"member {i} needs {s} factors")
        members.append(tuple(_mask_from(f, t, f"member {i}") for f in factors))
    return BadBoxFamily(
        t=t,
        s=s,
        k=k,
        members_factors=tuple(members),
        attempts=_json_int(doc.get("attempts", 0), "bad-box attempts"),
        seed=_json_int(doc.get("seed", 0), "bad-box seed"),
    )
