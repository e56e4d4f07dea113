"""JSON document formats and deterministic report plumbing.

All artifacts are UTF-8 JSON with integer field-element representatives
(prime fields: residues; binary fields: polynomial masks).  Indices are
0-based everywhere: axes, ground-set elements, vertices, and configuration
slots.  Subsets may be written either as bit-masks (integers) or as lists of
0-based elements, each element once; the family a mask lands in checks its
range (see :mod:`flatrank.setfam`).  A reader refuses any key that
:data:`DOCUMENT_KEYS` does not list, and a tensor with both encodings.

Canonical serialization (sorted keys, no whitespace, trailing newline) is the
byte format for reports, so identical inputs and seeds reproduce identical
bytes.  Timing never enters a report.

Dense tensor entries, and the sparse pairs of one-digit numbers the CLI
writes on small axes, never pass through one Python object each:
:func:`load_document` walks the top-level object of a document that names
``"entries"`` or ``"sparse"`` and reads those arrays with numpy
(:func:`_int_array`, :func:`_pair_array`).  Any other value goes to one
stdlib decoder, and any other text to that decoder whole.  So the documents
accepted, their values and their syntax errors are those of ``json.loads``,
except that an object that repeats a key is refused, at any depth, with the
key's dotted path.  :func:`tensor_text` writes dense entries with numpy digit
arithmetic into the bytes ``canonical_json`` would give.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import tempfile
from itertools import chain
from json.decoder import WHITESPACE, scanstring

import numpy as np

from . import __version__
from .field import FieldDescriptor, make_binary_field, make_prime_field
from .fw import BadBoxFamily, Configuration
from .rainbow import ColoredHypergraph, SetPairSystem
from .setfam import SetFamily, TupleFamily
from .tensor import MAX_AXES, Tensor, dense_size, integer_array

__all__ = [
    "canonical_json",
    "digest_bytes",
    "digest_params",
    "write_atomic",
    "load_document",
    "make_report",
    "tensor_to_document",
    "tensor_text",
    "field_from_document",
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

# The keys each kind of document may hold (README, "File formats"); "metadata" is free-form.
DOCUMENT_KEYS = {
    "tensor": {"dims", "field", "entries", "sparse", "metadata"},
    "prime field": {"kind", "p"},
    "binary field": {"kind", "k"},
    "tuple-family": {"n", "d", "members", "metadata"},
    "set-family": {"n", "members", "metadata"},
    "configuration": {"k", "p", "L", "C", "metadata"},
    "hypergraph": {"N", "r", "t", "colors", "metadata"},
    "set-pair": {"base", "sizes", "members", "metadata"},
    "bad-box": {"t", "s", "k", "members_factors", "attempts", "seed", "metadata"},
}

# Largest n of a report binomial C(n, r): C(8192, 4096) has 2,464 digits, json.dumps at most 4,300.
MAX_BINOMIAL_TOP = 8192


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
    """The JSON object in ``path`` and the SHA-256 digest of the bytes parsed.

    A top-level ``"entries"`` array of integers is an int64 array, and a
    top-level ``"sparse"`` array of same-arity ``[[i0, ..., i_{k-1}], v]``
    pairs of one-digit integers an (n, k + 1) int64 array of rows
    ``[i0, ..., i_{k-1}, v]``; both arrays are read-only.  Every other value
    is what ``json.loads`` gives.  An object that repeats a key is refused.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("utf-8")
    try:
        try:
            doc = _decode(text)
        except _RepeatedKey:  # decoded again, only to name the key
            key = _repeated_path(json.loads(text, object_pairs_hook=tuple))
            raise ValueError(f"document repeats the key {key}") from None
    except RecursionError:
        raise ValueError("document nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ValueError("document root must be a JSON object")
    return doc, digest_bytes(data)


class _RepeatedKey(ValueError):
    """An object of the document repeats a key; :func:`_repeated_path` names it."""


def _unique_keys(pairs: list) -> dict:
    """An object's (key, value) pairs as a dict, or :class:`_RepeatedKey`."""
    if len(obj := dict(pairs)) < len(pairs):
        raise _RepeatedKey
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _repeated_path(value, path: str = "") -> str | None:
    """The dotted path (array indices are steps) of the first repeated key in ``value``, objects as pair tuples."""
    items = enumerate(value) if isinstance(value, list) else value if isinstance(value, tuple) else ()
    keys: set = set()
    for key, item in items:
        if found := (f"{path}{key}" if key in keys else _repeated_path(item, f"{path}{key}.")):
            return found
        keys.add(key)
    return None


def _decode(text: str):
    """``json.loads(text)``, with the arrays of :func:`_object_with_arrays`; a repeated key raises."""
    if '"entries"' in text or '"sparse"' in text:  # else one call of the decoder is faster than the walk
        with contextlib.suppress(json.JSONDecodeError):
            if (doc := _object_with_arrays(text)) is not None:
                return doc
    if text.startswith("\ufeff"):  # json.loads refuses a BOM before it decodes
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return _DECODER.decode(text)  # not an object the walk takes: the decoder gives the verdict


def _skip(text: str, idx: int) -> int:
    return WHITESPACE.match(text, idx).end()


def _object_with_arrays(text: str) -> dict | None:
    """``json.loads(text)``, ``"entries"`` and ``"sparse"`` read as arrays, or None if it is no well-formed object."""
    idx = _skip(text, 0)
    if text[idx : idx + 1] != "{":
        return None
    doc: dict = {}
    idx = _skip(text, idx + 1)
    while text[idx : idx + 1] == '"':
        key, idx = scanstring(text, idx + 1)
        if key in doc:
            raise _RepeatedKey
        idx = _skip(text, idx)
        if text[idx : idx + 1] != ":":
            return None
        idx = _skip(text, idx + 1)
        reader = _ARRAY_READERS.get(key)
        doc[key], idx = (reader and reader(text, idx)) or _DECODER.raw_decode(text, idx)
        if isinstance(doc[key], np.ndarray):  # fresh: a Tensor keeps it without a copy
            doc[key].flags.writeable = False
        idx = _skip(text, idx)
        sep = text[idx : idx + 1]
        idx = _skip(text, idx + 1)
        if sep == "}":
            return doc if idx == len(text) else None
        if sep != ",":
            return None
    return None


def _number_mask(raw: np.ndarray) -> np.ndarray | None:
    """Which bytes of ``raw``, with JSON whitespace dropped, belong to numbers.

    None unless every byte is a digit, ``-``, a comma or whitespace, and
    every run of digits and ``-`` is a JSON integer of at most 18 digits, so
    that it fits int64.  The checks are boolean masks
    only: an index array over the text would cost 8 bytes per byte.
    """
    digit, minus = (raw - ord("0")) < 10, raw == ord("-")
    number = digit | minus
    allowed = number | (raw == ord(","))
    space = None
    if (raw <= ord(" ")).any():  # whitespace, or a control byte that no text may hold here
        space = (raw == ord(" ")) | (raw == ord("\n")) | (raw == ord("\r")) | (raw == ord("\t"))
        allowed = allowed | space
    if not allowed.all():
        return None
    if space is not None:
        gap = np.zeros_like(space)  # the byte follows whitespace
        gap[1:] = space[:-1]
        token = ~space
        raw, digit, minus, number, gap = raw[token], digit[token], minus[token], number[token], gap[token]
        if (gap[1:] & number[1:] & number[:-1]).any():  # whitespace inside a number
            return None
    if not raw.size:
        return number
    lead = raw == ord("0")  # a zero that is a number's first digit
    lead[1:] &= ~digit[:-1]
    if (
        minus[-1]
        or (minus[:-1] & ~digit[1:]).any()  # "-" not before a digit
        or (digit[:-1] & minus[1:]).any()
        or (lead[:-1] & digit[1:]).any()  # leading zero
    ):
        return None
    run = digit
    for shift in (1, 2, 4, 8, 3):  # run[i]: digits at i .. i+1, +3, +7, +15, +18
        run = run[:-shift] & run[shift:]
    if run.any():  # 19 digits or more may not fit int64
        return None
    return number


def _one_digit(digits: np.ndarray) -> np.ndarray:
    """The values of single ASCII digit bytes, as int64."""
    values = digits.astype(np.int64)
    values -= ord("0")
    return values


def _int_array(text: str, start: int) -> tuple[np.ndarray, int] | None:
    """The flat array of JSON integers at ``text[start]`` as int64, and the index past it.

    None unless every element is an integer of at most 18 digits, so that
    the one ``np.fromstring`` call is exact.  A body that is exactly digit,
    comma, digit, ... needs no other check and no conversion but ``- 48``.
    """
    if text[start : start + 1] != "[" or (stop := text.find("]", start)) < 0:
        return None
    body = text[start + 1 : stop]
    if not body.isascii():
        return None
    encoded = body.encode("ascii")
    raw = np.frombuffer(encoded, dtype=np.uint8)
    if raw.size % 2 and (raw[1::2] == ord(",")).all() and ((raw[::2] - ord("0")) < 10).all():
        return _one_digit(raw[::2]), stop + 1
    if (count := _flat_count(raw)) is None:
        return None
    # the masks are freed by now: np.fromstring grows its result by realloc
    values = np.fromstring(encoded, dtype=np.int64, sep=",") if count else np.zeros(0, np.int64)
    return (values, stop + 1) if values.size == count else None


def _flat_count(raw: np.ndarray) -> int | None:
    """The number of integers in the body ``raw`` of a flat array, or None if it is not one."""
    if (number := _number_mask(raw)) is None:
        return None
    if not number.size:
        return 0
    comma = ~number
    if comma[0] or comma[-1] or (comma[:-1] & comma[1:]).any():
        return None
    return np.count_nonzero(comma) + 1


_PAIRS_END = re.compile(r"\][ \t\n\r]*\]")
_DIGITS_TO_ZERO = bytes.maketrans(b"123456789", b"0" * 9)


def _pair_array(text: str, start: int) -> tuple[np.ndarray, int] | None:
    """The pairs ``[[i0, ..., i_{k-1}], v]`` at ``text[start]`` as (n, k + 1) int64 rows.

    Also returns the index past the array.  None unless n >= 1, every pair
    has arity k and every number is one digit, as in the GF(2) and GF(3)
    documents the CLI writes on small axes.  The first ``]]`` (whitespace
    allowed between) closes a well-formed array.  With whitespace dropped
    and every digit mapped to ``0``, its bytes must then be exactly n copies
    of ``[[0,...,0],0]``: a byte there that was not a digit, or ``00`` (a
    number of two digits), does not match.
    """
    if text[start : start + 1] != "[":
        return None
    stop = text.find("]]", start) + 2
    body = text[start:stop]
    if stop == 1 or any(space in body for space in " \t\n\r"):
        if (end := _PAIRS_END.search(text, start)) is None:
            return None
        stop = end.end()
        body = text[start:stop]
    encoded = body.encode("utf-8")
    skeleton = encoded.translate(_DIGITS_TO_ZERO, b" \t\n\r")
    k = (skeleton.find(b"]") - 1) // 2
    pair = b"[[" + b",".join([b"0"] * k) + b"],0]"
    n = (len(skeleton) - 1) // (len(pair) + 1)
    if skeleton != b"[" + b",".join([pair] * n) + b"]":
        return None
    values = _one_digit(np.frombuffer(encoded.translate(None, b"[], \t\n\r"), dtype=np.uint8))
    return values.reshape(n, k + 1), stop


_ARRAY_READERS = {"entries": _int_array, "sparse": _pair_array}


def make_report(command: str, inputs_digest: str, results: dict, seed: int | None = None) -> dict:
    return {
        "command": command,
        "inputs_digest": inputs_digest,
        "results": results,
        "seed": seed,
        "version": __version__,
    }


def _json_int(value, what: str, minimum: float = -math.inf, maximum: float = math.inf) -> int:
    """``value`` if it is a JSON integer (never a boolean) from ``minimum`` to ``maximum``."""
    if type(value) is not int or not minimum <= value <= maximum:
        bounds = ((">=", minimum), ("<=", maximum))
        bound = " and".join(f" {op} {b}" for op, b in bounds if abs(b) < math.inf)
        raise ValueError(f"{what} must be an integer{bound}, got {value!r}")
    return value


def _json_list(value, what: str) -> list:
    """``value`` if it is a JSON array."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _known_keys(doc: dict, kind: str) -> None:
    """Refuse a key of ``doc`` that :data:`DOCUMENT_KEYS` does not list for ``kind``."""
    if (key := next((key for key in doc if key not in DOCUMENT_KEYS[kind]), None)) is not None:
        raise ValueError(f"{kind} document has an unknown key {key!r}")


def field_from_document(doc: dict) -> FieldDescriptor:
    """Inverse of :meth:`FieldDescriptor.to_document`."""
    if not isinstance(doc, dict):
        raise ValueError(f"field must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind not in ("prime", "binary"):
        raise ValueError(f"unknown field kind {kind!r}")
    _known_keys(doc, f"{kind} field")
    return make_prime_field(doc.get("p")) if kind == "prime" else make_binary_field(doc.get("k"))


def _mask_from(value, n: int, what: str) -> int:
    """An int mask, whose range the family checks, or the mask of a list of distinct elements below n."""
    if isinstance(value, bool):
        raise ValueError(f"{what}: booleans are not masks")
    if isinstance(value, int):
        return value
    if isinstance(value, list):
        mask = 0
        for v in value:
            if type(v) is not int:
                raise ValueError(f"{what}: element {v!r} is not an integer")
            if not 0 <= v < n:
                raise ValueError(f"{what}: element {v!r} out of range(0, {n})")
            if mask >> v & 1:
                raise ValueError(f"{what}: element {v} is listed twice")
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


def tensor_text(t: Tensor, metadata: dict | None = None, sparse: bool = False) -> str:
    """``canonical_json(tensor_to_document(t, metadata, sparse))``, dense entries written by numpy."""
    if sparse:
        return canonical_json(tensor_to_document(t, metadata, sparse=True))
    doc: dict = {"dims": list(t.dims), "entries": [], "field": t.field.to_document()}
    if metadata:
        doc["metadata"] = metadata
    # keys sort as dims, entries, ...: the first empty entries list is this one
    return canonical_json(doc).replace('"entries":[]', f'"entries":[{_decimals(t.entries)}]', 1)


def _decimals(values: np.ndarray) -> str:
    """The non-negative int64 ``values`` in decimal, comma-separated, as ``json.dumps`` writes them."""
    width = len(str(int(values.max())))
    cells = np.empty((values.size, width + 1), dtype=np.uint8)  # each value's digits and a comma
    cells[:, width] = ord(",")
    keep = np.ones(cells.shape, dtype=bool)
    for j in range(width):
        place = 10 ** (width - 1 - j)
        cells[:, j] = values // place % 10 + ord("0")
        if place > 1:
            keep[:, j] = values >= place  # no leading zeros
    return cells[keep].tobytes()[:-1].decode("ascii")


def tensor_from_document(doc: dict) -> Tensor:
    """Parse a dense or sparse tensor document; non-integer values are rejected.

    A sparse document may name each multi-index once.
    """
    _known_keys(doc, "tensor")
    if "entries" in doc and "sparse" in doc:
        raise ValueError("tensor document gives both 'entries' and 'sparse'")
    dims = doc.get("dims")
    if not isinstance(dims, list) or not dims or any(type(a) is not int or a < 1 for a in dims):
        raise ValueError("tensor document needs a list of positive dims")
    field = field_from_document(doc.get("field", {}))
    size = dense_size(dims, "tensor size")
    if "entries" in doc:
        entries = doc["entries"]
        if not isinstance(entries, (list, np.ndarray)) or len(entries) != size:
            raise ValueError(f"expected {size} dense entries")
        return Tensor(tuple(dims), field, entries)
    if "sparse" in doc:
        coords, values = _sparse_pairs(doc["sparse"], len(dims))
        outside = np.flatnonzero(((coords < 0) | (coords >= dims)).any(axis=1))
        if outside.size:
            raise ValueError(f"sparse index {coords[outside[0]].tolist()!r} out of range")
        positions = np.ravel_multi_index(tuple(coords.T), dims)
        named = np.zeros(size, dtype=bool)
        named[positions] = True
        if np.count_nonzero(named) != positions.size:
            raise ValueError("sparse entries name a multi-index more than once")
        flat = np.zeros(size, dtype=np.int64)
        flat[positions] = integer_array(values, "sparse values")
        flat.flags.writeable = False  # the Tensor keeps it without a copy
        return Tensor(tuple(dims), field, flat)
    raise ValueError("tensor document needs 'entries' or 'sparse'")


def _sparse_pairs(pairs, arity: int) -> tuple[np.ndarray, np.ndarray | list]:
    """A sparse document's (n, arity) int64 multi-indices and its n values.

    :func:`load_document` reads well-formed pair arrays as int64 rows
    ``[i0, ..., i_{arity-1}, v]``.  Of a list of pairs, the shape and the
    indices are checked here; the values are left as they are, to be checked
    once the indices have been.
    """
    if isinstance(pairs, np.ndarray) and pairs.ndim == 2 and pairs.dtype == np.int64:
        if len(pairs) and pairs.shape[1] != arity + 1:
            raise ValueError(f"sparse index {pairs[0, :-1].tolist()!r} has wrong arity")
        rows = pairs.reshape(-1, arity + 1)
        return rows[:, :-1], rows[:, -1]
    if not isinstance(pairs, list):
        raise ValueError("sparse entries must be a list of [multi-index, value] pairs")
    if set(map(type, pairs)) - {list} or set(map(len, pairs)) - {2}:
        raise ValueError("sparse pairs must be [multi-index, value]")
    index = [pair[0] for pair in pairs]
    if set(map(type, index)) - {list} or set(map(len, index)) - {arity}:
        wrong = next(idx for idx in index if type(idx) is not list or len(idx) != arity)
        raise ValueError(f"sparse index {wrong!r} has wrong arity")
    coords = integer_array([m for idx in index for m in idx], "sparse indices").reshape(-1, arity)
    return coords, [pair[1] for pair in pairs]


def tuple_family_to_document(fam: TupleFamily) -> dict:
    return {"n": fam.n, "d": fam.d, "members": [list(tup) for tup in fam.members]}


def _mask_rows(doc: dict, kind: str, key: str, n: int, what: str) -> tuple[tuple[int, ...], ...]:
    """``doc[key]``, a list (empty when left out) of lists of masks over [n], as tuples; row i is ``what`` i."""
    rows = _json_list(doc.get(key, []), f"{kind} {key}")
    if set(map(type, rows)) - {list}:
        i = next(i for i, row in enumerate(rows) if type(row) is not list)
        raise ValueError(f"{what} {i} must be a list, got {type(rows[i]).__name__}")
    if set(map(type, chain.from_iterable(rows))) <= {int}:  # int masks as they are: the family checks them
        return tuple(map(tuple, rows))
    return tuple(tuple(_mask_from(x, n, f"{what} {i}") for x in row) for i, row in enumerate(rows))


def tuple_family_from_document(doc: dict) -> TupleFamily:
    _known_keys(doc, "tuple-family")
    n = _json_int(doc.get("n"), "tuple-family n", 1)
    members = _mask_rows(doc, "tuple-family", "members", n, "member")
    d = doc.get("d")
    if d is None:
        if not members:
            raise ValueError("cannot infer d from an empty family; provide 'd'")
        d = len(members[0])
    return TupleFamily(n=n, d=_json_int(d, "tuple-family d", 2), members=members)


def set_family_to_document(fam: SetFamily) -> dict:
    return {"n": fam.n, "members": list(fam.members)}


def set_family_from_document(doc: dict) -> SetFamily:
    _known_keys(doc, "set-family")
    n = _json_int(doc.get("n"), "set-family n", 1)
    members = _json_list(doc.get("members", []), "set-family members")
    return SetFamily(n=n, members=tuple(_mask_from(m, n, f"member {i}") for i, m in enumerate(members)))


def configuration_to_document(cfg: Configuration) -> dict:
    return {
        "k": cfg.k,
        "p": cfg.p,
        "L": list(cfg.L),
        "C": [[i for i in range(cfg.k) if (x >> i) & 1] for x in cfg.C],
    }


def configuration_from_document(doc: dict) -> Configuration:
    _known_keys(doc, "configuration")
    k = _json_int(doc.get("k"), "configuration k", 1, MAX_AXES)  # its tensor has k axes
    p = _json_int(doc.get("p"), "configuration p")
    C = _json_list(doc.get("C", []), "configuration C")
    L = _json_list(doc.get("L", []), "configuration L")
    c_masks = tuple(_mask_from(x, k, f"C[{i}]") for i, x in enumerate(C))
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
    _known_keys(doc, "hypergraph")
    n, r, t = (_json_int(doc.get(name), f"hypergraph {name}", 1) for name in ("N", "r", "t"))
    _json_int(r * t, "hypergraph r*t", maximum=MAX_BINOMIAL_TOP)
    return ColoredHypergraph(num_vertices=n, r=r, t=t, colors=_mask_rows(doc, "hypergraph", "colors", n, "color"))


def setpair_to_document(s: SetPairSystem) -> dict:
    return {
        "base": s.base_size,
        "sizes": list(s.sizes),
        "members": [list(tup) for tup in s.members],
    }


def setpair_from_document(doc: dict) -> SetPairSystem:
    _known_keys(doc, "set-pair")
    base = _json_int(doc.get("base"), "set-pair base size", 1)
    sizes = tuple(_json_int(x, "set-pair slot size", 1) for x in _json_list(doc.get("sizes"), "set-pair sizes"))
    _json_int(sum(sizes), "set-pair sum of slot sizes", maximum=MAX_BINOMIAL_TOP)
    return SetPairSystem(base_size=base, sizes=sizes, members=_mask_rows(doc, "set-pair", "members", base, "member"))


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
    _known_keys(doc, "bad-box")
    t, s, k = (_json_int(doc.get(name), f"bad-box {name}", 1) for name in ("t", "s", "k"))
    attempts, seed = (_json_int(doc.get(name, 0), f"bad-box {name}") for name in ("attempts", "seed"))
    members = _mask_rows(doc, "bad-box", "members_factors", t, "member")
    if (i := next((i for i, factors in enumerate(members) if len(factors) != s), None)) is not None:
        raise ValueError(f"member {i} needs {s} factors")
    fam = BadBoxFamily(t=t, s=s, k=k, members_factors=members, attempts=attempts, seed=seed)
    sizes = list(map(int.bit_count, chain.from_iterable(members)))  # products of odd-sized subsets of [t]
    if (j := next((j for j, size in enumerate(sizes) if size % 2 == 0), None)) is not None:
        raise ValueError(f"member {j // s} factor {j % s} has even size {sizes[j]}")
    return fam
