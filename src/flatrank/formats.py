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
key's dotted path, and an array of more numbers or pairs than
:data:`flatrank.caps.MAX_ENTRIES`, which no tensor takes, is refused before
it is copied.  :func:`tensor_text` writes dense entries with numpy digit
arithmetic into the bytes ``canonical_json`` would give.

A dense body that is not digit, comma, digit, ... is read by one reader
(:func:`_read_window`), in windows of :data:`READ_WINDOW` bytes cut after a
comma, into scratch carved from the thread's arena
(:func:`flatrank.linalg._arena_workspace`).  One pass of byte masks checks
the JSON-integer grammar and converts: tokens of at most 4 digits by Horner's
rule over shifted uint16 slices, read at their last digits; a window with a
longer token by ``np.fromstring``, which is faster there than any whole-body
numpy conversion (``BENCH_33.json`` ``loads``).  Scratch kept in the arena,
not allocated per load, is what makes the masks pay (``loads``); the window
size trades ``op_p90_ms`` against ``peak_rss_mb`` (``window_curve``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
import tempfile
from functools import lru_cache
from itertools import chain
from json.decoder import WHITESPACE, scanstring

import numpy as np

from . import __version__, caps
from .field import FieldDescriptor, make_binary_field, make_prime_field
from .fw import BadBoxFamily, Configuration
from .linalg import _arena_workspace, _Workspace, entry_dtype
from .rainbow import ColoredHypergraph, SetPairSystem
from .setfam import SetFamily, TupleFamily
from .tensor import Tensor, check_entries, integer_array

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


def _one_digit(digits: np.ndarray) -> np.ndarray:
    """The values of single ASCII digit bytes, as int64."""
    values = digits.astype(np.int64)
    values -= ord("0")
    return values


def _int_array(text: str, start: int) -> tuple[np.ndarray, int] | None:
    """The flat array of JSON integers at ``text[start]`` as int64, and the index past it.

    None unless every element is an integer of at most 18 digits.  A body
    that is exactly digit, comma, digit, ... needs no other check and no
    conversion but ``- 48``; any other, its JSON whitespace dropped, is read
    by :func:`_integers`.  A body of more numbers than
    :data:`flatrank.caps.MAX_ENTRIES` is refused before it is copied.
    """
    if text[start : start + 1] != "[" or (stop := text.find("]", start)) < 0:
        return None
    if stop - start > 2 * caps.MAX_ENTRIES:  # long enough to hold more numbers, each a digit and a comma
        caps.admit((text.count(",", start, stop) + 1,), "'entries' array", unit="entries")
    if not (text.isascii() or text[start + 1 : stop].isascii()):
        return None
    encoded = text[start + 1 : stop].encode("ascii")
    raw = np.frombuffer(encoded, dtype=np.uint8)
    if raw.size % 2 and (raw[1::2] == ord(",")).all() and ((raw[::2] - ord("0")) < 10).all():
        return _one_digit(raw[::2]), stop + 1
    if raw.size and raw.min() <= ord(" "):  # JSON whitespace, or a control byte no window takes
        if _SPACE_IN_NUMBER.search(encoded):
            return None
        encoded = encoded.translate(None, b" \t\n\r")
    values = _integers(encoded)
    return None if values is None else (values, stop + 1)


_SPACE_IN_NUMBER = re.compile(rb"[0-9-][ \t\n\r]+[0-9-]")

# Bytes of a body read at a time, in whole tokens; the scratch takes about 12 bytes a
# byte, and wider windows gain little for it (``BENCH_33.json`` ``window_curve``)
READ_WINDOW = 1 << 15


@lru_cache(maxsize=4)
def _reader_sizes(window: int) -> dict[str, tuple]:
    """Workspace of :func:`_read_window` for windows of up to ``window`` bytes: about 12 bytes a byte."""
    return {
        "digits": (window, np.uint8),
        "digit": (window + 2, np.bool_),
        "comma": (window + 2, np.bool_),
        "check": (window + 1, np.bool_),
        "value": (window, np.uint16),
        "scale": (window, np.uint16),
        "acc": (window, np.uint16),
        "prev": (window, np.uint16),
        "run": (window + 1, np.bool_, "acc"),
    }


def _integers(encoded: bytes) -> np.ndarray | None:
    """The comma-separated integers of ``encoded``, which holds no whitespace, as a fresh int64 array.

    None unless each is a JSON integer of at most 18 digits.  The body is
    read in windows of whole tokens, each cut after the last comma of its
    :data:`READ_WINDOW` bytes, into a workspace carved from the thread's
    arena, so the scratch never passes one window's plan.
    """
    if not encoded:
        return np.zeros(0, np.int64)
    raw, window = np.frombuffer(encoded, dtype=np.uint8), READ_WINDOW
    ws = _arena_workspace(_reader_sizes(window))
    check = ws.take("check", window)
    commas = sum(
        np.count_nonzero(np.equal(raw[i : i + window], ord(","), out=check[: min(window, raw.size - i)]))
        for i in range(0, raw.size, window)
    )
    values = np.empty(commas + 1, np.int64)
    start = done = 0
    while start < raw.size:
        stop = raw.size if raw.size - start <= window else encoded.rfind(b",", start, start + window) + 1
        if stop <= start:  # no comma in a window's bytes: the decoder reads a token that long
            return None
        if (done := _read_window(raw[start:stop], stop == raw.size, values, done, ws)) is None:
            return None
        start = stop
    return values


def _read_window(w: np.ndarray, last: bool, values: np.ndarray, done: int, ws: _Workspace) -> int | None:
    """Check window ``w`` and write its integers to ``values[done:]``; the count written so far, or None.

    ``w`` holds whole tokens: a window but the ``last`` ends in its comma.
    One pass of byte masks checks the JSON-integer grammar.  Tokens of at
    most 4 digits are summed by Horner's rule over shifted uint16 slices and
    read at their last digits; a window with a longer token goes to
    ``np.fromstring``.
    """
    m = w.size
    x = np.subtract(w, ord("0"), out=ws.take("digits", m))  # a digit's value; any other byte wraps past 9
    digit, comma = ws.take("digit", m + 2), ws.take("comma", m + 2)  # byte i at i + 1, padded
    digit[0] = digit[-1] = False
    comma[0], comma[-1] = True, last  # a token starts the window; the last one ends the body
    np.less(x, 10, out=digit[1:-1])
    np.equal(w, ord(","), out=comma[1:-1])
    check = ws.take("check", m + 1)
    minus = np.equal(w, ord("-"), out=check[:m])
    signs = np.count_nonzero(minus)
    if np.count_nonzero(digit) + np.count_nonzero(comma[1:-1]) + signs != m:
        return None  # a byte that is no digit, comma or "-"
    if signs:  # each "-" starts a token and comes before a digit
        np.logical_and(minus, comma[:-2], out=minus)
        if np.count_nonzero(np.logical_and(minus, digit[2:], out=minus)) < signs:
            return None
    if np.logical_and(comma[:-1], comma[1:], out=check).any():  # an empty token
        return None
    lead = np.equal(x, 0, out=check[:m])  # a "0" after no digit and before one
    np.greater(lead, digit[:-2], out=lead)
    if np.logical_and(lead, digit[2:], out=lead).any():
        return None
    count = np.count_nonzero(comma[2:])  # tokens that end in the window
    two = np.logical_and(digit[:-1], digit[1:], out=check)  # digits at i - 1 .. i; then .. i + 2, .. i + 3
    four = np.logical_and(two[:-2], two[2:], out=ws.take("run", m - 1))
    if m >= 5 and np.logical_and(four[:-1], four[1:], out=check[: m - 2]).any():
        if m >= 19:  # .. i + 6, .. i + 14, .. i + 17
            eight = np.logical_and(four[:-4], four[4:], out=check[: m - 5])
            sixteen = np.logical_and(eight[:-8], eight[8:], out=four[: m - 13])
            if np.logical_and(sixteen[:-3], sixteen[3:], out=check[: m - 16]).any():
                return None  # 19 digits or more may not fit int64
        wide = np.fromstring(w[: m - (not last)].tobytes(), dtype=np.int64, sep=",")
        if wide.size != count:
            return None
        values[done : done + count] = wide
        return done + count
    value, scale = ws.take("value", m), ws.take("scale", m)
    np.copyto(value, x)
    np.multiply(digit[:-2], np.uint16(10), out=scale)  # 10 after a digit; a token's first digit starts afresh
    src = value
    for acc in (ws.take("acc", m), ws.take("prev", m), ws.take("acc", m)):  # 2, 3, then 4 digits a token
        acc[0] = value[0]
        np.multiply(src[:-1], scale[1:], out=acc[1:])
        acc[1:] += value[1:]
        src = acc
    read = np.compress(comma[2:], src, out=ws.take("prev", count))  # at each token's last digit
    ends = values[done : done + count]
    np.copyto(ends, read)
    if signs:
        negative = np.equal(np.compress(comma[:-2], w, out=x[:count]), ord("-"), out=check[:count])
        np.negative(ends, out=ends, where=negative)
    return done + count


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
    if stop == 1 or any(text.find(space, start, stop) >= 0 for space in " \t\n\r"):
        if (end := _PAIRS_END.search(text, start)) is None:
            return None
        stop = end.end()
    if stop - start > 2 * caps.MAX_ENTRIES:  # long enough to hold more pairs: n pairs hold 2n + 1 "]"
        caps.admit((text.count("]", start, stop) // 2,), "'sparse' array", unit="entries")
    encoded = text[start:stop].encode("utf-8")
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
    """The non-negative integer ``values`` in decimal, comma-separated, as ``json.dumps`` writes them."""
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
    size = caps.admit(dims, "tensor")
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
        if isinstance(values, list):
            values = integer_array(values, "sparse values")
        check_entries(values, field)  # before the cast into the entries' dtype
        flat = np.zeros(size, dtype=entry_dtype(field))
        flat[positions] = values
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
        "C": [[i for i, bit in enumerate(reversed(bin(x))) if bit == "1"] for x in cfg.C],
    }


def configuration_from_document(doc: dict) -> Configuration:
    _known_keys(doc, "configuration")
    k = _json_int(doc.get("k"), "configuration k", 1, caps.MAX_AXES)  # its tensor has k axes
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
        # each edge read off its binary digits, not tested at every vertex of [N]
        "colors": [[[v for v, bit in enumerate(reversed(bin(e))) if bit == "1"] for e in cls] for cls in h.colors],
    }


def hypergraph_from_document(doc: dict) -> ColoredHypergraph:
    _known_keys(doc, "hypergraph")
    n, r, t = (_json_int(doc.get(name), f"hypergraph {name}", 1) for name in ("N", "r", "t"))
    caps.admit((r, t), f"rainbow matching of {t} {r}-edges", caps.MAX_BINOMIAL_TOP, "vertices")
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
    caps.admit((sum(sizes),), f"set-pair member of {len(sizes)} slots", caps.MAX_BINOMIAL_TOP, "elements")
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
