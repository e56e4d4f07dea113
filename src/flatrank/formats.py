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
writes on small axes, never pass through one Python object each, and are
read field first.  :func:`load_document` walks the top-level object of a
document that names ``"entries"`` or ``"sparse"`` and leaves each of those
arrays as the span of bytes it takes, so the document's ``"field"`` is known
when the walk ends (canonical documents sort ``entries`` before ``field``).
The text is then dropped, and each body goes once from the file's bytes
into an array: a dense body into the field's entry dtype
(:func:`flatrank.linalg.entry_dtype`), each value checked against the
field's order as it is read, which the ``Tensor`` keeps uncopied
(:func:`_int_array`); sparse pairs into uint8 rows (:func:`_pair_array`).
A dense body whose field is missing or invalid, or that holds a value not
canonical in it, is read into int64 instead: its tensor then names the
fault.  Any other value goes to one stdlib decoder, and any other text, or
a body that no reader takes, sends the whole document to that decoder.  So
the documents accepted, their values and their syntax errors are those of
``json.loads``, except that an object that repeats a key is refused, at any
depth, with the key's dotted path, and an array of more numbers or pairs
than :data:`flatrank.caps.MAX_ENTRIES`, which no tensor takes, is refused
before it is copied.  :func:`tensor_text` writes dense entries with numpy
digit arithmetic into the bytes ``canonical_json`` would give.

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
from .tensor import Tensor, _frozen, check_entries, integer_array

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

    A top-level ``"entries"`` array of integers is read last, from the
    file's bytes, once the document's ``"field"`` is known: into
    ``entry_dtype(field)`` when the field is valid and every value is
    canonical in it, else into int64.  A top-level ``"sparse"`` array of
    same-arity ``[[i0, ..., i_{k-1}], v]`` pairs of one-digit integers is
    an (n, k + 1) uint8 array of rows ``[i0, ..., i_{k-1}, v]``.  Both
    arrays are read-only.  Every other value is what ``json.loads`` gives.
    An object that repeats a key is refused.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        try:
            doc = _decode(data)
        except _RepeatedKey:  # decoded again, only to name the key
            key = _repeated_path(json.loads(data.decode("utf-8"), object_pairs_hook=tuple))
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


def _decode(data: bytes):
    """``json.loads`` of the UTF-8 ``data``, with the arrays of :func:`load_document`; a repeated key raises.

    The text is dropped once it is walked, before the bodies the walk left
    as slices of ``data`` are read.  A body that no reader takes sends the
    whole document to the decoder, which gives its values or its verdict.
    """
    text = data.decode("utf-8")
    if ('"entries"' in text or '"sparse"' in text) and (doc := _object_with_arrays(text)) is not None:
        del text
        for key, span in [(key, value) for key, value in doc.items() if type(value) is slice]:
            if (array := _pair_array(data[span]) if key == "sparse" else _int_array(data, span, doc)) is None:
                return _DECODER.decode(data.decode("utf-8"))
            doc[key] = _frozen(array)  # fresh: a Tensor keeps it without a copy
        return doc
    if text.startswith("\ufeff"):  # json.loads refuses a BOM before it decodes
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    return _DECODER.decode(text)  # not an object the walk takes: the decoder gives the verdict


def _skip(text: str, idx: int) -> int:
    return WHITESPACE.match(text, idx).end()


def _object_with_arrays(text: str) -> dict | None:
    """``json.loads(text)``, or None if it is no well-formed object (the decoder gives the verdict).

    An ``"entries"`` or ``"sparse"`` array that :data:`_BODY_ENDS` spans is
    left undecoded: its value is the slice of the UTF-8 bytes it spans.
    """
    with contextlib.suppress(json.JSONDecodeError, RecursionError):  # a body read later may hold the first fault
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
            if end := key in _BODY_ENDS and _BODY_ENDS[key](text, idx):  # the body is ASCII if a reader takes it
                shift = 0 if text.isascii() else len(text[:idx].encode("utf-8")) - idx
                doc[key], idx = slice(idx + shift, end + shift), end
            else:
                doc[key], idx = _DECODER.raw_decode(text, idx)
            idx = _skip(text, idx)
            sep = text[idx : idx + 1]
            idx = _skip(text, idx + 1)
            if sep == "}":
                return doc if idx == len(text) else None
            if sep != ",":
                return None
    return None


# A span ends at the body's first "]" ("]]" for pairs).  When that is not the
# array's end, the walk resumes at a comma or bracket inside it and stops, unless
# a string there reads as a key: a body that holds one is decoded at once.


def _flat_end(text: str, start: int) -> int | None:
    """The index past the ``"entries"`` array at ``text[start]``; None if there is none or it holds a string.

    A body of more numbers than :data:`flatrank.caps.MAX_ENTRIES` is
    refused before it is copied.
    """
    if text[start : start + 1] != "[" or (stop := text.find("]", start)) < 0:
        return None
    if stop - start > 2 * caps.MAX_ENTRIES:  # long enough to hold more numbers, each a digit and a comma
        caps.admit((text.count(",", start, stop) + 1,), "'entries' array", unit="entries")
    return None if text.find('"', start, stop) >= 0 else stop + 1


_PAIRS_END = re.compile(r"\][ \t\n\r]*\]")


def _pairs_end(text: str, start: int) -> int | None:
    """The index past the ``"sparse"`` array at ``text[start]``; None if there is none or it holds a string.

    A body of more pairs than :data:`flatrank.caps.MAX_ENTRIES` is refused
    before it is copied.
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
    return None if text.find('"', start, stop) >= 0 else stop


_BODY_ENDS = {"entries": _flat_end, "sparse": _pairs_end}


def _int_array(data: bytes, span: slice, doc: dict) -> np.ndarray | None:
    """The flat array of JSON integers ``data[span]``, fresh, in the entry dtype of the field of ``doc``.

    None unless every element is an integer of at most 18 digits.  A body
    with a value outside [0, order) (``-0`` is in), or whose field is
    missing or invalid, is read into int64: a document that exits 2, on the
    first bad value.  A body that is exactly digit, comma, digit, ... needs
    no other check and no conversion but ``- 48``.  Any other, its JSON
    whitespace dropped, is read by :func:`_read_window` in windows of whole
    tokens, each cut after the last comma of its :data:`READ_WINDOW` bytes,
    into a workspace carved from the thread's arena, so the scratch never
    passes one window's plan.
    """
    dtype, order = np.int64, None
    with contextlib.suppress(ValueError):
        field = field_from_document(doc.get("field"))
        dtype, order = entry_dtype(field), field.order
    buf, lo, hi = data, span.start + 1, span.stop - 1  # between the brackets
    raw = np.frombuffer(buf, np.uint8, hi - lo, lo)
    commas = raw[1::2]
    if raw.size % 2 and commas.min(initial=ord(",")) == commas.max(initial=ord(",")) == ord(","):
        values = np.subtract(raw[::2], ord("0"))  # a byte that is no digit wraps past 9
        if (top := values.max()) < 10:
            return _int_array(data, span, {}) if order and top >= order else values.astype(dtype, copy=False)
    if raw.size and raw.min() <= ord(" "):  # JSON whitespace, or a control byte no window takes
        if _SPACE_IN_NUMBER.search(buf, lo, hi):
            return None
        buf = buf[lo:hi].translate(None, b" \t\n\r")
        lo, raw = 0, np.frombuffer(buf, np.uint8)
    if not raw.size:
        return np.zeros(0, dtype)
    window = READ_WINDOW
    ws = _arena_workspace(_reader_sizes(window))
    check = ws.take("check", window)
    count = sum(
        np.count_nonzero(np.equal(raw[i : i + window], ord(","), out=check[: min(window, raw.size - i)]))
        for i in range(0, raw.size, window)
    )
    values = np.empty(count + 1, dtype)
    start = done = 0
    while start < raw.size:
        stop = raw.size if raw.size - start <= window else buf.rfind(b",", lo + start, lo + start + window) + 1 - lo
        if stop <= start or (read := _read_window(raw[start:stop], stop == raw.size, ws)) is None:
            return None  # a token no window takes, or one longer than a window: the decoder reads it
        if order and (read.min() < 0 or read.max() >= order):
            return _int_array(data, span, {})
        values[done : done + read.size] = read
        start, done = stop, done + read.size
    return values


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


def _read_window(w: np.ndarray, last: bool, ws: _Workspace) -> np.ndarray | None:
    """The integers of window ``w``, checked, as an int16 view of ``ws`` or a fresh int64 array; or None.

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
        return wide if wide.size == count else None
    value, scale = ws.take("value", m), ws.take("scale", m)
    np.copyto(value, x)
    np.multiply(digit[:-2], np.uint16(10), out=scale)  # 10 after a digit; a token's first digit starts afresh
    src = value
    for acc in (ws.take("acc", m), ws.take("prev", m), ws.take("acc", m)):  # 2, 3, then 4 digits a token
        acc[0] = value[0]
        np.multiply(src[:-1], scale[1:], out=acc[1:])
        acc[1:] += value[1:]
        src = acc
    read = np.compress(comma[2:], src, out=ws.take("prev", count)).view(np.int16)  # at each token's last digit
    if signs:
        negative = np.equal(np.compress(comma[:-2], w, out=x[:count]), ord("-"), out=check[:count])
        np.negative(read, out=read, where=negative)
    return read


_DIGITS_TO_ZERO = bytes.maketrans(b"123456789", b"0" * 9)


def _pair_array(body: bytes) -> np.ndarray | None:
    """The pairs ``[[i0, ..., i_{k-1}], v]`` of ``body`` as (n, k + 1) uint8 rows ``[i0, ..., i_{k-1}, v]``.

    None unless every pair has arity k and every number is one digit, as in
    the GF(2) and GF(3) documents the CLI writes on small axes.  With
    whitespace dropped and every digit mapped to ``0``, the bytes must be
    exactly n copies of ``[[0,...,0],0]``: a byte there that was not a
    digit, or ``00`` (a number of two digits), does not match.
    """
    skeleton = body.translate(_DIGITS_TO_ZERO, b" \t\n\r")
    k = (skeleton.find(b"]") - 1) // 2
    pair = b"[[" + b",".join([b"0"] * k) + b"],0]"
    n = (len(skeleton) - 1) // (len(pair) + 1)
    if skeleton != b"[" + b",".join([pair] * n) + b"]":
        return None
    return (np.frombuffer(body.translate(None, b"[], \t\n\r"), np.uint8) - ord("0")).reshape(n, k + 1)


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
        return Tensor(tuple(dims), field, _frozen(flat))  # the Tensor keeps it without a copy
    raise ValueError("tensor document needs 'entries' or 'sparse'")


def _sparse_pairs(pairs, arity: int) -> tuple[np.ndarray, np.ndarray | list]:
    """A sparse document's (n, arity) integer multi-indices and its n values.

    :func:`load_document` reads well-formed pair arrays as uint8 rows
    ``[i0, ..., i_{arity-1}, v]``.  Of a list of pairs, the shape and the
    indices are checked here; the values are left as they are, to be checked
    once the indices have been.
    """
    if isinstance(pairs, np.ndarray) and pairs.ndim == 2 and pairs.dtype == np.uint8:
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
