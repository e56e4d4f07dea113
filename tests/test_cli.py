"""Exit-code contract, golden reports, and round-trips through the CLI."""

import contextlib
import hashlib
import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from flatrank import caps
from flatrank.cli import _parse_field, main
from flatrank.formats import (
    canonical_json,
    load_document,
    tensor_from_document,
    tensor_text,
    tensor_to_document,
)
from flatrank.tensor import Tensor, axis_constant_construction, partition_construction

from arena_peak import arena_peak
from oracles import tensor_key

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(args):
    return main([str(a) for a in args])


class Overran(Exception):
    """A command ran past its deadline."""


@contextlib.contextmanager
def deadline(seconds):
    """Raise :class:`Overran` in the block once ``seconds`` pass, so a hang fails the test."""

    def overran(signum, frame):
        raise Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_process(args):
    """One ``python -m flatrank.cli`` process on ``args``, with the package from ``src/``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "flatrank.cli", *map(str, args)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def test_rank_max_exit_zero(capsys):
    assert run(["rank", FIXTURES / "partition_4_3.json", "--max"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["mfrank"] == 2


def test_rank_axis_and_sum(capsys):
    assert run(["rank", FIXTURES / "partition_4_3.json", "--axis", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["frank"] == 2
    assert run(["rank", FIXTURES / "zero_2x2.json", "--sum"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["sum_franks"] == 0


def test_rank_bad_axis_exit_two(capsys):
    assert run(["rank", FIXTURES / "partition_4_3.json", "--axis", "7"]) == 2


def test_rank_corrupt_file_exit_two():
    assert run(["rank", FIXTURES / "corrupt.json", "--max"]) == 2


def test_rank_missing_file_exit_two():
    assert run(["rank", FIXTURES / "no_such_file.json", "--max"]) == 2


GF2_DOC = {"dims": [2, 2], "field": {"kind": "prime", "p": 2}}
MALFORMED_SPARSE = [
    {"sparse": {"0": 1}},
    {"sparse": [[[0, 0], 1], 5]},
    {"sparse": [[[0, 0], 1], [[1, 1]]]},
    {"sparse": [[[0, 0], 1], [[1, 1], 1, 0]]},
    {"sparse": [[[0, 0], 1], [7, 1]]},
    {"sparse": [[[0, 0], 1], [[1], 1]]},
    {"sparse": [[[0, 0], 1], [[1, 1, 0], 1]]},
    {"sparse": [[[0], 1], [[1, 1, 0], 1]]},
    {"sparse": [[[0, True], 1]]},
    {"sparse": [[[0, 1.0], 1]]},
    {"sparse": [[[0, "1"], 1]]},
    {"sparse": [[[0, None], 1]]},
    {"sparse": [[[0, [1]], 1]]},
    {"sparse": [[[0, -1], 1]]},
    {"sparse": [[[0, 2], 1]]},
    {"sparse": [[[0, 1 << 70], 1]]},
    {"sparse": [[[1, 0], 1], [[0, 1], 1], [[1, 0], 1]]},
    {"sparse": [[[0, 0], True]]},
    {"sparse": [[[0, 0], 1.0]]},
    {"sparse": [[[0, 0], "1"]]},
    {"sparse": [[[0, 0], None]]},
    {"sparse": [[[0, 0], 2]]},
    {"sparse": [[[0, 0], 1 << 70]]},
]


@pytest.mark.parametrize(
    "body",
    [
        {"entries": [1.9, 0, 0, 1]},
        {"entries": ["1", 0, 0, 1]},
        {"entries": [True, 0, 0, 1]},
        {"entries": [None, 0, 0, 1]},
        {"sparse": [[[0, 0], 1], [[1, 1], 1], [[0, 0], 0]]},
        {"entries": [1, 0, 0, 1], "field": {"kind": "binary", "k": True}},
        {"entries": [1, 0, 0, 1], "field": [1]},
        {"entries": [1, 0, 0, 1], "field": "gf2"},
        *MALFORMED_SPARSE,
    ],
    ids=[
        "float",
        "string",
        "bool",
        "null",
        "duplicate-sparse-index",
        "bool-field-degree",
        "list-field",
        "string-field",
        *(json.dumps(body["sparse"]) for body in MALFORMED_SPARSE),
    ],
)
def test_rank_rejects_malformed_entries_exit_two(tmp_path, capsys, body):
    doc = tmp_path / "t.json"
    doc.write_text(json.dumps({**GF2_DOC, **body}))
    assert run(["rank", doc, "--max"]) == 2
    assert "flatrank: error:" in capsys.readouterr().err


def test_rank_sparse_empty_and_unordered(tmp_path, capsys):
    doc = tmp_path / "t.json"
    doc.write_text(json.dumps({**GF2_DOC, "sparse": [[[1, 1], 1], [[0, 0], 1], [[0, 1], 0]]}))
    assert run(["rank", doc, "--sum"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["franks"] == [2, 2]
    doc.write_text(json.dumps({**GF2_DOC, "sparse": []}))
    assert run(["rank", doc, "--sum"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["franks"] == [0, 0]


def dense_document(tmp_path, spec, seed=1):
    """A canonical 8^5 document of random entries over ``spec``, and its path."""
    field = _parse_field(spec)
    values = np.random.default_rng(seed).integers(0, field.order, size=8**5)
    path = tmp_path / f"dense-{field.order}.json"
    path.write_text(tensor_text(Tensor((8,) * 5, field, values)))
    return path


def test_rank_past_the_stacked_cap_ranks_axis_by_axis(tmp_path, capsys):
    # a 2^20-cell GF(2) document on 20 axes: its 20 stacked flattenings would hold
    # 20 * 2^20 entries, past the dense cap, so each axis is ranked on its own (the
    # stack, with a copy of it, took the call to 56.7 MB traced)
    values = np.random.default_rng(20).integers(0, 2, 1 << 20)
    path = tmp_path / "axes-20.json"
    path.write_text(tensor_text(Tensor((2,) * 20, _parse_field("gf2"), values)))
    code, peak = arena_peak(run, ["rank", path, "--max"])
    assert code == 0 and json.loads(capsys.readouterr().out)["results"]["mfrank"] == 2
    assert peak < 24 << 20


@pytest.mark.parametrize("spec", ["gf2", "prime:3", "binary:8"])
def test_rank_pretty_printed_document_same_results(tmp_path, capsys, spec):
    canonical = dense_document(tmp_path, spec)
    pretty = tmp_path / "pretty.json"
    pretty.write_text(json.dumps(json.loads(canonical.read_text()), indent=2))
    reports = []
    for path in (canonical, pretty):
        assert run(["rank", path, "--sum"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0]["inputs_digest"] != reports[1]["inputs_digest"]
    del reports[0]["inputs_digest"], reports[1]["inputs_digest"]
    assert reports[0] == reports[1]
    assert reports[0]["results"]["franks"] == [8] * 5


def largest_step_allocation(fn, *args):
    """Largest rise of traced memory within one bytecode of ``fn``: a bound on any one allocation.

    The peak is read and reset at every bytecode of every Python frame, so
    it bounds each numpy temporary that a line of vectorised code makes.
    """
    largest = last = 0

    def trace(frame, event, arg):
        nonlocal largest, last
        frame.f_trace_opcodes = True
        largest = max(largest, tracemalloc.get_traced_memory()[1] - last)
        tracemalloc.reset_peak()
        last = tracemalloc.get_traced_memory()[0]
        return trace

    tracemalloc.start()
    try:
        last = tracemalloc.get_traced_memory()[0]
        sys.settrace(trace)
        try:
            fn(*args)
        finally:
            sys.settrace(None)
        return max(largest, tracemalloc.get_traced_memory()[1] - last)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec", ["gf2", "prime:3", "binary:8"])
def test_load_dense_document_allocates_no_large_temporary(tmp_path, spec):
    # the benchmark scales op times by a kernel whose 512 KB arrays move once
    # a process frees a block that large, so no load temporary may reach it
    path = dense_document(tmp_path, spec)
    text_bytes = path.stat().st_size
    assert text_bytes >= 64 << 10
    # the bound sees an intp index over the text, which would be 8 bytes per byte
    assert largest_step_allocation(lambda: np.flatnonzero(np.ones(text_bytes, bool))) >= 512 << 10
    assert largest_step_allocation(load_document, str(path)) < 512 << 10
    assert isinstance(load_document(str(path))[0]["entries"], np.ndarray)


def test_load_sparse_document_allocates_no_large_temporary(tmp_path):
    # the 8^5 GF(2) partition written sparse: 2,048 pairs of arity 5
    path = tmp_path / "sparse.json"
    assert run(["construct", "partition", "--a", 8, "--d", 5, "--sparse", "--out", path]) == 0
    doc = load_document(str(path))[0]
    assert isinstance(doc["sparse"], np.ndarray) and doc["sparse"].shape == (2048, 6)
    assert tensor_key(tensor_from_document(doc)) == tensor_key(partition_construction(8, 5, _parse_field("gf2")))
    assert largest_step_allocation(lambda: tensor_from_document(load_document(str(path))[0])) < 512 << 10


@pytest.mark.parametrize("spec", ["gf2", "prime:3", "prime:251", "binary:8"])
@pytest.mark.parametrize("kind", ["partition", "axis-constant"])
def test_construct_writes_canonical_json(capsys, spec, kind):
    field = _parse_field(spec)
    if kind == "partition":
        t, args = partition_construction(8, 5, field), []
        meta = {"construction": "partition", "a": 8, "d": 5}
    else:
        t, args = axis_constant_construction(6, 5, 3, field), ["--axis", "3"]
        meta = {"construction": "axis-constant", "a": 6, "d": 5, "axis": 3}
    a, d = meta["a"], meta["d"]
    assert run(["construct", kind, "--a", a, "--d", d, "--field", spec, *args]) == 0
    out = capsys.readouterr().out
    assert out == canonical_json(tensor_to_document(t, metadata=meta))




def traced_sweep_peak(argv):
    """(exit code, peak of traced memory and the sweep arena) of one CLI call, from an empty arena."""
    return arena_peak(run, argv)


def test_sweep_dense_cap_before_allocation(capsys):
    # a = 4097, d = 2: one tensor would hold 4097^2 = 16.79 M entries
    code, peak = traced_sweep_peak(
        ["experiment", "random-semidiagonal", "--a", 4097, "--d", 2, "--count", 1, "--seed", 1]
    )
    assert code == 2
    assert "over the cap of 16777216 cells" in capsys.readouterr().err
    assert peak < 3 << 20


@pytest.mark.parametrize(
    "kind,extra",
    [("random-semidiagonal", ["--count", 1, "--seed", 1]), ("exhaustive", [])],
    ids=["random-semidiagonal", "exhaustive"],
)
def test_sweep_workspace_cap_before_allocation(capsys, kind, extra):
    # a = 1000, d = 2: a bit-sliced block of even one tensor would gather 2 * 1000^2
    # words of rows, and as many of scratch: 32 MB
    code, peak = traced_sweep_peak(["experiment", kind, "--a", 1000, "--d", 2, *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert "1000^2" in err and "over the cap of 16777216 bytes" in err
    assert peak < 3 << 20


@pytest.mark.parametrize(
    "kind,extra",
    [("random-semidiagonal", ["--count", 1, "--seed", 1]), ("exhaustive", [])],
    ids=["random-semidiagonal", "exhaustive"],
)
def test_sweep_cap_counts_the_cached_indices(capsys, kind, extra):
    # a d = 2 sweep keeps 3 a^2 intp indices for the process, on top of its 32 a^2
    # bytes of rows and scratch: a = 545 is the largest the cap admits.  A small
    # bit-sliced run goes first, untraced: a process's first command builds the
    # parser and imports locale, about 200 KB kept for the process whatever it runs
    from flatrank.caps import MAX_WORKSPACE_BYTES
    from flatrank.search import _plane_index
    from flatrank.tensor import index_class_arrays

    peaks = {}
    try:
        assert run(["experiment", kind, "--a", 33, "--d", 2, *extra]) == 0
        for a in (545, 546):
            _plane_index.cache_clear()
            index_class_arrays.cache_clear()
            peaks[a] = traced_sweep_peak(["experiment", kind, "--a", a, "--d", 2, *extra])
    finally:
        _plane_index.cache_clear()
        index_class_arrays.cache_clear()
    assert peaks[545][0] == 0 and peaks[545][1] <= MAX_WORKSPACE_BYTES, peaks
    assert peaks[546][0] == 2 and peaks[546][1] < 3 << 20
    assert "546^2" in capsys.readouterr().err


def test_larger_field_sweep_cap_counts_its_block(capsys):
    # GF(3) on 2^18, one tensor: 2 MB of stream words and as much mixing scratch, 2 MB
    # of index arrays, 2 MB of residues, 5 MB of entries and flattenings and 7 MB of
    # rank copy and scratch; its traced peak was 19.8 MB when only the words counted
    code, peak = traced_sweep_peak(
        ["experiment", "random-semidiagonal", "--a", 2, "--d", 18, "--count", 1,
         "--seed", 1, "--field", "prime:3"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "2^18" in err and "over the cap of 16777216 bytes" in err
    assert peak < 3 << 20


@pytest.mark.parametrize(
    "argv",
    [
        ["--a", 1000, "--d", 2],  # the workspace cap
        ["--a", 4097, "--d", 2],  # the dense cap
        ["--a", 2, "--d", 18, "--field", "prime:3"],  # one tensor's block passes the cap
        ["--a", 2, "--d", 14, "--count", 59, "--field", "binary:20"],  # the shift-round cap
    ],
    ids=str,
)
def test_refused_sweep_leaves_the_arena(capsys, argv):
    from flatrank import linalg

    assert run(["experiment", "random-semidiagonal", "--a", 4, "--d", 3, "--count", 100, "--seed", 1]) == 0
    arena = linalg._arena.map
    size = linalg._arena_bytes()
    assert run(["experiment", "random-semidiagonal", "--count", 1, "--seed", 1, *argv]) == 2
    assert linalg._arena.map is arena and linalg._arena_bytes() == size > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["random-semidiagonal", "--a", 4, "--d", 3, "--count", 40000, "--seed", 1],  # byte tables
        # bit-sliced, in three blocks, short of one certified block
        ["random-semidiagonal", "--a", 7, "--d", 3, "--count", 9000, "--seed", 1],
        # certified, misses through the byte tables, and bit-sliced
        ["random-semidiagonal", "--a", 5, "--d", 3, "--count", 30000, "--seed", 1],
        ["random-semidiagonal", "--a", 4, "--d", 4, "--count", 15000, "--seed", 1],
        ["random-semidiagonal", "--a", 6, "--d", 3, "--count", 20000, "--seed", 1],
        ["random-semidiagonal", "--a", 7, "--d", 3, "--count", 20000, "--seed", 1],
        # certified, over half missing: the queue fills inside every block and
        # carries the rest into the next
        ["random-semidiagonal", "--a", 13, "--d", 3, "--count", 8000, "--seed", 1],
        ["exhaustive", "--a", 3, "--d", 3],
    ],
    ids=str,
)
def test_gf2_sweep_peaks_at_its_admitted_plan(monkeypatch, capsys, argv):
    # the cap admits a sweep by its plan and the extra bytes it names, numpy's
    # buffers for the bit-sliced kernel's ufunc calls on strided operands
    # among them (196,608 bytes at (7,3)); all else a GF(2) sweep at the
    # default block size allocates, its report included, stays under 64 KB
    # (40 KB for exhaustive (3,3), 24 KB at (4,3)).  A plan buffer of the
    # default random blocks takes 512 KB, of exhaustive (3,3)'s chunks 576 KB.
    # A first, untraced call builds the tables
    admitted = []
    admit = caps.admit

    def counting(factors, what, cap=None, unit="cells"):
        if unit == "bytes":
            admitted.append(math.prod(factors))
        return admit(factors, what, cap, unit)

    monkeypatch.setattr(caps, "admit", counting)
    assert run(["experiment", *argv]) == 0
    code, peak = traced_sweep_peak(["experiment", *argv])
    assert code == 0 and peak <= admitted[-1] + (64 << 10), (peak, admitted[-1])


def _traced_sweep(monkeypatch, spec, a, d, count):
    """(exit code, :func:`traced_sweep_peak`) of one sweep, its shape's index arrays built in it.

    A small sweep over the same field runs first, untraced, so that the
    modules numpy imports on first use are not counted.
    """
    from flatrank.search import _draw_index, _plane_index
    from flatrank.tensor import index_class_arrays

    argv = lambda a, d, count: ["experiment", "random-semidiagonal", "--a", a, "--d", d,
                                "--count", count, "--seed", 1, "--field", spec]
    assert run(argv(3, 3, 2)) == 0
    for cache in (_draw_index, _plane_index, index_class_arrays):
        cache.cache_clear()
    try:
        return traced_sweep_peak(argv(a, d, count))
    finally:
        for cache in (_draw_index, _plane_index, index_class_arrays):
            cache.cache_clear()


def test_threads_variable_is_not_read(monkeypatch, capsys):
    # FLATRANK_THREADS=2 once split this sweep over two workers with a workspace
    # each, while the cap counted one: 23.6 MB traced against the 16.8 MB cap
    from flatrank.caps import MAX_WORKSPACE_BYTES

    monkeypatch.delenv("FLATRANK_THREADS", raising=False)
    assert _traced_sweep(monkeypatch, "prime:3", 27, 4, 2)[0] == 0
    unset = capsys.readouterr().out
    monkeypatch.setenv("FLATRANK_THREADS", "2")
    code, peak = _traced_sweep(monkeypatch, "prime:3", 27, 4, 2)
    assert code == 0 and peak <= MAX_WORKSPACE_BYTES, peak
    assert capsys.readouterr().out == unset


# values that once chose a worker count, or were refused with exit 2
@pytest.mark.parametrize("value", ["1", "2", "4", "0", "-1", "junk", ""])
def test_threads_variable_changes_no_report(monkeypatch, capsys, value):
    commands = (
        ["experiment", "exhaustive", "--a", 3, "--d", 3],
        ["experiment", "random-semidiagonal", "--a", 5, "--d", 3, "--count", 300, "--seed", 4],
        ["experiment", "random-semidiagonal", "--a", 3, "--d", 3, "--count", 40, "--seed", 4,
         "--field", "prime:3"],
    )
    monkeypatch.delenv("FLATRANK_THREADS", raising=False)
    unset = []
    for argv in commands:
        assert run(argv) == 0
        unset.append(capsys.readouterr().out)
    monkeypatch.setenv("FLATRANK_THREADS", value)
    for argv, want in zip(commands, unset):
        assert run(argv) == 0
        assert capsys.readouterr().out == want


@pytest.mark.parametrize(
    "spec,a,d,count",
    [
        ("binary:8", 3, 3, 40000),  # 20.3 MB traced while the elimination's temporaries went uncounted
        ("prime:3", 3, 3, 60000),  # 17.2 MB
        ("prime:3", 2, 2, 300000),  # d = 2: the N-sized arrays outweigh the 2x2 flattenings
        ("prime:3", 3, 2, 300000),
        ("binary:8", 2, 2, 300000),
        ("prime:3", 2, 17, 1),  # the largest one-tensor block the cap admits on 2^d
        ("prime:2147483647", 2, 15, 1),
        ("binary:8", 2, 16, 1),
        ("binary:20", 3, 3, 40000),  # shift-and-XOR clears, in groups of the plan's scratch
    ],
    ids=str,
)
def test_larger_field_sweeps_peak_within_the_cap(monkeypatch, capsys, spec, a, d, count):
    from flatrank.caps import MAX_WORKSPACE_BYTES

    code, peak = _traced_sweep(monkeypatch, spec, a, d, count)
    assert code == 0 and peak <= MAX_WORKSPACE_BYTES, peak


ROUND_CAP = "rounds, over the cap of 536870912 rounds"
BLOCK_CAP = "over the cap of 16777216 bytes"


@pytest.mark.parametrize(
    "a,d,count,refused",
    [
        (2, 16, 1, None),  # 79 s for one tensor by scalar elimination
        (2, 6, 10083, None),  # 38.5 s
        (2, 14, 27, None),  # 38.9 s
        (2, 14, 58, None),  # 58 * 14 * 2^15 multiplications of 20 rounds, the largest count on 2^14
        (2, 14, 59, ROUND_CAP),
        # on a^2 no step clears, so the round cap does not apply: 238 was refused by it
        (238, 2, 1, None),
        (894, 2, 1, None),  # the workspace edge
        (895, 2, 1, BLOCK_CAP),
    ],
    ids=str,
)
def test_sweeps_at_the_shift_round_cap(monkeypatch, capsys, a, d, count, refused):
    import flatrank.search as search

    def drawn(*args):
        raise AssertionError("a tensor was drawn")

    if refused:
        monkeypatch.setattr(search, "_stream_block", drawn)
    argv = ["experiment", "random-semidiagonal", "--a", a, "--d", d, "--count", count, "--seed", 1]
    assert run(argv + ["--field", "binary:20"]) == (2 if refused else 0)
    err = capsys.readouterr().err
    assert (ROUND_CAP in err) == (refused == ROUND_CAP) and (BLOCK_CAP in err) == (refused == BLOCK_CAP)


def test_rank_over_the_shift_round_cap_exits_2(capsys, tmp_path):
    # one 300 x 300 matrix: 300^3 multiplications of 20 rounds; 299 x 299 is admitted
    from flatrank.field import make_binary_field

    field = make_binary_field(20)
    for n, code in ((299, 0), (300, 2)):
        doc = tmp_path / f"identity_{n}.json"
        doc.write_text(json.dumps(tensor_to_document(Tensor((n, n), field, np.eye(n, dtype=np.int64)))))
        assert run(["rank", doc, "--max"]) == code
    assert "rank of 1 300x300 matrices needs 540000000 rounds, over the cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec,a",
    [("prime:3", 982), ("prime:2147483647", 611), ("binary:8", 1208), ("binary:20", 894)],
)
def test_larger_field_cap_edge_on_a_squared(monkeypatch, capsys, spec, a):
    # the largest admitted d = 2 shape, the elimination's temporaries and numpy's
    # buffers counted: one more row and column passes the cap
    from flatrank.caps import MAX_WORKSPACE_BYTES

    code, peak = _traced_sweep(monkeypatch, spec, a, 2, 1)
    assert code == 0 and peak <= MAX_WORKSPACE_BYTES, peak
    code, peak = _traced_sweep(monkeypatch, spec, a + 1, 2, 1)
    assert code == 2 and peak < 3 << 20
    assert f"{a + 1}^2" in capsys.readouterr().err


def test_gf2_16_cap_edge_counts_the_log_tables_in_a_fresh_process():
    # the process's first use of GF(2^16) builds its log tables, 1.05 MB kept and
    # 2.6 MB planned with their build; uncounted, they took the admitted a = 1070
    # sweep to 24.5 MB traced.  No earlier call builds the tables, the parser
    # or numpy's lazily imported modules; the sweep arena is counted as in
    # traced_sweep_peak
    from flatrank.caps import MAX_WORKSPACE_BYTES

    code = (
        "import sys\n"
        "from arena_peak import arena_peak\n"
        "from flatrank.cli import main\n"
        "print(*arena_peak(main, sys.argv[1:]), file=sys.stderr)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), str(SRC.parent / "tests"), os.environ.get("PYTHONPATH")]))
    results = {}
    for a in (979, 980):
        argv = ["experiment", "random-semidiagonal", "--a", a, "--d", 2, "--count", 1,
                "--seed", 1, "--field", "binary:16"]
        proc = subprocess.run(
            [sys.executable, "-c", code, *map(str, argv)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        *err, last = proc.stderr.splitlines()
        results[a] = (*map(int, last.split()), "\n".join(err))
    assert results[979][0] == 0 and results[979][1] <= MAX_WORKSPACE_BYTES, results
    assert results[980][0] == 2 and results[980][1] < 3 << 20, results
    assert "980^2" in results[980][2] and "over the cap of 16777216 bytes" in results[980][2]


@pytest.mark.parametrize(
    "spec,a,d",
    [("prime:3", 3, 3), ("binary:8", 2, 10), ("prime:251", 3, 5), ("prime:3", 2, 16), ("binary:8", 4, 3)],
)
def test_larger_field_blocks_shrink_to_the_cap(monkeypatch, spec, a, d):
    # a block takes BLOCK_BYTES over one tensor's largest buffer, at least one ((2, 16):
    # one tensor's stack is 1 MB), so its largest buffer stays within BLOCK_BYTES ((4, 3)
    # GF(2^8): the capped gather scratch, largest for one tensor, is not for the block);
    # its plan fits the cap
    from flatrank import search

    blocks = []

    def scan(total, block, sizes, *args):
        blocks.append((block, sizes))
        return (0, 0), (0, 0), 0, None

    monkeypatch.setattr(search, "_scan_blocks", scan)
    field = _parse_field(spec)
    search.random_semidiagonal_sweep(a, d, 10**6, 1, field)
    largest = lambda n: search._largest_buffer(search._field_sizes(a, d, n, field))

    ((n, sizes),) = blocks
    assert sizes == search._field_sizes(a, d, n, field)
    assert n == max(1, search.BLOCK_BYTES // largest(1))
    assert largest(n) <= search.BLOCK_BYTES or n == 1
    assert search._Workspace.nbytes(sizes) <= caps.MAX_WORKSPACE_BYTES


@pytest.mark.parametrize("command", [["experiment", "exhaustive"], ["construct", "partition"]], ids=" ".join)
def test_huge_exponent_refused_at_once(capsys, command):
    # 3^(10^8) would take minutes to compute before the comparison with the cap; the
    # refusal takes milliseconds, and the bound leaves room for a loaded host
    started = time.perf_counter()
    code = run([*command, "--a", 3, "--d", 100_000_000])
    elapsed = time.perf_counter() - started
    assert code == 2
    assert "3^100000000 needs at least 43046721 cells, over the cap of 16777216 cells" in capsys.readouterr().err
    assert elapsed < 5


@pytest.mark.parametrize("command", [["rank"], ["verify", "oddtown"]], ids=" ".join)
def test_deeply_nested_document_exit_two(tmp_path, capsys, command):
    # nesting past the interpreter's recursion limit is bad input, not a failed hypothesis
    doc = tmp_path / "deep.json"
    doc.write_text('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}")
    args = command + [doc] + (["--max"] if command == ["rank"] else [])
    assert run(args) == 2
    err = capsys.readouterr().err
    assert "flatrank: error:" in err and "Traceback" not in err


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        run(["rank", FIXTURES / "partition_4_3.json"])  # no mode flag
    assert exc.value.code == 2


def _exit_of(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--version"],
        ["nope"],  # an unknown command
        ["--out", "x"],  # an unknown option before the command
        ["rank"],  # a missing positional
        ["rank", "t.json"],  # a missing required group
        ["rank", "t.json", "--max", "--sum"],  # exclusive options
        ["rank", "t.json", "--max", "extra", "--flag"],  # leftovers, at the top level
        ["rank", "t.json", "--max", "--version"],
        ["rank", "-h"],
        ["construct", "cube", "--a", "2", "--d", "3"],  # an invalid choice
        ["verify", "fw", "x.json", "--distinct", "cells"],
        ["experiment", "exhaustive", "--a", "x"],  # a bad integer
        ["experiment", "exhaustive", "--a"],  # an option without its value
        ["experiment", "exhaustive", "--a", "2", "--d", "3", "4"],
    ],
    ids=str,
)
def test_subcommand_parse_errors_match_the_full_parser(capsys, argv):
    # a named subcommand is parsed by its own parser; every error path exits as
    # the full parser does, with the same output and code
    from flatrank.cli import _parse_args, build_parser

    want = _exit_of(build_parser()[0].parse_args, argv, capsys)
    assert _exit_of(_parse_args, argv, capsys) == want
    assert want[0] == 0 or "error:" in want[2]


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "t.json", "--axis", "1", "--out", "r.json"],
        ["verify", "fw", "f.json", "--config", "c.json", "--distinct", "positions"],
        ["experiment", "random-semidiagonal", "--a", "4", "--d", "3", "--count", "9", "--seed", "7"],
        ["construct", "axis-constant", "--a", "3", "--d", "3", "--axis", "1", "--sparse"],
    ],
    ids=str,
)
def test_subcommand_parse_matches_the_full_parser(argv):
    from flatrank.cli import _parse_args, build_parser

    assert vars(_parse_args(argv)) == vars(build_parser()[0].parse_args(argv))


@pytest.mark.parametrize(
    "args,golden",
    [
        (["rank", FIXTURES / "partition_4_3.json", "--max"], "rank_partition_max.json"),
        (["verify", "oddtown", FIXTURES / "oddtown_singletons.json"], "verify_oddtown.json"),
        (["verify", "rainbow", FIXTURES / "k4_hypergraph.json"], "verify_rainbow_k4.json"),
        (["experiment", "exhaustive", "--a", "2", "--d", "3"], "experiment_exhaustive_2_3.json"),
        (
            ["experiment", "random-semidiagonal", "--field", "prime:3", "--a", "3", "--d", "3"]
            + ["--count", "2000", "--seed", "11"],
            "experiment_random_gf3_3_3.json",
        ),
        (
            ["experiment", "random-semidiagonal", "--field", "binary:2", "--a", "3", "--d", "3"]
            + ["--count", "500", "--seed", "12"],
            "experiment_random_gf4_3_3.json",
        ),
        (
            ["experiment", "random-semidiagonal", "--field", "gf2", "--a", "8", "--d", "3"]
            + ["--count", "40", "--seed", "13"],
            "experiment_random_gf2_8_3.json",
        ),
        (
            ["verify", "bollobas", FIXTURES / "bollobas_classic.json"],
            "verify_bollobas_classic.json",
        ),
        (
            ["experiment", "random-semidiagonal", "--field", "gf2", "--a", "9", "--d", "3"]
            + ["--count", "300", "--seed", "19"],
            "experiment_random_gf2_9_3.json",
        ),
    ],
)
def test_golden_reports(tmp_path, capsys, args, golden):
    out = tmp_path / "report.json"
    assert run(list(args) + ["--out", out]) == 0
    want = (GOLDEN / golden).read_bytes()
    assert out.read_bytes() == want
    assert capsys.readouterr().out.encode() == want


def test_repeated_calls_match_fresh_processes(tmp_path, capsys):
    # the parser is built once per process; no call may see another's options
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"members": [1, 1], "n": 3}))  # a witness only with positions
    csv_path = tmp_path / "sum.csv"
    sweep = ["experiment", "random-semidiagonal", "--a", "3", "--d", "3", "--count", "50"]
    calls = [
        ["rank", FIXTURES / "partition_4_3.json", "--axis", "1"],
        ["rank", FIXTURES / "partition_4_3.json", "--max"],
        ["verify", "fw", fam, "--config", FIXTURES / "fw_config.json", "--distinct", "positions"],
        ["verify", "fw", fam, "--config", FIXTURES / "fw_config.json"],
        sweep + ["--seed", "4", "--csv", csv_path],
        sweep + ["--seed", "4"],
    ]

    def csv_written():
        if not csv_path.exists():
            return None
        text = csv_path.read_text()
        csv_path.unlink()
        return text

    results = []
    for args in calls:
        code = run(args)
        captured = capsys.readouterr()
        got = (code, captured.out.encode(), captured.err.encode(), csv_written())
        fresh = run_process(args)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr, csv_written()), args
        results.append(got)
    # each option changes the outcome, so a leaked option would show above
    assert "frank" in json.loads(results[0][1])["results"]
    assert "witness" in json.loads(results[2][1])["results"]
    assert "franks" in json.loads(results[3][1])["results"]
    assert results[4][3] is not None and results[5][3] is None


def test_cli_process_smoke():
    version = run_process(["--version"])
    assert version.returncode == 0 and version.stdout.startswith(b"flatrank ")
    ok = run_process(["rank", FIXTURES / "partition_4_3.json", "--max"])
    assert ok.returncode == 0
    assert ok.stdout == (GOLDEN / "rank_partition_max.json").read_bytes()
    failed = run_process(["verify", "oddtown", FIXTURES / "oddtown_bad.json"])
    assert failed.returncode == 1
    assert failed.stdout == (GOLDEN / "verify_oddtown_bad.json").read_bytes()
    assert failed.stderr.startswith(b"flatrank: verification failed:")
    for args in (["rank", FIXTURES / "corrupt.json", "--max"], ["rank", FIXTURES / "zero_2x2.json"]):
        bad = run_process(args)
        assert bad.returncode == 2 and bad.stdout == b"", args
        assert b"Traceback" not in bad.stderr, args


def test_construct_rank_round_trip(tmp_path, capsys):
    doc = tmp_path / "t.json"
    assert run(["construct", "partition", "--a", "5", "--d", "3", "--out", doc]) == 0
    assert run(["rank", doc, "--max"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["mfrank"] == 3

    assert run(
        ["construct", "axis-constant", "--a", "3", "--d", "3", "--axis", "0", "--out", doc]
    ) == 0
    assert run(["rank", doc, "--axis", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["frank"] == 1


def test_construct_sparse_equals_dense(tmp_path, capsys):
    dense = tmp_path / "dense.json"
    sparse = tmp_path / "sparse.json"
    assert run(["construct", "partition", "--a", "4", "--d", "2", "--out", dense]) == 0
    assert run(["construct", "partition", "--a", "4", "--d", "2", "--sparse", "--out", sparse]) == 0
    from flatrank.formats import load_document, tensor_from_document

    assert tensor_key(tensor_from_document(load_document(str(dense))[0])) == tensor_key(
        tensor_from_document(load_document(str(sparse))[0])
    )


def test_construct_invalid_params_exit_two():
    assert run(["construct", "partition", "--a", "0", "--d", "3"]) == 2
    assert run(["construct", "axis-constant", "--a", "3", "--d", "3"]) == 2  # missing --axis


def test_verify_oddtown_failure_exit_one(capsys):
    assert run(["verify", "oddtown", FIXTURES / "oddtown_bad.json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["is_cross_oddtown"] is False


def test_verify_oddtown_failure_golden(tmp_path, capsys):
    # a non-cross-Oddtown family: the report still carries the derived
    # semi_diagonal, certificate_reconstructs and franks fields
    out = tmp_path / "report.json"
    assert run(["verify", "oddtown", FIXTURES / "oddtown_bad.json", "--out", out]) == 1
    want = (GOLDEN / "verify_oddtown_bad.json").read_bytes()
    assert out.read_bytes() == want
    assert capsys.readouterr().out.encode() == want


def test_verify_bollobas_failure_golden(tmp_path, capsys):
    # three copies of one member: the report carries the first violating assignment
    out = tmp_path / "report.json"
    assert run(["verify", "bollobas", FIXTURES / "bollobas_bad.json", "--out", out]) == 1
    want = (GOLDEN / "verify_bollobas_bad.json").read_bytes()
    assert out.read_bytes() == want
    assert capsys.readouterr().out.encode() == want


def test_verify_oddtown_masks_wider_than_a_word(tmp_path, capsys):
    # 70 singletons: each mask spans two 64-bit limbs; the parity tensor is I_70
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"d": 2, "members": [[1 << i, 1 << i] for i in range(70)], "n": 70}))
    assert run(["verify", "oddtown", fam]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["verified"] and results["franks"] == [70, 70]


def test_verify_oddtown_grid_cap_before_allocation(tmp_path, capsys):
    # 70 members at d = 4: the parity grid would hold 70^4 = 24.0 M cells
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"d": 4, "members": [[1 << (i % 8)] * 4 for i in range(70)], "n": 8}))
    tracemalloc.start()
    try:
        code = run(["verify", "oddtown", fam])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "over the cap of 16777216 cells" in capsys.readouterr().err
    assert peak < 3 << 20


@pytest.mark.parametrize("n", [1 << 63, 2_000_000])
def test_verify_oddtown_certificate_cap_before_allocation(tmp_path, capsys, n):
    # the 3-member singleton family over a huge ground set: the (n, d, m)
    # certificate and the Khatri-Rao products that reconstruct it
    doc = json.loads((FIXTURES / "oddtown_singletons.json").read_text())
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({**doc, "n": n}))
    tracemalloc.start()
    try:
        code = run(["verify", "oddtown", fam])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert f"certificate over {n} elements" in err and "over the cap of 16777216 cells" in err
    assert peak < 3 << 20


# families over a ground set of 10^12: limbs are as wide as the masks, not as n
TERA_GROUND = [
    (
        "fw_bad_family.json",
        "n",
        ["verify", "fw", "{doc}", "--config", FIXTURES / "fw_config.json"],
        1,
        "ebf60f4ca5eec44a2f1c22072e6dffb1ed05f6c6fabea324794582ddd3dd9bfe",
        {
            "flattening_bounds": [10**12 + 1, 10**12 + 1],
            "k": 2,
            "p": 2,
            "satisfying": False,
            "size": 2,
            "size_bound": 10**12 + 1,
            "size_violations": [],
            "witness": [0, 1],
        },
    ),
    (
        "bollobas_classic.json",
        "base",
        ["verify", "bollobas", "{doc}"],
        0,
        "aec49a318c6bf6b26a4e3557faf7f7668d346b92ed30755903ec1e7852230a0a",
        {
            "bound": 2,
            "bound_ok": True,
            "field": {"k": 40, "kind": "binary"},
            "hypothesis_ok": True,
            "lower_bound_ok": True,
            "mfrank": 2,
            "semi_diagonal": True,
            "size": 2,
            "sizes": [1, 1],
            "upper_bound_ok": True,
            "verified": True,
        },
    ),
    ("oddtown_singletons.json", "n", ["verify", "oddtown", "{doc}"], 2, None, None),
]


@pytest.mark.parametrize("fixture,key,argv,code,sha256,results", TERA_GROUND, ids=["fw", "bollobas", "oddtown"])
def test_tera_ground_sets_allocate_nothing_in_proportion(tmp_path, capsys, fixture, key, argv, code, sha256, results):
    doc = json.loads((FIXTURES / fixture).read_text())
    doc[key] = 10**12
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        got = run([path if a == "{doc}" else a for a in argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert got == code and peak < 3 << 20
    if results is None:  # the certificate's n x d x m cells pass the dense cap
        assert out == "" and "certificate over 1000000000000 elements" in err
    else:  # the report, byte for byte
        assert json.loads(out)["results"] == results and hashlib.sha256(out.encode()).hexdigest() == sha256


FW_FAMILY = {"members": [1, 2], "n": 3}
FW_CONFIG = {"C": [[0, 1]], "L": [0], "k": 2, "p": 2}
BOLLOBAS = {"base": 2, "members": [[1, 2], [2, 1]], "sizes": [1, 1]}
BADBOX = {"attempts": 1, "k": 8, "members_factors": [[4, 1], [4, 7]], "s": 2, "seed": 7, "t": 3}


@pytest.mark.parametrize(
    "target,doc,config",
    [
        ("oddtown", {"d": 2, "members": [[[True], [True]]], "n": 2}, None),
        ("oddtown", {"d": 2, "members": [[1, 1]], "n": True}, None),
        ("oddtown", {"d": 2.0, "members": [[1, 1]], "n": 3}, None),
        ("fw", {"members": [[True]], "n": 2}, FW_CONFIG),
        ("fw", {"members": [1], "n": True}, FW_CONFIG),
        ("fw", FW_FAMILY, {**FW_CONFIG, "L": ["0"]}),
        ("fw", FW_FAMILY, {**FW_CONFIG, "L": [0.7]}),
        ("bollobas", {**BOLLOBAS, "sizes": ["1", 1]}, None),
        ("bollobas", {**BOLLOBAS, "sizes": [1.0, 1]}, None),
        ("badbox", {**BADBOX, "attempts": "1"}, None),
        ("badbox", {**BADBOX, "seed": 7.5}, None),
        ("rainbow", {"N": 4, "colors": 5, "r": 2, "t": 2}, None),
        ("bollobas", {**BOLLOBAS, "members": 3}, None),
        ("oddtown", {"d": 2, "members": 3, "n": 2}, None),
        ("fw", {"members": 3, "n": 2}, FW_CONFIG),
        ("fw", FW_FAMILY, {**FW_CONFIG, "C": 5}),
        ("badbox", {**BADBOX, "members_factors": 5}, None),
        ("oddtown", {"members": [5], "n": 3}, None),  # d read off a member that is no list
        ("oddtown", {"d": 2, "members": [[1, True]], "n": 2}, None),  # a boolean among int masks
    ],
    ids=[
        "oddtown-bool-element",
        "oddtown-bool-n",
        "oddtown-float-d",
        "fw-bool-element",
        "fw-bool-n",
        "fw-string-residue",
        "fw-float-residue",
        "bollobas-string-size",
        "bollobas-float-size",
        "badbox-string-attempts",
        "badbox-float-seed",
        "rainbow-int-colors",
        "bollobas-int-members",
        "oddtown-int-members",
        "fw-int-members",
        "fw-int-C",
        "badbox-int-factors",
        "oddtown-int-member-no-d",
        "oddtown-bool-mask",
    ],
)
def test_verify_rejects_coercible_values_exit_two(tmp_path, capsys, target, doc, config):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    args = ["verify", target, path]
    if config is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", cfg]
    assert run(args) == 2
    assert "flatrank: error:" in capsys.readouterr().err


def test_verify_fw_ok_and_bad(capsys):
    assert (
        run(
            [
                "verify",
                "fw",
                FIXTURES / "fw_singletons.json",
                "--config",
                FIXTURES / "fw_config.json",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert (
        run(
            [
                "verify",
                "fw",
                FIXTURES / "fw_bad_family.json",
                "--config",
                FIXTURES / "fw_config.json",
            ]
        )
        == 1
    )
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["witness"] is not None


def test_verify_fw_masks_wider_than_a_word(tmp_path, capsys):
    # 70 singletons: each mask spans two 64-bit limbs; the fw tensor is I_70
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"members": [1 << i for i in range(70)], "n": 70}))
    assert run(["verify", "fw", fam, "--config", FIXTURES / "fw_config.json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["verified"] and results["franks"] == [70, 70]


def test_verify_fw_grid_cap_before_allocation(tmp_path, capsys):
    # 17 members at k = 6: the assignment grids would hold 17^6 = 24.1 M cells
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"members": [1 << i for i in range(17)], "n": 17}))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"C": [[0, 1]], "L": [0], "k": 6, "p": 2}))
    tracemalloc.start()
    try:
        code = run(["verify", "fw", fam, "--config", cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "over the cap of 16777216 cells" in capsys.readouterr().err
    assert peak < 17**6 // 8


def test_verify_fw_requires_config():
    assert run(["verify", "fw", FIXTURES / "fw_singletons.json"]) == 2


def test_verify_rainbow_matching_exit_one(capsys):
    assert run(["verify", "rainbow", FIXTURES / "rainbowful.json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["rainbow_matching"] is not None


def test_verify_rainbow_rejects_field_degree_zero(capsys):
    assert run(["verify", "rainbow", FIXTURES / "k4_hypergraph.json", "--field-k", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "extension degree" in captured.err


def hyperplane_colors(dim, count):
    """``count`` parallel classes of hyperplanes of AG(dim, 3), as point masks.

    Each class is 3 disjoint hyperplanes covering the 3^dim points, and
    hyperplanes of different classes always meet, so no two disjoint edges
    have distinct colors: there is no rainbow matching, and the matching
    search fails after one pass over pairs of edges.
    """
    points = np.array(list(itertools.product(range(3), repeat=dim)))
    normals = [a for a in itertools.product(range(3), repeat=dim) if any(a)]
    normals = [a for a in normals if a[next(i for i, x in enumerate(a) if x)] == 1][:count]
    values = np.array(normals) @ points.T % 3
    def mask(bits):
        return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")

    return [[mask(row == s) for s in range(3)] for row in values]


def test_verify_rainbow_grid_cap_before_allocation(tmp_path, capsys):
    # 257 colors at t = 3: the wedge grid would hold 257^3 = 16.97 M cells
    doc = tmp_path / "hypergraph.json"
    doc.write_text(json.dumps({"N": 729, "colors": hyperplane_colors(6, 257), "r": 243, "t": 3}))
    tracemalloc.start()
    try:
        code = run(["verify", "rainbow", doc])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "257^3 needs 16974593 cells, over the cap of 16777216 cells" in capsys.readouterr().err
    assert peak < 3 << 20


def test_verify_bollobas(capsys):
    assert run(["verify", "bollobas", FIXTURES / "bollobas_classic.json"]) == 0
    capsys.readouterr()
    assert run(["verify", "bollobas", FIXTURES / "bollobas_bad.json"]) == 1


def test_verify_badbox(capsys):
    assert run(["verify", "badbox", FIXTURES / "badbox_family.json"]) == 0


def test_verify_badbox_failure_carries_the_clique(tmp_path, capsys):
    doc = tmp_path / "badbox.json"
    doc.write_text(json.dumps({"t": 3, "s": 1, "k": 2, "members_factors": [[1], [2], [7]]}))
    assert run(["verify", "badbox", doc]) == 1
    captured = capsys.readouterr()
    assert captured.err == "flatrank: verification failed: bad-box family failed verification\n"
    results = json.loads(captured.out)["results"]
    assert results["witness"] == [0, 2]  # {0} and {0, 1, 2} meet in one element
    assert not results["badbox_free"] and not results["verified"]


def test_verify_badbox_even_factor_exit_two(tmp_path, capsys):
    # factor 3 = {0, 1} has even size, so member 0 is no product of odd-sized subsets:
    # bad input, where it once failed verification with no witness
    doc = tmp_path / "badbox.json"
    doc.write_text(json.dumps({"t": 3, "s": 1, "k": 2, "members_factors": [[3], [4]]}))
    assert run(["verify", "badbox", doc]) == 2
    assert "member 0 factor 0 has even size 2" in capsys.readouterr().err


def test_verify_badbox_cap_before_the_masks(tmp_path, capsys):
    # two members on [3]^15: the flat masks would hold 2 * 3^15 = 28.7 M cells
    doc = tmp_path / "badbox.json"
    doc.write_text(json.dumps({"t": 3, "s": 15, "k": 8, "members_factors": [[1] * 15] * 2}))
    tracemalloc.start()
    try:
        code = run(["verify", "badbox", doc])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "2 bad-box members over [3]^15 needs 28697814 cells, over the cap of 16777216 cells" in err
    assert peak < 3 << 20


def test_verify_empty_hypergraph_vacuous(tmp_path, capsys):
    doc = tmp_path / "hypergraph.json"
    doc.write_text(json.dumps({"N": 4, "colors": [], "r": 2, "t": 2}))
    assert run(["verify", "rainbow", doc]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["verified"] and results["z"] == 0 and results["rainbow_matching"] is None


RANDOMIZED = {
    "random-semidiagonal": ["--a", "3", "--d", "3", "--count", "5"],
    "badbox-sample": ["--t", "3", "--s", "1"],
    "oddtown-search": ["--n", "3", "--d", "2", "--budget", "5"],
}


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
@pytest.mark.parametrize("kind", sorted(RANDOMIZED))
def test_experiment_seed_outside_64_bits_exit_two(capsys, kind, seed):
    assert run(["experiment", kind, *RANDOMIZED[kind], "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"flatrank: error: --seed must be in [0, 2^64), got {seed}\n"
    assert run(["experiment", kind, *RANDOMIZED[kind], "--seed", str((1 << 64) - 1)]) == 0


def test_badbox_sample_cap_names_the_cap(capsys):
    args = ["experiment", "badbox-sample", "--t", "3", "--s", "10000000", "--seed", "1"]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err == "flatrank: error: bad-box ground set 3^10000000 needs at least 27 cells, over the cap of 25 cells\n"


def test_experiment_requires_seed():
    assert run(["experiment", "random-semidiagonal", "--a", "3", "--d", "3", "--count", "10"]) == 2
    assert run(["experiment", "badbox-sample", "--t", "3", "--s", "1"]) == 2


def test_experiment_cap_exceeded_exit_two():
    assert run(["experiment", "exhaustive", "--a", "4", "--d", "3"]) == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--a", "0", "--d", "3", "--count", "5"],
        ["--a", "3", "--d", "1", "--count", "5"],
        ["--a", "3", "--d", "3", "--count", "-3"],
    ],
    ids=["a-zero", "d-one", "negative-count"],
)
def test_random_semidiagonal_rejects_bad_arguments_exit_two(capsys, flags):
    assert run(["experiment", "random-semidiagonal", *flags, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("flatrank: error: need ")


def test_experiment_seeded_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    common = ["experiment", "random-semidiagonal", "--a", "4", "--d", "3", "--count", "2000", "--seed", "9"]
    assert run(common + ["--out", a]) == 0
    assert run(common + ["--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_badbox_sample_lists_no_odd_subsets(capsys):
    # t = 25 has 2^24 odd subsets of [t]; a family of 64 members draws 64 of them
    tracemalloc.start()
    try:
        code = run(["experiment", "badbox-sample", "--t", 25, "--s", 1, "--seed", 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 3 << 20
    results = json.loads(capsys.readouterr().out)["results"]
    assert len(results["family"]["members_factors"]) == 64


def test_experiment_badbox_sample(tmp_path, capsys):
    out = tmp_path / "bb.json"
    assert run(["experiment", "badbox-sample", "--t", "3", "--s", "2", "--seed", "7", "--out", out]) == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["size"] == 2
    assert doc["seed"] == 7


def test_experiment_oddtown_search(capsys):
    assert run(
        ["experiment", "oddtown-search", "--n", "3", "--d", "2", "--budget", "200", "--seed", "3"]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["largest_size"] == 3


def test_oddtown_search_grid_cap_before_allocation(monkeypatch, capsys):
    # at d = 10 the family reaches 10 members, whose final grid is 10^10
    # cells (the first greedy step that needs a grid, at 9 members, 9^9): the
    # search is refused before it tests any tuple
    from flatrank import search

    tested, real = [], search.try_extend_cross_oddtown
    monkeypatch.setattr(search, "try_extend_cross_oddtown", lambda *args: tested.append(args) or real(*args))
    tracemalloc.start()
    try:
        code = run(
            ["experiment", "oddtown-search", "--n", "2", "--d", "10", "--budget", "10", "--seed", "1"]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "over the cap of 16777216 cells" in capsys.readouterr().err
    assert peak < 3 << 20
    assert tested == []


def test_oddtown_search_walks_only_the_members_it_tests(capsys):
    # a budget of 2 walks 2 of the (d-1) n = 8,192 repeated-singleton members,
    # each split into limbs of width n / 64, and the family grows in place
    tracemalloc.start()
    try:
        code = run(
            ["experiment", "oddtown-search", "--n", "4096", "--d", "3", "--budget", "2", "--seed", "1"]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(capsys.readouterr().out)["results"]["largest_size"] == 2
    assert peak < 3 << 20


def test_oddtown_search_rejects_negative_budget_exit_two(capsys):
    args = ["experiment", "oddtown-search", "--n", "4", "--d", "2", "--budget", "-5", "--seed", "1"]
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("flatrank: error: need budget >= 0")


@pytest.mark.parametrize("attempts", ["0", "-4"])
def test_badbox_sample_rejects_nonpositive_attempts_exit_two(capsys, attempts):
    args = ["experiment", "badbox-sample", "--t", "3", "--s", "1", "--seed", "1"]
    assert run(args + ["--max-attempts", attempts]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("flatrank: error: need max_attempts >= 1")


def test_badbox_sample_out_of_attempts_exits_one(monkeypatch, capsys):
    # no admitted (t, s) samples k members, so no attempt can fail; with k patched to 1
    # every sampled family holds a 1-clique, and each of the attempts is used up
    from flatrank import fw

    monkeypatch.setattr(fw, "badbox_clique_order", lambda t: 1)
    args = ["experiment", "badbox-sample", "--t", "3", "--s", "2", "--seed", "7", "--max-attempts", "3"]
    assert run(args) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["results"] == {"failed_attempts": 3, "family": None}
    assert captured.err == "flatrank: verification failed: bad-box sampler failed 3 attempts\n"


def test_unknown_field_spec_exits_two(capsys):
    assert run(["construct", "partition", "--a", "3", "--d", "3", "--field", "gf7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "flatrank: error: unknown field spec 'gf7'; use gf2, prime:P, or binary:K\n"


def test_experiment_csv_summary(tmp_path):
    csv_path = tmp_path / "sum.csv"
    assert run(
        [
            "experiment",
            "random-semidiagonal",
            "--a",
            "3",
            "--d",
            "3",
            "--count",
            "500",
            "--seed",
            "1",
            "--csv",
            csv_path,
        ]
    ) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert "min_mfrank" in lines[0]


@pytest.mark.parametrize("k", ["0", "-1"])
def test_verify_badbox_k_flag_below_one_exit_two(capsys, k):
    # --k 0 once fell back to the document's k and verified
    assert run(["verify", "badbox", FIXTURES / "badbox_family.json", "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"k must be >= 1, got {k}" in captured.err


@pytest.mark.parametrize(
    "doc",
    [
        # the size and k of `experiment badbox-sample --t 25 --s 1`: 64 members, k = 2^26 // 24
        {"t": 25, "s": 1, "k": 2_796_202, "members_factors": [[7]] * 64},
        {**BADBOX, "k": 1 << 70},
    ],
    ids=["sampled-k", "k-2^70"],
)
def test_verify_badbox_fewer_members_than_k(tmp_path, capsys, doc):
    # fewer than k members hold no k-clique and no k distinct members: verified, with
    # no configuration of C(k, 2) pairs built first
    path = tmp_path / "badbox.json"
    path.write_text(json.dumps(doc))
    with deadline(10):
        assert run(["verify", "badbox", path]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["k"] == doc["k"] and results["verified"]


FW_K = "configuration k must be an integer >= 1 and <= 64"


@pytest.mark.parametrize(
    "target,doc,config,message",
    [
        ("fw", FW_FAMILY, {**FW_CONFIG, "k": 1 << 40}, FW_K),
        ("fw", FW_FAMILY, {**FW_CONFIG, "k": 65}, FW_K),
        ("rainbow", {"N": 6, "colors": [], "r": 1 << 35, "t": 1 << 35}, None,
         "needs at least 34359738368 vertices, over the cap of 8192 vertices"),
        ("rainbow", {"N": 6, "colors": [], "r": 4097, "t": 2}, None,
         "rainbow matching of 2 4097-edges needs 8194 vertices, over the cap of 8192 vertices"),
        ("bollobas", {"base": 2, "members": [], "sizes": [1 << 69] * 2}, None,
         "set-pair member of 2 slots needs 1180591620717411303424 elements, over the cap of 8192 elements"),
        ("bollobas", {"base": 2, "members": [], "sizes": [4096, 4097]}, None,
         "set-pair member of 2 slots needs 8193 elements, over the cap of 8192 elements"),
    ],
    ids=["fw-k-2^40", "fw-k-65", "rainbow-rt-2^70", "rainbow-rt-8194", "bollobas-2^70", "bollobas-8193"],
)
def test_verify_header_integers_refused_at_parse(tmp_path, capsys, target, doc, config, message):
    # each once hung or escaped with a traceback: k slots looped over, a binomial of
    # 2^70, or one too long for canonical_json to write
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    args = ["verify", target, path]
    if config is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", cfg]
    with deadline(10):
        assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize(
    "target,doc",
    [
        ("rainbow", {"N": 6, "colors": [], "r": 4096, "t": 2}),
        ("bollobas", {"base": 2, "members": [], "sizes": [4096, 4096]}),
    ],
    ids=["rainbow", "bollobas"],
)
def test_verify_binomials_at_the_parse_bound(tmp_path, capsys, target, doc):
    # C(8192, 4096) has 2,464 digits: the largest binomial a report may carry
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(["verify", target, path]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert math.comb(8192, 4096) in results.values()


# the command each input fixture is fuzzed under, None standing for the mutated file;
# the fw configurations are fuzzed as the --config of a fixed family, and corrupt.json, which
# is no JSON, has no value to swap
FUZZ_COMMANDS = {
    "badbox_family.json": ["verify", "badbox", None],
    "badbox_t70.json": ["verify", "badbox", None],
    "bollobas_bad.json": ["verify", "bollobas", None],
    "bollobas_classic.json": ["verify", "bollobas", None],
    "fw_bad_family.json": ["verify", "fw", None, "--config", FIXTURES / "fw_config.json"],
    "fw_config.json": ["verify", "fw", FIXTURES / "fw_singletons.json", "--config", None],
    "fw_singletons.json": ["verify", "fw", None, "--config", FIXTURES / "fw_config.json"],
    "fw_config_p3.json": ["verify", "fw", FIXTURES / "fw_p3_family.json", "--config", None],
    "fw_p3_family.json": ["verify", "fw", None, "--config", FIXTURES / "fw_config_p3.json"],
    "fw_p3_bad_family.json": ["verify", "fw", None, "--config", FIXTURES / "fw_config_p3.json"],
    "fw_p3_repeated.json": ["verify", "fw", None, "--config", FIXTURES / "fw_config_p3.json"],
    "k4_hypergraph.json": ["verify", "rainbow", None],
    "oddtown_bad.json": ["verify", "oddtown", None],
    "oddtown_singletons.json": ["verify", "oddtown", None],
    "partition_4_3.json": ["rank", None, "--max"],
    "rainbowful.json": ["verify", "rainbow", None],
    "zero_2x2.json": ["rank", None, "--sum"],
}
FUZZ_VALUES = (None, True, False, 1.5, "x", [], {}, -1, 1 << 40, 1 << 70)
# what a structural mutation does to the value at a slot: delete it, wrap it in a
# list or an object, repeat it 50 times, or write it as a JSON string
FUZZ_SHAPES = ("delete", "list", "object", "repeat", "string")


def test_fuzz_covers_every_fixture():
    assert sorted([*FUZZ_COMMANDS, "corrupt.json"]) == sorted(p.name for p in FIXTURES.glob("*.json"))


def _value_slots(node, path=()):
    """The path of every value under ``node``: each object member and array element."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _value_slots(value, path + (key,))


def _mutated(original, kind, slot, value):
    """A copy of ``original`` with the value at ``slot`` swapped for ``value`` or reshaped."""
    doc = json.loads(json.dumps(original))
    *parents, last = slot
    target = doc
    for key in parents:
        target = target[key]
    old = target[last]
    if kind == "swap":
        target[last] = value
    elif kind == "delete":
        del target[last]
    elif kind == "repeat" and isinstance(target, list):
        target[last : last + 1] = [old] * 50
    else:
        shapes = {"list": [old], "object": {str(last): old}, "repeat": [old] * 50, "string": json.dumps(old)}
        target[last] = shapes[kind]
    return doc


@pytest.mark.parametrize("fixture", sorted(FUZZ_COMMANDS))
def test_fuzzed_fixtures_keep_the_exit_code_contract(tmp_path, capsys, fixture):
    # 400 seeded value swaps and 300 structural mutations: the command exits 0, 1 or 2
    # with no exception out of main and no hang, and exits 1 only with a report
    rng = random.Random(2)
    original = json.loads((FIXTURES / fixture).read_text())
    slots = list(_value_slots(original))
    mutations = [("swap", rng.choice(slots), rng.choice(FUZZ_VALUES)) for _ in range(400)]
    mutations += [(rng.choice(FUZZ_SHAPES), rng.choice(slots), None) for _ in range(300)]
    path = tmp_path / fixture
    args = [path if a is None else a for a in FUZZ_COMMANDS[fixture]]
    broken = []
    for kind, slot, value in mutations:
        path.write_text(json.dumps(_mutated(original, kind, slot, value)))
        try:
            with deadline(10):
                code = run(args)
        except Exception as exc:  # any exception out of main breaks the contract
            code = exc
        out = capsys.readouterr().out
        if code not in (0, 1, 2) or (code == 1 and "results" not in json.loads(out or "{}")):
            broken.append(f"{kind} {slot} {value!r}: {code!r}")
    assert broken == []


def test_verify_badbox_grid_cap_before_the_clique_search(tmp_path, capsys, monkeypatch):
    # 30 members at k = 8: the configuration grid would hold 30^8 cells, refused
    # before the clique search, whose cost has no cap, runs
    import flatrank.fw as fw

    searches = []
    monkeypatch.setattr(fw, "find_odd_clique", lambda *args: searches.append(args))
    doc = tmp_path / "badbox.json"
    doc.write_text(json.dumps({"t": 3, "s": 1, "k": 8, "members_factors": [[7]] * 30}))
    assert run(["verify", "badbox", doc]) == 2
    assert "30^8" in capsys.readouterr().err and searches == []
