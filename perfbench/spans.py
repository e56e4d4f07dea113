"""Per-module spans for the traced run, recorded from outside the program.

:class:`Tracer` replaces each function in ``TRACED`` at every binding site: its
own module and every ``flatrank.*`` module that imported it by name.
``Tensor`` is wrapped at ``__init__``.  Each call records a span (name, start,
end, parent span, thread, op id, counts) in memory; ``write_sidecar`` dumps
them as JSON lines and ``layer_metrics`` computes per-layer numbers from that
file.  Hot inner helpers (``flat_index``, ``Rng.next_u64``, field arithmetic)
are left alone so the wrappers stay cheap.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict


def _rows_cells(args, kwargs, result):
    rows = args[0]
    return {"cells": len(rows) * (len(rows[0]) if len(rows) else 0)}


def _list_items(args, kwargs, result):
    doc = args[0]
    for key in ("entries", "sparse", "members", "colors", "members_factors", "C"):
        if isinstance(doc.get(key), list):
            return {"items": len(doc[key])}
    return {}


def _witness_cells(args, kwargs, result):
    fam, cfg = args[0], args[1]
    distinct = kwargs.get("distinct", args[2] if len(args) > 2 else "sets")
    m = len(set(fam.members)) if distinct == "sets" else len(fam.members)
    return {"cells": m**cfg.k if m >= cfg.k else 0}


def _bollobas_entries(args, kwargs, result):
    system = args[0]
    return {"entries": len(system.members) ** system.t if "mfrank" in result else 0}


# module -> {function name: counter(args, kwargs, result) -> dict or None}
TRACED = {
    "field": {"make_prime_field": None, "make_binary_field": None, "discrete_log_tables": None},
    "linalg": {"matrix_rank": _rows_cells, "rank_gf2_bitrows": None, "determinant": None},
    "tensor": {
        "Tensor.__init__": lambda args, kwargs, result: {"entries": len(args[0].entries)},
        "flattening_rank": None,
        "max_flattening_rank": None,
        "sum_flattening_ranks": None,
        "is_semi_diagonal": None,
        "partition_construction": None,
        "axis_constant_construction": None,
    },
    "rng": {
        "sub_seeds_np": lambda args, kwargs, result: {"words": int(result.size)},
        "stream_words_np": lambda args, kwargs, result: {"words": int(result.size)},
    },
    "search": {
        "random_semidiagonal_sweep": lambda args, kwargs, result: {"tensors": result.count},
        "exhaustive_min_mfrank": lambda args, kwargs, result: {"tensors": result.count},
        "random_semidiagonal": None,
    },
    "setfam": {
        "is_cross_oddtown": None,
        "oddtown_tensor": None,
        "oddtown_rank1_certificate": None,
        "reconstruct_from_certificate": None,
        "verify_oddtown_chain": None,
    },
    "fw": {
        "is_config_satisfying": None,
        "find_config_witness": _witness_cells,
        "fw_tensor": lambda args, kwargs, result: {"cells": len(args[0].members) ** args[1].k},
        "verify_badbox_free": None,
    },
    "rainbow": {
        "find_rainbow_matching": None,
        "rainbow_tensor": lambda args, kwargs, result: {"entries": args[0].z ** args[0].t},
        "certify_no_rainbow_bound": None,
        "bollobas_verify": _bollobas_entries,
    },
    "extalg": {"moment_curve_vectors": None},
    "formats": {
        **{
            name: _list_items
            for name in (
                "tensor_from_document",
                "tuple_family_from_document",
                "set_family_from_document",
                "configuration_from_document",
                "hypergraph_from_document",
                "setpair_from_document",
                "badbox_from_document",
            )
        },
        "load_document": None,
        "make_report": None,
        "tensor_to_document": None,
        "digest_bytes": None,
        "digest_params": None,
    },
    "cli": {"main": None},
}


class Tracer:
    """Installs span-recording wrappers and holds the spans in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: int | None = None
        self.missing: list[str] = []
        self.counter_errors: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals: dict[int, object] = {}  # id(original) -> original
        self._restore: list[tuple[object, str, object]] = []

    def _modules(self) -> dict[str, object]:
        return {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "flatrank" or name.startswith("flatrank."))
        }

    def _wrap(self, name: str, fn, counter):
        tracer = self
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = ok = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                attrs = None
                if ok and counter is not None:
                    try:
                        attrs = counter(args, kwargs, result)
                    except Exception:  # a changed signature loses the count, not the run
                        tracer.counter_errors.add(name)
                spans.append((sid, parent, name, start, end, threading.get_ident(), tracer.op, attrs))

        return wrapper

    def install(self) -> None:
        mods = self._modules()
        for short, funcs in TRACED.items():
            mod = mods.get(f"flatrank.{short}")
            for fname, counter in funcs.items():
                name = f"{short}.{fname}"
                owner, attr = mod, fname
                if "." in fname:
                    owner, attr = getattr(mod, fname.split(".")[0], None), fname.split(".")[1]
                fn = vars(owner).get(attr) if owner is not None else None
                if not callable(fn):
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, fn, counter)
                self._originals[id(fn)] = fn
                if owner is not mod:  # a method: the class is its only binding site
                    self._rebind(owner, attr, fn, wrapper)
                    continue
                for site in mods.values():
                    for key, value in list(vars(site).items()):
                        if value is fn:
                            self._rebind(site, key, fn, wrapper)

    def _rebind(self, site, key: str, original, wrapper) -> None:
        setattr(site, key, wrapper)
        self._restore.append((site, key, original))

    def uninstall(self) -> None:
        for site, key, original in reversed(self._restore):
            setattr(site, key, original)
        self._restore.clear()

    def unwrapped_references(self) -> list[str]:
        """Places in flatrank.* that still reach a traced function directly."""
        found = []

        def check(where: str, value) -> None:
            if id(value) in self._originals and self._originals[id(value)] is value:
                found.append(where)

        for mname, mod in self._modules().items():
            for key, value in list(vars(mod).items()):
                check(f"{mname}.{key}", value)
                if isinstance(value, (list, tuple, set, frozenset)):
                    for item in value:
                        check(f"{mname}.{key}[...]", item)
                elif isinstance(value, dict):
                    for item in value.values():
                        check(f"{mname}.{key}[...]", item)
                elif isinstance(value, type):
                    for attr, item in vars(value).items():
                        check(f"{mname}.{key}.{attr}", getattr(item, "__func__", item))
                defaults = getattr(value, "__defaults__", None) or ()
                kwdefaults = getattr(value, "__kwdefaults__", None) or {}
                for item in (*defaults, *kwdefaults.values()):
                    check(f"{mname}.{key} default", item)
        return found

    def write_sidecar(self, path, counters: dict[str, float]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, thread, op, attrs in self.spans:
                rec = {"id": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
                rec.update({"thread": thread, "op": op})
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
            for name, value in counters.items():
                fh.write(json.dumps({"counter": name, "value": value}) + "\n")


MODULES = ("field", "linalg", "tensor", "rng", "search", "setfam", "fw", "rainbow", "extalg", "formats", "cli")

# per-layer metric -> span names whose self time it sums
SELF_GROUPS = {
    "field.setup.self_s": ("field.make_prime_field", "field.make_binary_field", "field.discrete_log_tables"),
    "linalg.matrix_rank.self_s": ("linalg.matrix_rank",),
    "linalg.rank_gf2_bitrows.self_s": ("linalg.rank_gf2_bitrows",),
    "linalg.determinant.self_s": ("linalg.determinant",),
    "tensor.Tensor.self_s": ("tensor.Tensor.__init__",),
    "tensor.flattening_rank.self_s": (
        "tensor.flattening_rank",
        "tensor.max_flattening_rank",
        "tensor.sum_flattening_ranks",
    ),
    "tensor.is_semi_diagonal.self_s": ("tensor.is_semi_diagonal",),
    "tensor.constructions.self_s": ("tensor.partition_construction", "tensor.axis_constant_construction"),
    "rng.bulk.self_s": ("rng.sub_seeds_np", "rng.stream_words_np"),
    "search.random_semidiagonal_sweep.self_s": ("search.random_semidiagonal_sweep",),
    "search.exhaustive_min_mfrank.self_s": ("search.exhaustive_min_mfrank",),
    "search.random_semidiagonal.self_s": ("search.random_semidiagonal",),
    "setfam.is_cross_oddtown.self_s": ("setfam.is_cross_oddtown",),
    "setfam.oddtown_tensor.self_s": ("setfam.oddtown_tensor",),
    "setfam.certificate.self_s": ("setfam.oddtown_rank1_certificate", "setfam.reconstruct_from_certificate"),
    "setfam.verify_oddtown_chain.self_s": ("setfam.verify_oddtown_chain",),
    "fw.find_config_witness.self_s": ("fw.find_config_witness",),
    "fw.fw_tensor.self_s": ("fw.fw_tensor",),
    "fw.verify_badbox_free.self_s": ("fw.verify_badbox_free",),
    "rainbow.find_rainbow_matching.self_s": ("rainbow.find_rainbow_matching",),
    "rainbow.wedge_tensor.self_s": ("rainbow.rainbow_tensor", "rainbow.bollobas_verify"),
    "extalg.moment_curve_vectors.self_s": ("extalg.moment_curve_vectors",),
    "formats.parse.self_s": tuple(
        f"formats.{name}" for name, counter in TRACED["formats"].items() if counter is _list_items
    )
    + ("formats.load_document",),
    "formats.report.self_s": (
        "formats.make_report",
        "formats.tensor_to_document",
        "formats.digest_bytes",
        "formats.digest_params",
    ),
    "cli.self_s": ("cli.main",),
}

# per-layer metric -> (span names, attribute) whose values it sums; None counts calls
COUNT_GROUPS = {
    "linalg.matrix_rank.calls": (("linalg.matrix_rank",), None),
    "linalg.matrix_rank.cells": (("linalg.matrix_rank",), "cells"),
    "linalg.determinant.calls": (("linalg.determinant",), None),
    "tensor.Tensor.calls": (("tensor.Tensor.__init__",), None),
    "tensor.Tensor.entries": (("tensor.Tensor.__init__",), "entries"),
    "rng.bulk.words": (SELF_GROUPS["rng.bulk.self_s"], "words"),
    "search.tensors": (("search.random_semidiagonal_sweep", "search.exhaustive_min_mfrank"), "tensors"),
    "fw.grid_cells": (("fw.find_config_witness", "fw.fw_tensor"), "cells"),
    "formats.parse.entries": (SELF_GROUPS["formats.parse.self_s"], "items"),
}


def layer_metrics(path, ops: int, untraced_ops_per_s: float, traced_ops_per_s: float) -> dict[str, float]:
    """Per-op layer metrics from a sidecar written by :meth:`Tracer.write_sidecar`.

    Self time is a span's duration minus the durations of its direct child
    spans.  Times and counts are divided by the number of traced ops.
    """
    spans, counters = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "counter" in rec:
                counters[rec["counter"]] = rec["value"]
            else:
                spans.append(rec)
    child_ns: dict[int, int] = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attrs: dict[tuple[str, str], float] = defaultdict(float)
    root_s = 0.0
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        self_s[s["name"]] += (dur - child_ns[s["id"]]) / 1e9
        calls[s["name"]] += 1
        for key, value in (s.get("attrs") or {}).items():
            attrs[(s["name"], key)] += value
        if s["parent"] is None:
            root_s += dur / 1e9

    per_op = 1.0 / max(ops, 1)
    out: dict[str, float] = {}
    for metric, names in SELF_GROUPS.items():
        out[metric] = sum(self_s[n] for n in names) * per_op
    for metric, (names, key) in COUNT_GROUPS.items():
        total = sum(calls[n] if key is None else attrs[(n, key)] for n in names)
        out[metric] = total * per_op
    out["tensor.classify_indices.misses"] = counters.get("tensor.classify_indices.misses", 0)
    wedge_entries = attrs[("rainbow.rainbow_tensor", "entries")] + attrs[("rainbow.bollobas_verify", "entries")]
    out["rainbow.det_per_entry"] = calls["linalg.determinant"] / wedge_entries if wedge_entries else 0.0
    for mod in MODULES:
        out[f"{mod}.module.self_s"] = (
            sum(v for n, v in self_s.items() if n.split(".")[0] == mod) * per_op
        )
    out["trace.op_s"] = root_s * per_op
    out["trace.overhead_ratio"] = traced_ops_per_s / untraced_ops_per_s if untraced_ops_per_s else math.nan
    return out


PER_LAYER_UNITS = {
    **{m: ("s/op", "lower") for m in SELF_GROUPS},
    **{m: ("1/op", "lower") for m in COUNT_GROUPS},
    "search.tensors": ("1/op", "higher"),  # work delivered; fewer means tensors were skipped
    "formats.parse.entries": ("1/op", "higher"),
    "tensor.classify_indices.misses": ("count", "lower"),
    "rainbow.det_per_entry": ("ratio", "lower"),
    **{f"{mod}.module.self_s": ("s/op", "lower") for mod in MODULES},
    "trace.op_s": ("s/op", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
}
