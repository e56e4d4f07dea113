"""Every exported name resolves, removed API stays removed, and the package
holds only what the CLI runs."""

import ast
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import pytest

import flatrank

MODULES = sorted(m.name for m in pkgutil.iter_modules(flatrank.__path__))


def test_package_exports_resolve():
    assert [name for name in flatrank.__all__ if not hasattr(flatrank, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"flatrank.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
    namespace: dict = {}
    exec(f"from flatrank.{module} import *", namespace)
    assert set(getattr(mod, "__all__", ())) <= set(namespace)


# API that only tests used, deleted or moved to tests/oracles.py; the README's
# "Removed API" names what to use instead
REMOVED = {
    "flatrank": ["FieldElement", "subtensor", "add_tensors", "sum_flattening_ranks"],
    "flatrank.field": ["FieldElement", "IRREDUCIBLE_POLY", "field_from_document"],
    "flatrank.search": [
        "random_semidiagonal",
        "random_configuration",
        "random_colored_hypergraph",
        "_check_workspace",
    ],
    "flatrank.tensor": [
        "dense_size",
        "classify_indices",
        "negate_tensor",
        "subtensor",
        "add_tensors",
        "sum_flattening_ranks",
        "_narrow_array",
        "_frozen_int64",
    ],
    "flatrank.fw": [
        "max_odd_pairwise_odd_family",
        "odd_subsets",
        "grow_config_satisfying_family",
        "verify_badbox_free",
    ],
    "flatrank.linalg": ["rank_bytes", "_log_tables_np", "_rank_generic", "MAX_GENERIC_PRODUCTS"],
    "flatrank.setfam": [
        "enumerate_cross_oddtown",
        "odd_tuple_candidates",
        "singleton_diagonal_family",
        "_distinct_tuple_mask",
        "_check_mask",
        "_grid_shape",
    ],
    "flatrank.rainbow": ["hypergraph_from_vertex_lists"],
}


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_stay_removed(module):
    mod = importlib.import_module(module)
    assert [name for name in REMOVED[module] if hasattr(mod, name)] == []


def test_removed_methods_stay_removed():
    from flatrank.field import FieldDescriptor
    from flatrank.fw import Configuration, IntersectionPolynomial
    from flatrank.rng import Rng
    from flatrank.tensor import Tensor

    gone = [
        (FieldDescriptor, name)
        for name in ("element", "neg", "validate", "characteristic", "add", "sub", "inv")
    ]
    gone += [(IntersectionPolynomial, "table"), (Configuration, "is_slot_symmetric")]
    gone += [(Rng, name) for name in ("derive", "shuffle", "sample_without_replacement")]
    gone += [(Tensor, name) for name in ("get", "flat_index", "from_function", "zeros", "is_zero")]
    assert [f"{cls.__name__}.{name}" for cls, name in gone if hasattr(cls, name)] == []
    assert [name for name in ("__eq__", "__hash__") if name in vars(Tensor)] == []  # compared by identity


LIMIT = re.compile(r"^MAX_[A-Z_]+$|^ARENA_KEEP_BYTES$")


def test_limits_are_bound_only_in_caps():
    # TABLE_MAX_COLUMNS and SAMPLE_MAX_A are kernel tuning constants, not limits
    bound = []
    for path in sorted(Path(flatrank.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            bound += [f"{path.stem}.{name}" for name in names if LIMIT.match(name)]
    caps = importlib.import_module("flatrank.caps")
    assert sorted(bound) == sorted(f"caps.{name}" for name in vars(caps) if LIMIT.match(name))
    assert len(bound) == 10


def test_exterior_algebra_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("flatrank.extalg")


# the format's writers with no CLI caller: the round-trip tests need them
UNREACHED_WRITERS = {
    "configuration_to_document",
    "hypergraph_to_document",
    "set_family_to_document",
    "setpair_to_document",
    "tuple_family_to_document",
}


def _unreached_definitions() -> list[str]:
    """Top-level defs and classes of the package that no CLI path names.

    Names are followed transitively from everything in ``cli.py`` and from the
    statements every module runs on import; a definition counts as reached
    when its name appears in reached code, as a name or an attribute.
    Imports name nothing: a name only imported is not used.
    """
    definitions: dict[str, list[tuple[str, ast.AST]]] = {}
    todo: list[ast.AST] = []
    for path in sorted(Path(flatrank.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append((path.stem, node))
                if path.stem == "cli":
                    todo.append(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo.append(node)
    reached: set[str] = set()
    while todo:
        for node in ast.walk(todo.pop()):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in definitions and name not in reached:
                reached.add(name)
                todo += [definition for _, definition in definitions[name]]
    return sorted(
        f"{module}.{name}"
        for name in definitions.keys() - reached - UNREACHED_WRITERS
        for module, _ in definitions[name]
    )


def test_every_definition_is_reached_from_the_cli():
    assert _unreached_definitions() == []


# parameters that no caller set, deleted: each function takes exactly these, and the
# README's "Removed API" names what to use instead
PARAMETERS = {
    "flatrank.search.exhaustive_min_mfrank": ["a", "d"],
    "flatrank.search.random_semidiagonal_sweep": ["a", "d", "count", "seed", "field"],
    "flatrank.rainbow.bollobas_verify": ["system"],
    "flatrank.fw.complete_graph_config": ["k"],
    "flatrank.setfam.oddtown_tensor": ["fam"],
    "flatrank.setfam.oddtown_rank1_certificate": ["fam"],
}


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_removed_parameters_stay_removed(name):
    module, function = name.rsplit(".", 1)
    signature = inspect.signature(getattr(importlib.import_module(module), function))
    assert list(signature.parameters) == PARAMETERS[name]


# a measurement is cited as ``BENCH_NN.json`` ``dotted.key`` (single backticks in
# the README), the key optional: each file and key named must exist
CITATION = re.compile(r"`+(BENCH_\d+\.json)`+(?:\s+`+([^`]+)`+)?")


def test_bench_citations_resolve():
    root = Path(__file__).resolve().parent.parent
    texts = [*sorted((root / "src" / "flatrank").glob("*.py")), root / "README.md"]
    cited = [(path.name, *m.groups()) for path in texts for m in CITATION.finditer(path.read_text())]
    assert cited
    missing, absent = [], object()
    for where, name, key in cited:
        node = json.loads((root / name).read_text()) if (root / name).is_file() else absent
        for part in key.split(".") if key else ():
            node = node.get(part, absent) if isinstance(node, dict) else absent
        if node is absent:
            missing.append(f"{where}: {name} {key or ''}")
    assert missing == []
