"""Every exported name resolves, removed API stays removed, and the package
holds only what the CLI runs."""

import ast
import importlib
import inspect
import pkgutil
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
    "flatrank.search": ["random_semidiagonal", "random_configuration", "random_colored_hypergraph"],
    "flatrank.tensor": [
        "classify_indices",
        "negate_tensor",
        "subtensor",
        "add_tensors",
        "sum_flattening_ranks",
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

    gone = [(FieldDescriptor, name) for name in ("element", "neg", "validate", "characteristic")]
    gone += [(IntersectionPolynomial, "table"), (Configuration, "is_slot_symmetric")]
    gone += [(Rng, name) for name in ("derive", "shuffle", "sample_without_replacement")]
    gone += [(Tensor, name) for name in ("get", "flat_index", "from_function", "zeros", "is_zero")]
    assert [f"{cls.__name__}.{name}" for cls, name in gone if hasattr(cls, name)] == []


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
