"""Every exported name resolves, and removed API stays removed."""

import importlib
import inspect
import pkgutil

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


# API that only tests used, deleted; the README's "Removed API" names what to use instead
REMOVED = {
    "flatrank": ["FieldElement"],
    "flatrank.field": ["FieldElement"],
    "flatrank.search": ["random_semidiagonal"],
    "flatrank.tensor": ["classify_indices", "negate_tensor"],
    "flatrank.fw": ["max_odd_pairwise_odd_family"],
    "flatrank.linalg": ["rank_bytes"],
}


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_stay_removed(module):
    mod = importlib.import_module(module)
    assert [name for name in REMOVED[module] if hasattr(mod, name)] == []


def test_removed_methods_stay_removed():
    from flatrank.field import FieldDescriptor
    from flatrank.rng import Rng
    from flatrank.tensor import Tensor

    gone = [(FieldDescriptor, "element"), (FieldDescriptor, "neg"), (Rng, "derive")]
    gone += [(Tensor, name) for name in ("get", "flat_index", "from_function", "zeros", "is_zero")]
    assert [f"{cls.__name__}.{name}" for cls, name in gone if hasattr(cls, name)] == []


# parameters that no caller set, deleted: each function takes exactly these, and the
# README's "Removed API" names what to use instead
PARAMETERS = {
    "flatrank.search.exhaustive_min_mfrank": ["a", "d"],
    "flatrank.search.random_semidiagonal_sweep": ["a", "d", "count", "seed", "field"],
    "flatrank.rainbow.bollobas_verify": ["system"],
    "flatrank.fw.complete_graph_config": ["k"],
}


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_removed_parameters_stay_removed(name):
    module, function = name.rsplit(".", 1)
    signature = inspect.signature(getattr(importlib.import_module(module), function))
    assert list(signature.parameters) == PARAMETERS[name]
