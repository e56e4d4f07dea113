"""flatrank: exact flattening ranks of finite-field tensors and their
extremal-combinatorics application pipelines."""

__version__ = "0.1.0"

from .field import FieldDescriptor, make_binary_field, make_prime_field
from .tensor import (
    Tensor,
    axis_constant_construction,
    flattening_rank,
    is_semi_diagonal,
    max_flattening_rank,
    partition_construction,
)

__all__ = [
    "__version__",
    "FieldDescriptor",
    "make_prime_field",
    "make_binary_field",
    "Tensor",
    "flattening_rank",
    "max_flattening_rank",
    "is_semi_diagonal",
    "partition_construction",
    "axis_constant_construction",
]
