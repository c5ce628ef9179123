"""Exact scalar arithmetic, polynomial factorization, and dense linear algebra."""

from .fields import (
    GF,
    QQ,
    Field,
    PrimeField,
    Rationals,
    check_root_order,
    field_from_json,
    field_to_json,
    is_prime,
    primitive_root_of_unity,
)
from .linalg import (
    Matrix,
    RrefKernel,
    coordinates_in_row_span,
    echelon_rows,
    in_row_span,
    reduce_against,
    row_pivots,
    rref_kernel,
    solve_linear,
)
from .poly import Factorization, Poly, factor_over_field

__all__ = [
    "GF",
    "QQ",
    "Field",
    "Factorization",
    "Matrix",
    "Poly",
    "PrimeField",
    "Rationals",
    "RrefKernel",
    "check_root_order",
    "coordinates_in_row_span",
    "echelon_rows",
    "factor_over_field",
    "field_from_json",
    "field_to_json",
    "in_row_span",
    "is_prime",
    "primitive_root_of_unity",
    "reduce_against",
    "row_pivots",
    "rref_kernel",
    "solve_linear",
]
