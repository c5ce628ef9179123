"""findual: exact duality between finite-dimensional algebras and coalgebras.

Structure-constant algebras over Q and GF(p), their dual coalgebras, twisted
tensor products and crossed product coalgebras/bialgebras, and the quantum
plane at a root of unity (irreducible representations, Azumaya census,
coradical machinery) -- all in exact arithmetic.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraHom,
    Character,
    FinDimAlgebra,
    SemisimpleProfile,
    Subspace,
    center,
    cyclic_group_algebra,
    diagonal_algebra,
    ideal_closure,
    matrix_algebra,
    minimal_polynomial,
    monogenic_algebra,
    one_dim_characters,
    quotient_algebra,
    radical,
    semisimple_profile,
    subspace_product,
    triangular_algebra,
    truncated_polynomial_algebra,
    validate_algebra,
)
from .coalgebra import (
    CoalgebraHom,
    DualTower,
    FinDimCoalgebra,
    Quiver,
    canonical_inclusion,
    comatrix_coalgebra,
    coradical,
    coradical_filtration,
    coradical_preserved,
    divided_power_coalgebra,
    dualize_algebra,
    dualize_coalgebra,
    grouplike_coalgebra,
    grouplikes,
    grouplikes_bruteforce,
    line_dist_coalgebra,
    path_coalgebra,
    tower_extend,
    triangular_coalgebra,
    validate_coalgebra,
)
from .codec import census_to_csv, codec_roundtrip, decode, encode, loads, to_canonical_json
from .kernel import (
    GF,
    QQ,
    Factorization,
    Matrix,
    Poly,
    factor_over_field,
    primitive_root_of_unity,
    rref_kernel,
)
from .qplane import (
    CensusReport,
    Irrep,
    QPlaneTrunc,
    azumaya_census,
    azumaya_point_invariants,
    box_dual_tower,
    irrep,
    irrep_classify,
    oq_truncation,
    q_number,
    qtwist_decomposition,
)
from .twist import (
    Bialgebra,
    CotwistingMap,
    TwistingMap,
    check_cotwisting_map,
    check_twisting_map,
    cotensor_swap,
    crossed_coalgebra,
    dual_bialgebra,
    dual_cotwist,
    grouplike_bialgebra,
    ore_twist,
    smash_twist,
    solve_cotwist,
    tensor_swap,
    twist_corpus,
    twisted_product,
    validate_bialgebra,
    verify_crossed_bialgebra_duality,
    verify_twisted_duality,
)

__all__ = [name for name in dir() if not name.startswith("_")]
