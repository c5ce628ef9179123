import operator
import random
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from findual import algebra as algebra_module
from findual.algebra import (
    AlgebraHom,
    Character,
    FinDimAlgebra,
    Subspace,
    _basis_translates,
    _basis_vec,
    _generators,
    _light_generators,
    _primitive_idempotents,
    _radical_trace_form,
    _simple_factors,
    center,
    cyclic_group_algebra,
    diagonal_algebra,
    ideal_closure,
    is_ideal,
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
from findual.errors import (
    BadParamsError,
    CharacteristicTooSmallError,
    FindualError,
    ImproperIdealError,
    InvalidInputError,
    NotAnIdealError,
    NotSplitError,
)
from findual.kernel import (
    GF,
    QQ,
    Matrix,
    Poly,
    Rationals,
    coordinates_in_row_span,
    echelon_rows,
    reduce_against,
    row_pivots,
    rref_kernel,
    solve_linear,
)
from findual import qplane
from findual.coalgebra import FinDimCoalgebra, _dual_table
from findual.qplane import azumaya_census, azumaya_point_invariants, oq_truncation, regular_point_jet_algebra
from findual.twist import raw_twisted_algebra, tensor_swap, twisted_product

F5 = GF(5)


def basis_vec(field, dim, i):
    v = [field.zero()] * dim
    v[i] = field.one()
    return v


class TestValidate:
    def test_matrix_algebra_passes(self):
        rep = validate_algebra(matrix_algebra(F5, 2))
        assert rep.associative and rep.unital

    def test_perturbed_matrix_algebra_fails(self):
        m2 = matrix_algebra(F5, 2)
        # zero out E12 * E21 = E11
        mul = [[list(m2.mul[i][j]) for j in range(4)] for i in range(4)]
        mul[1][2] = []
        bad = FinDimAlgebra(F5, m2.labels, mul, m2.unit)
        rep = validate_algebra(bad)
        assert not rep.associative
        assert rep.witnesses[0][0] == "associativity"

    def test_zero_unit_fails(self):
        m2 = matrix_algebra(F5, 2)
        bad = FinDimAlgebra(F5, m2.labels, m2.mul, [F5.zero()] * 4)
        rep = validate_algebra(bad)
        assert not rep.unital

    @pytest.mark.parametrize("alg", [
        matrix_algebra(F5, 3),
        triangular_algebra(F5, 3),
        truncated_polynomial_algebra(QQ, 4),
        cyclic_group_algebra(F5, 4),
        diagonal_algebra(QQ, 3),
        monogenic_algebra(F5, Poly.from_ints(F5, [-2, 0, 1])),
    ])
    def test_named_constructors_valid(self, alg):
        assert validate_algebra(alg).ok


class TestIdealClosure:
    def test_e12_generates_m2(self):
        m2 = matrix_algebra(F5, 2)
        sp = ideal_closure(m2, [basis_vec(F5, 4, 1)])
        assert sp.dim == 4

    def test_eps_in_dual_numbers(self):
        a = truncated_polynomial_algebra(F5, 2)
        sp = ideal_closure(a, [basis_vec(F5, 2, 1)])
        assert sp.dim == 1
        assert sp.contains([0, 1])

    def test_monotone_idempotent(self):
        t2 = triangular_algebra(F5, 2)
        sp = ideal_closure(t2, [basis_vec(F5, 3, 1)])
        again = ideal_closure(t2, [list(r) for r in sp.rows])
        assert again.rows == sp.rows
        # monotone: closing a larger generating set contains the smaller closure
        bigger = ideal_closure(t2, [basis_vec(F5, 3, 1), basis_vec(F5, 3, 0)])
        assert bigger.contains_subspace(sp)


class TestQuotient:
    def test_t3_by_t2(self):
        a = truncated_polynomial_algebra(F5, 3)
        ideal = ideal_closure(a, [basis_vec(F5, 3, 2)])
        q, proj = quotient_algebra(a, ideal)
        assert q.mul == truncated_polynomial_algebra(F5, 2).mul
        assert q.unit == truncated_polynomial_algebra(F5, 2).unit
        assert proj.is_valid()

    def test_t2_by_radical_is_k_times_k(self):
        t2 = triangular_algebra(F5, 2)
        rad = radical(t2)
        q, proj = quotient_algebra(t2, rad)
        assert q.dim == 2
        assert q.mul == diagonal_algebra(F5, 2).mul
        assert proj.is_valid()

    def test_improper_ideal(self):
        a = truncated_polynomial_algebra(F5, 2)
        with pytest.raises(ImproperIdealError):
            quotient_algebra(a, ideal_closure(a, [basis_vec(F5, 2, 0)]))

    def test_not_an_ideal(self):
        m2 = matrix_algebra(F5, 2)
        with pytest.raises(NotAnIdealError):
            quotient_algebra(m2, Subspace(m2, [basis_vec(F5, 4, 1)]))

    @pytest.mark.parametrize("certified", [False, True], ids=["uncertified", "certified"])
    def test_zero_ideal_returns_the_algebra(self, certified):
        a = triangular_algebra(F5, 3)
        if certified:
            assert validate_algebra(a).ok
        q, proj = quotient_algebra(a, Subspace(a, []))
        assert q is a and proj.source is a and proj.target is a
        assert proj.matrix == Matrix.identity(F5, a.dim)
        assert (a._gens is not None) == certified

    def test_zero_ideal_holding_the_unit_is_improper(self):
        # a zero unit lies in the zero ideal: refused before the shortcut
        a = FinDimAlgebra(F5, ["e"], [[[(0, 1)]]], [0])
        with pytest.raises(ImproperIdealError):
            quotient_algebra(a, Subspace(a, []))

    @pytest.mark.parametrize("field", [F5, QQ], ids=["gf5", "rationals"])
    def test_zero_ring_is_its_own_quotient(self, field):
        a = FinDimAlgebra(field, [], [], [])
        q, proj = quotient_algebra(a, Subspace(a, []))
        assert q is a and proj.is_valid()


class TestRadical:
    def test_m2_simple(self):
        assert radical(matrix_algebra(F5, 2)).dim == 0

    def test_dual_numbers(self):
        rad = radical(truncated_polynomial_algebra(F5, 2))
        assert rad.dim == 1
        assert rad.contains([0, 1])

    def test_triangular(self):
        rad = radical(triangular_algebra(F5, 2))
        assert rad.dim == 1
        assert rad.contains(basis_vec(F5, 3, 1))  # E12

    def test_characteristic_gate(self):
        with pytest.raises(CharacteristicTooSmallError):
            radical(matrix_algebra(GF(3), 2))

    def test_radical_nilpotent_and_quotient_semisimple(self):
        for alg in [triangular_algebra(GF(7), 3), truncated_polynomial_algebra(QQ, 4)]:
            rad = radical(alg)
            power = rad
            for _ in range(alg.dim):
                if power.dim == 0:
                    break
                power = subspace_product(alg, power, rad)
            assert power.dim == 0
            if rad.dim:
                q, _ = quotient_algebra(alg, rad)
                assert radical(q).dim == 0


def oracle_subspace_product(a, u, v):
    """The span of the dense products of every pair of rows."""
    return Subspace(a, [a.multiply(list(x), list(y)) for x in u.rows for y in v.rows])


SUBSPACE_PRODUCT_ALGEBRAS = {
    f"{name}-{label}": build(f)
    for f, label in ((GF(31), "gf31"), (QQ, "q"))
    for name, build in (
        ("m3", lambda f: matrix_algebra(f, 3)),
        ("triangular4", lambda f: triangular_algebra(f, 4)),
        ("truncated5", lambda f: truncated_polynomial_algebra(f, 5)),
        ("z4", lambda f: cyclic_group_algebra(f, 4)),
        ("diagonal3", lambda f: diagonal_algebra(f, 3)),
    )
}
SUBSPACE_PRODUCT_ALGEBRAS["box33-gf31"] = oq_truncation(3, 31, "box", (3, 3)).algebra


class TestSubspaceProductAgainstOracle:
    @pytest.mark.parametrize("a", SUBSPACE_PRODUCT_ALGEBRAS.values(), ids=SUBSPACE_PRODUCT_ALGEBRAS.keys())
    def test_named_algebras(self, a):
        f = a.field
        dense = [[f.of(1 + (3 * i + 5 * k) % 7) for i in range(a.dim)] for k in range(2)]
        spaces = [
            Subspace(a, []), radical(a), Subspace(a, dense), Subspace(a, [a.unit]),
            Subspace(a, [basis_vec(f, a.dim, i) for i in range(a.dim)]),
            ideal_closure(a, [basis_vec(f, a.dim, a.dim - 1)]),
        ]
        for u in spaces:
            for v in spaces:
                assert subspace_product(a, u, v) == oracle_subspace_product(a, u, v)

    @settings(max_examples=40)
    @given(st.data())
    def test_known_profiles(self, data):
        a = data.draw(known_profiles())[0]
        vectors = st.lists(small_scalars(a.field), min_size=a.dim, max_size=a.dim)
        spaces = [radical(a)] + [Subspace(a, data.draw(st.lists(vectors, max_size=3))) for _ in range(2)]
        for u in spaces:
            for v in spaces:
                assert subspace_product(a, u, v) == oracle_subspace_product(a, u, v)


class TestCharacters:
    def test_m2_has_none(self):
        assert one_dim_characters(matrix_algebra(F5, 2)) == []

    def test_group_algebra_z2(self):
        chars = one_dim_characters(cyclic_group_algebra(F5, 2, var="t"))
        assert [c.values for c in chars] == [(1, 1), (1, 4)]

    def test_dual_numbers(self):
        chars = one_dim_characters(truncated_polynomial_algebra(F5, 2))
        assert [c.values for c in chars] == [(1, 0)]

    def test_diagonal(self):
        chars = one_dim_characters(diagonal_algebra(F5, 3))
        assert len(chars) == 3
        for c in chars:
            assert c.is_valid()

    def test_nonsplit_field_factor_gf(self):
        # GF(25) = GF(5)[t]/(t^2 - 2) has no GF(5)-characters
        a = monogenic_algebra(F5, Poly.from_ints(F5, [-2, 0, 1]))
        assert one_dim_characters(a) == []

    def test_nonsplit_over_q_raises(self):
        a = monogenic_algebra(QQ, Poly.from_ints(QQ, [-2, 0, 1]))
        with pytest.raises(NotSplitError):
            one_dim_characters(a)

    def test_split_over_q(self):
        a = monogenic_algebra(QQ, Poly.from_ints(QQ, [2, -3, 1]))  # (t-1)(t-2)
        chars = one_dim_characters(a)
        assert sorted(c.values[1] for c in chars) == [1, 2]

    @pytest.mark.parametrize("field", [F5, QQ], ids=["gf5", "rationals"])
    def test_zero_ring(self, field):
        assert one_dim_characters(FinDimAlgebra(field, [], [], [])) == []

    def test_nonsplit_center_over_q_raises(self):
        """Q x M_2(Q(sqrt 2)) has one character, but the center of its
        semisimple part does not split over Q: both readings of the one
        split refuse it, where the abelianization Q alone would not."""
        a = q_times_m2_over_quadratic_field()
        with pytest.raises(NotSplitError):
            semisimple_profile(a)
        with pytest.raises(NotSplitError):
            one_dim_characters(a)
        assert [ch.values for ch in oracle_one_dim_characters(a)] == [(1,) + (0,) * 8]

    def test_characters_kill_radical_and_commutators(self):
        for alg in [triangular_algebra(F5, 2), triangular_algebra(GF(7), 3)]:
            f = alg.field
            rad = radical(alg)
            chars = one_dim_characters(alg)
            assert chars
            for ch in chars:
                for r in rad.rows:
                    assert ch.evaluate(r) == f.zero()
                for i in range(alg.dim):
                    for j in range(alg.dim):
                        ij = ch.evaluate(alg.basis_product(i, j))
                        ji = ch.evaluate(alg.basis_product(j, i))
                        assert ij == ji


class TestProfile:
    def test_m2(self):
        assert semisimple_profile(matrix_algebra(F5, 2)) == (0, ((4, 1),))

    def test_triangular(self):
        assert semisimple_profile(triangular_algebra(F5, 2)) == (1, ((1, 1), (1, 1)))

    def test_field_extension_factor(self):
        a = monogenic_algebra(F5, Poly.from_ints(F5, [-2, 0, 1]))
        assert semisimple_profile(a) == (0, ((2, 2),))

    def test_mixed_factors(self):
        # k[t]/((t^2 - 2)(t - 1)): one rational point and one GF(25) factor
        f = Poly.from_ints(F5, [-2, 0, 1]) * Poly.from_ints(F5, [-1, 1])
        a = monogenic_algebra(F5, f)
        assert semisimple_profile(a) == (0, ((1, 1), (2, 2)))

    def test_dims_add_up(self):
        for alg in [
            matrix_algebra(F5, 2),
            triangular_algebra(GF(7), 3),
            diagonal_algebra(F5, 4),
            truncated_polynomial_algebra(QQ, 3),
            cyclic_group_algebra(GF(7), 6),
        ]:
            prof = semisimple_profile(alg)
            assert prof.radical_dim + sum(d for d, _ in prof.factors) == alg.dim

    def test_m3(self):
        assert semisimple_profile(matrix_algebra(GF(11), 3)) == (0, ((9, 1),))

    @pytest.mark.parametrize("field", [F5, QQ], ids=["gf5", "rationals"])
    def test_zero_ring(self, field):
        assert semisimple_profile(FinDimAlgebra(field, [], [], [])) == (0, ())


class TestHoms:
    def test_composition_valid(self):
        t2 = triangular_algebra(F5, 2)
        rad = radical(t2)
        q, proj = quotient_algebra(t2, rad)
        chars = one_dim_characters(q)
        row = Matrix(F5, 1, q.dim, chars[0].values)
        k_alg = diagonal_algebra(F5, 1)
        to_k = AlgebraHom(q, k_alg, row)
        assert to_k.is_valid()
        comp = to_k.compose(proj)
        assert comp.is_valid()

    @pytest.mark.parametrize("other", [GF(7), QQ], ids=["gf7", "rationals"])
    def test_hom_matrix_over_other_field_rejected(self, other):
        a = diagonal_algebra(F5, 2)
        identity = Matrix(other, 2, 2, [1, 0, 0, 1])
        with pytest.raises(BadParamsError, match="share a field"):
            AlgebraHom(a, a, identity)
        with pytest.raises(BadParamsError, match="share a field"):
            AlgebraHom(a, diagonal_algebra(other, 2), identity)

    def test_minimal_polynomial(self):
        a = cyclic_group_algebra(F5, 4, var="g")
        mu = minimal_polynomial(a, basis_vec(F5, 4, 1))
        assert mu == Poly.from_ints(F5, [-1, 0, 0, 0, 1])

    def test_center_of_matrix_algebra(self):
        assert center(matrix_algebra(F5, 3)).dim == 1
        assert center(diagonal_algebra(F5, 3)).dim == 3


class TestDuplicateStructureConstants:
    def test_repeated_pairs_are_summed(self):
        # b_1 b_1 = 2 b_1 given as two pairs, plus a pair summing to zero
        a = FinDimAlgebra(F5, ["1", "e"], [[[(0, 1)], [(1, 1)]],
                                           [[(1, 1)], [(1, 1), (0, 2), (1, 1), (0, 3)]]],
                          [1, 0])
        assert a.mul[1][1] == ((1, 2),)
        assert a.multiply([0, 1], [0, 1]) == [0, 2]


class TestTableShapeIsChecked:
    """A table that is not dim x dim, or names a basis index outside
    [0, dim), is refused with BadParamsError naming the first bad row, cell
    or index, in every input form of a cell."""

    UNIT = [1, 0]

    def table(self):
        return [[((0, 1),), ((1, 1),)], [((1, 1),), ()]]

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_row_count(self, rows):
        mul = (self.table() + [[(), ()]])[:rows]
        with pytest.raises(BadParamsError, match=f"mul has {rows} rows, expected 2"):
            FinDimAlgebra(F5, ["1", "e"], mul, self.UNIT)

    @pytest.mark.parametrize("cells", [1, 3])
    def test_cell_count(self, cells):
        mul = self.table()
        mul[1] = (mul[1] + [()])[:cells]
        with pytest.raises(BadParamsError, match=f"mul\\[1\\] has {cells} cells, expected 2"):
            FinDimAlgebra(F5, ["1", "e"], mul, self.UNIT)

    @pytest.mark.parametrize("cell,bad", [
        (((0, 1), (2, 1)), 2),      # normal form
        (((2, 1), (0, 1)), 2),      # unsorted
        ([(0, 1), (-1, 1)], -1),    # a list of pairs
        ([(3, 1), (3, 4)], 3),      # a pair summing to zero
        ([(0, 1), (7, 1), (-1, 2)], 7),  # the first bad index in the cell
        ([(0, 1), (True, 1)], True),
        ([(1.0, 1)], 1.0),
    ])
    def test_index_out_of_range(self, cell, bad):
        mul = self.table()
        mul[1][1] = cell
        with pytest.raises(BadParamsError, match=rf"mul\[1\]\[1\] names basis index {bad!r}, not an int in \[0, 2\)"):
            FinDimAlgebra(F5, ["1", "e"], mul, self.UNIT)

    @pytest.mark.parametrize("cell", [[1], [0, 1, 0]])
    def test_dense_cell_length(self, cell):
        mul = [[[1, 0], [0, 1]], [[0, 1], cell]]
        with pytest.raises(BadParamsError, match=rf"mul\[1\]\[1\] has {len(cell)} scalars, expected 2"):
            FinDimAlgebra(F5, ["1", "e"], mul, self.UNIT)

    def test_empty_dense_cell_is_zero(self):
        a = FinDimAlgebra(F5, ["1", "e"], [[[1, 0], [0, 1]], [[0, 1], []]], self.UNIT)
        assert a.mul[1][1] == ()


# ---------------------------------------------------------------------------
# Property tests: the table-driven kernels against the per-scalar
# implementations they replaced, kept here as oracles.


def oracle_multiply(a, u, v):
    f = a.field
    out = [f.zero()] * a.dim
    for i, ui in enumerate(u):
        if ui == f.zero():
            continue
        for j, vj in enumerate(v):
            if vj == f.zero():
                continue
            c = f.mul(ui, vj)
            for r, coeff in a.mul[i][j]:
                out[r] = f.add(out[r], f.mul(c, coeff))
    return out


def oracle_mul_entry(a, i, j, r):
    for rr, c in a.mul[i][j]:
        if rr == r:
            return c
    return a.field.zero()


def oracle_validate(a):
    f = a.field
    witnesses = []
    associative = True
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                lhs = {}
                for s, c in a.mul[i][j]:
                    for t, c2 in a.mul[s][k]:
                        lhs[t] = f.add(lhs.get(t, f.zero()), f.mul(c, c2))
                rhs = {}
                for s, c in a.mul[j][k]:
                    for t, c2 in a.mul[i][s]:
                        rhs[t] = f.add(rhs.get(t, f.zero()), f.mul(c, c2))
                keys = set(lhs) | set(rhs)
                if any(lhs.get(t, f.zero()) != rhs.get(t, f.zero()) for t in keys):
                    associative = False
                    bad_t = next(t for t in keys if lhs.get(t, f.zero()) != rhs.get(t, f.zero()))
                    witnesses.append(("associativity", (i, j, k, bad_t)))
                    break
            if not associative:
                break
        if not associative:
            break
    unital = True
    for j in range(a.dim):
        e = basis_vec(f, a.dim, j)
        if oracle_multiply(a, list(a.unit), e) != e or oracle_multiply(a, e, list(a.unit)) != e:
            unital = False
            witnesses.append(("unit", (j,)))
            break
    return (associative, unital, tuple(witnesses))


def oracle_center(a):
    """Kernel of the dense dim^2 x dim commutator matrix."""
    f = a.field
    rows = [[f.sub(oracle_mul_entry(a, i, j, r), oracle_mul_entry(a, j, i, r)) for i in range(a.dim)]
            for j in range(a.dim) for r in range(a.dim)]
    ker = rref_kernel(Matrix.from_rows(f, rows)).kernel
    return Subspace(a, [list(ker.col(c)) for c in range(ker.cols)])


def oracle_dot(f, u, v):
    acc = f.zero()
    for x, y in zip(u, v):
        acc = f.add(acc, f.mul(x, y))
    return acc


def oracle_radical_trace_form(a):
    """Iterated kernel of the Gram matrix of tau(x y), built entry by entry."""
    f = a.field
    tau = [oracle_dot(f, [oracle_mul_entry(a, s, r, r) for r in range(a.dim)], [f.one()] * a.dim)
           for s in range(a.dim)]
    basis = [list(r) for r in echelon_rows(f, [basis_vec(f, a.dim, i) for i in range(a.dim)])]
    while True:
        k = len(basis)
        gram = [[oracle_dot(f, oracle_multiply(a, x, y), tau) for y in basis] for x in basis]
        ker = rref_kernel(Matrix.from_rows(f, gram) if k else Matrix.zeros(f, 0, 0)).kernel
        if ker.cols == k:
            return Subspace(a, basis)
        new_basis = []
        for c in range(ker.cols):
            vec = [f.zero()] * a.dim
            for coef, b in zip(ker.col(c), basis):
                vec = [f.add(x, f.mul(coef, y)) for x, y in zip(vec, b)]
            new_basis.append(vec)
        new_basis = [list(r) for r in echelon_rows(f, new_basis)]
        if len(new_basis) == len(basis):
            return Subspace(a, new_basis)
        basis = new_basis


def oracle_translates(a, v):
    for i in range(a.dim):
        e = basis_vec(a.field, a.dim, i)
        yield oracle_multiply(a, e, list(v))
        yield oracle_multiply(a, list(v), e)


def oracle_ideal_closure(a, generators):
    rows = echelon_rows(a.field, [list(g) for g in generators])
    while True:
        next_rows = echelon_rows(a.field, [list(r) for r in rows]
                                 + [w for v in rows for w in oracle_translates(a, v)])
        if len(next_rows) == len(rows):
            return Subspace(a, rows)
        rows = next_rows


def oracle_is_ideal(a, space):
    f = a.field
    return all(all(x == f.zero() for x in oracle_coordinates(space.rows, w, f)[1])
               for v in space.rows for w in oracle_translates(a, v))


def oracle_coordinates(rows, vec, f):
    """Sequential reduction of vec by RREF rows: (coordinates, residual)."""
    v = list(vec)
    coords = []
    for row in rows:
        pc = next(j for j, x in enumerate(row) if x != f.zero())
        c = v[pc]
        coords.append(c)
        if c != f.zero():
            v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
    return coords, v


PROPERTY_FIELDS = [GF(2), GF(3), GF(5), GF(7), QQ]


@st.composite
def small_scalars(draw, field, nonzero=False):
    if isinstance(field, Rationals):
        n = draw(st.integers(-3, 3).filter(lambda x: x or not nonzero))
        return field.div(field.of(n), field.of(draw(st.sampled_from([1, 1, 2, 3]))))
    return field.of(draw(st.integers(1 if nonzero else 0, field.p - 1)))


@st.composite
def basis_changes(draw, f, n):
    """An invertible P = L U with unit-triangular L and U."""
    lower = Matrix.from_rows(f, [[f.one() if i == j else draw(small_scalars(f)) if i > j else f.zero()
                                  for j in range(n)] for i in range(n)])
    upper = Matrix.from_rows(f, [[f.one() if i == j else draw(small_scalars(f)) if i < j else f.zero()
                                  for j in range(n)] for i in range(n)])
    return lower @ upper


def rebased_table(base, p):
    """Dense structure constants and unit of `base` on the basis formed by
    the columns of p."""
    n = base.dim
    cols = [list(p.col(j)) for j in range(n)]
    mul = [[solve_linear(p, base.multiply(cols[i], cols[j])) for j in range(n)] for i in range(n)]
    return mul, solve_linear(p, list(base.unit))


@st.composite
def algebras(draw, perturbed=False, field=None):
    """A matrix, triangular or cyclic group algebra under a random change of
    basis (P = L U with unit-triangular L, U); optionally one structure
    constant then moved by a nonzero amount."""
    f = field or draw(st.sampled_from(PROPERTY_FIELDS))
    kind = draw(st.sampled_from(["matrix", "triangular", "group"]))
    if kind == "matrix":
        base = matrix_algebra(f, draw(st.integers(1, 2)))
    elif kind == "triangular":
        base = triangular_algebra(f, draw(st.integers(1, 3)))
    else:
        base = cyclic_group_algebra(f, draw(st.integers(1, 4)))
    n = base.dim
    mul, unit = rebased_table(base, draw(basis_changes(f, n)))
    if perturbed:
        i, j, r = (draw(st.integers(0, n - 1)) for _ in range(3))
        mul[i][j][r] = f.add(mul[i][j][r], draw(small_scalars(f, nonzero=True)))
    return FinDimAlgebra(f, base.labels, mul, unit)


class TestKernelsAgainstOracles:
    @settings(max_examples=150)
    @given(st.booleans().flatmap(lambda bad: algebras(perturbed=bad)))
    def test_validate_verdict_and_witness(self, a):
        assert tuple(validate_algebra(a)) == oracle_validate(a)

    @settings(max_examples=150)
    @given(st.booleans().flatmap(lambda bad: algebras(perturbed=bad)))
    def test_validate_verdict_and_witness_by_light_test(self, a):
        with light_cut(0):
            assert tuple(validate_algebra(a)) == oracle_validate(a)

    @given(algebras())
    def test_basis_change_keeps_algebra_valid(self, a):
        assert validate_algebra(a).ok

    @given(st.booleans().flatmap(lambda bad: algebras(perturbed=bad)))
    def test_center_is_kernel_of_dense_commutators(self, a):
        assert center(a).rows == oracle_center(a).rows

    @given(st.booleans().flatmap(lambda bad: algebras(perturbed=bad)))
    def test_trace_form_radical_matches_gram_oracle(self, a):
        assert _radical_trace_form(a).rows == oracle_radical_trace_form(a).rows

    @given(st.booleans().flatmap(lambda bad: algebras(perturbed=bad)))
    def test_trace_form_radical_is_one_kernel(self, a):
        """The trivial grading has one component: one block, all of T."""
        with mock.patch.object(algebra_module, "_block_kernel", wraps=algebra_module._block_kernel) as spy:
            _radical_trace_form(a)
        assert spy.call_count == 1

    @given(st.booleans().flatmap(lambda bad: algebras(perturbed=bad)))
    def test_products_match_per_scalar_products(self, a):
        f = a.field
        u = [f.of(i * i + 1) for i in range(a.dim)]
        v = [f.of(3 - 2 * i) for i in range(a.dim)]
        assert a.multiply(u, v) == oracle_multiply(a, u, v)
        dense = [f.canonical(w.get(r, f.zero()) for r in range(a.dim)) for pair in _basis_translates(a, v) for w in pair]
        assert dense == list(oracle_translates(a, v))

    @given(st.data())
    def test_ideals_match_per_scalar_products(self, data):
        a = data.draw(st.booleans().flatmap(lambda bad: algebras(perturbed=bad)))
        vectors = st.lists(small_scalars(a.field), min_size=a.dim, max_size=a.dim)
        gens = data.draw(st.lists(vectors, max_size=2))
        assert ideal_closure(a, gens).rows == oracle_ideal_closure(a, gens).rows
        space = Subspace(a, gens)
        assert is_ideal(a, space) == oracle_is_ideal(a, space)

    @given(st.data())
    def test_membership_matches_sequential_reduction(self, data):
        f = data.draw(st.sampled_from(PROPERTY_FIELDS))
        n = data.draw(st.integers(1, 6))
        gens = data.draw(st.lists(st.lists(small_scalars(f), min_size=n, max_size=n), max_size=4))
        space = Subspace(diagonal_algebra(f, n), gens)
        if gens and data.draw(st.booleans()):
            # an element of the span
            weights = data.draw(st.lists(small_scalars(f), min_size=len(gens), max_size=len(gens)))
            vec = [oracle_dot(f, weights, [g[i] for g in gens]) for i in range(n)]
        else:
            vec = data.draw(st.lists(small_scalars(f), min_size=n, max_size=n))
        coords, residual = oracle_coordinates(space.rows, vec, f)
        inside = all(x == f.zero() for x in residual)
        assert space.contains(vec) == inside
        assert coordinates_in_row_span(space.rows, vec, f) == (coords if inside else None)


# ---------------------------------------------------------------------------
# Light's test: the reports of validations past the size cut against the
# per-triple oracle.


def light_cut(dim):
    """Light's test tried from dim on, inside a with block."""
    return mock.patch.object(algebra_module, "_LIGHT_MIN_DIM", dim)


def sparse_rebased_table(base, sigma, x, y, c):
    """Dense structure constants and unit of `base` on the basis
    c_k = b_sigma(k), except c_x = b_sigma(x) + c b_sigma(y) (x != y).  The
    table stays sparse, so tables of dim 40 stay cheap to scan."""
    f = base.field
    n = base.dim
    cols = [basis_vec(f, n, sigma[k]) for k in range(n)]
    cols[x][sigma[y]] = c

    def coords(w):
        v = [w[sigma[k]] for k in range(n)]
        v[y] = f.sub(v[y], f.mul(c, v[x]))
        return v

    mul = [[coords(base.multiply(cols[i], cols[j])) for j in range(n)] for i in range(n)]
    return mul, coords(list(base.unit))


@st.composite
def large_algebras(draw):
    """Algebras of dim 16 to 40, past the size cut of Light's test: box
    truncations of the quantum plane, M_4 and M_5, triangular(6) (no small
    generating set, so the full scan runs) and k[t]/(t^n) for n in 16..40.
    Each is drawn under a sparse change of basis, or with one structure
    constant, one constant of the square of the unit's first basis element,
    or one unit entry moved by a nonzero amount, or both."""
    # weighted towards the kinds that have a small generating set
    kind = draw(st.sampled_from(["box", "truncated", "matrix", "box", "truncated", "triangular"]))
    if kind == "box":
        n, p = draw(st.sampled_from([(2, 5), (3, 13), (4, 17)]))
        rows = draw(st.integers(3, 6))
        base = oq_truncation(n, p, "box", (rows, draw(st.integers(-(-16 // rows), 6)))).algebra
    else:
        f = draw(st.sampled_from(PROPERTY_FIELDS))
        if kind == "matrix":
            base = matrix_algebra(f, draw(st.integers(4, 5)))
        elif kind == "triangular":
            base = triangular_algebra(f, 6)
        else:
            base = truncated_polynomial_algebra(f, draw(st.integers(16, 40)))
    f, n = base.field, base.dim
    where = draw(st.sampled_from(["nowhere", "entry", "unit square", "entry", "unit"]))
    if where == "nowhere" or draw(st.booleans()):
        sigma = draw(st.permutations(range(n)))
        x, y = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        mul, unit = sparse_rebased_table(base, sigma, x, y, draw(small_scalars(f)))
    else:
        mul = [[base.basis_product(i, j) for j in range(n)] for i in range(n)]
        unit = list(base.unit)
    bump = draw(small_scalars(f, nonzero=True))
    r = draw(st.integers(0, n - 1))
    if where == "entry":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        mul[i][j][r] = f.add(mul[i][j][r], bump)
    elif where == "unit square":
        u = next(k for k, x in enumerate(unit) if x)
        mul[u][u][r] = f.add(mul[u][u][r], bump)
    elif where == "unit":
        unit[r] = f.add(unit[r], bump)
    return FinDimAlgebra(f, base.labels, mul, unit)


def table(a):
    return a.field, a.mul, a.unit


class TestLightTest:
    @settings(max_examples=80)
    @given(large_algebras())
    def test_reports_match_full_scan(self, a):
        assert tuple(validate_algebra(a)) == oracle_validate(a)

    def test_generating_sets(self):
        f = GF(31)
        assert _light_generators(*table(matrix_algebra(f, 6))) == [0, 1, 2, 3, 4, 5, 6, 12, 18, 24, 30]
        assert _light_generators(*table(oq_truncation(4, 17, "box", (8, 8)).algebra)) == [1, 8]
        assert _light_generators(*table(truncated_polynomial_algebra(QQ, 40))) == [1]
        # more than dim // 3 generators: the full scan runs
        for a in [matrix_algebra(f, 4), matrix_algebra(f, 5), triangular_algebra(f, 6)]:
            assert _light_generators(*table(a)) is None
        # below the size cut
        assert _light_generators(*table(truncated_polynomial_algebra(f, 15))) is None

    def test_unit_law_is_checked_first(self):
        """k[t]/(t^16) with b_0 b_0 = 0: t lies in the middle nucleus and the
        words b_0 t^k span the space, but b_0 is no unit, and the table fails
        associativity at (b_0 b_0) b_1 != b_0 (b_0 b_1)."""
        base = truncated_polynomial_algebra(F5, 16)
        mul = [list(row) for row in base.mul]
        mul[0][0] = ()
        a = FinDimAlgebra(F5, base.labels, mul, base.unit)
        rep = validate_algebra(a)
        assert (rep.associative, rep.unital) == (False, False)
        assert tuple(rep) == oracle_validate(a)
        assert rep.witnesses[0] == ("associativity", (0, 0, 1, 1))


def oracle_first_triple(f, mul, pairs):
    """The dense per-triple scan: for each (i, j) in the order given and
    each k, both sides of (b_i b_j) b_k = b_i (b_j b_k) as dense vectors;
    the first (i, j, k) where they differ, or None."""
    dim = len(mul)
    for i, j in pairs:
        for k in range(dim):
            lhs, rhs = [f.zero()] * dim, [f.zero()] * dim
            for s, c in mul[i][j]:
                for t, c2 in mul[s][k]:
                    lhs[t] = f.add(lhs[t], f.mul(c, c2))
            for s, c in mul[j][k]:
                for t, c2 in mul[i][s]:
                    rhs[t] = f.add(rhs[t], f.mul(c, c2))
            if lhs != rhs:
                return i, j, k
    return None


@st.composite
def scan_tables(draw):
    """A diagonal, truncated polynomial, triangular, matrix or cyclic group
    algebra of dim up to 12, on its own sparse basis or under a dense change
    of basis, with up to two structure constants moved by a nonzero amount."""
    f = draw(st.sampled_from(PROPERTY_FIELDS))
    build, sizes = draw(st.sampled_from([
        (diagonal_algebra, (1, 12)), (truncated_polynomial_algebra, (1, 12)),
        (triangular_algebra, (1, 4)), (matrix_algebra, (1, 3)), (cyclic_group_algebra, (1, 6)),
    ]))
    base = build(f, draw(st.integers(*sizes)))
    n = base.dim
    if n <= 6 and draw(st.booleans()):
        mul, unit = rebased_table(base, draw(basis_changes(f, n)))
    else:
        mul, unit = [[base.basis_product(i, j) for j in range(n)] for i in range(n)], list(base.unit)
    for _ in range(draw(st.integers(0, 2))):
        i, j, r = (draw(st.integers(0, n - 1)) for _ in range(3))
        mul[i][j][r] = f.add(mul[i][j][r], draw(small_scalars(f, nonzero=True)))
    return FinDimAlgebra(f, base.labels, mul, unit)


class TestAssociativityScanAgainstDenseScan:
    """`_first_non_associative_triple` walks only the nonzero terms of each
    row; the dense per-triple scan gives the same verdict and witness, over
    all pairs and over the pairs (i, j) with j in a drawn subset, as Light's
    test scans them.  The dual table of the coalgebra on the transposed
    table is the table itself."""

    @settings(max_examples=300, deadline=None)
    @given(scan_tables(), st.data())
    def test_same_verdict_and_witness(self, a, data):
        f, mul, n = a.field, a.mul, a.dim
        comul = [[] for _ in range(n)]
        for i, row in enumerate(mul):
            for j, cell in enumerate(row):
                for r, c in cell:
                    comul[r].append((i, j, c))
        assert tuple(map(tuple, _dual_table(FinDimCoalgebra(f, a.labels, comul, a.unit)))) == mul
        middles = sorted(data.draw(st.sets(st.integers(0, n - 1))))
        for pairs in (list(product(range(n), repeat=2)), list(product(range(n), middles))):
            got = algebra_module._first_non_associative_triple(f, mul, iter(pairs))
            assert got == oracle_first_triple(f, mul, pairs)


# ---------------------------------------------------------------------------
# Hom and character checks against the per-scalar loops they replaced.


def oracle_hom_is_valid(hom):
    src, tgt = hom.source, hom.target
    if hom.apply(src.unit) != list(tgt.unit):
        return False
    images = [hom.apply(basis_vec(src.field, src.dim, i)) for i in range(src.dim)]
    for i in range(src.dim):
        for j in range(src.dim):
            lhs = hom.apply(src.basis_product(i, j))
            rhs = tgt.multiply(images[i], images[j])
            if lhs != rhs:
                return False
    return True


def oracle_character_is_valid(ch):
    a = ch.algebra
    if ch.evaluate(a.unit) != a.field.one():
        return False
    for i in range(a.dim):
        for j in range(a.dim):
            prod = ch.evaluate(a.basis_product(i, j))
            if prod != a.field.mul(ch.values[i], ch.values[j]):
                return False
    return True


class TestHomChecksAgainstOracles:
    @settings(max_examples=100)
    @given(st.data())
    def test_hom_validity_matches_per_scalar_check(self, data):
        src = data.draw(algebras())
        tgt = data.draw(st.sampled_from([src, data.draw(algebras(perturbed=True, field=src.field))]))
        f = src.field
        ent = [f.one() if i == j else f.zero() for i in range(tgt.dim) for j in range(src.dim)]
        if data.draw(st.booleans()):
            ent[data.draw(st.integers(0, len(ent) - 1))] = data.draw(small_scalars(f))
        hom = AlgebraHom(src, tgt, Matrix(f, tgt.dim, src.dim, ent))
        assert hom.is_valid() == oracle_hom_is_valid(hom)

    @settings(max_examples=60)
    @given(st.data())
    def test_character_validity_matches_per_scalar_check(self, data):
        # p > dim, as one_dim_characters needs
        a = data.draw(algebras(field=data.draw(st.sampled_from([GF(7), GF(11)]))))
        f = a.field
        chars = one_dim_characters(a)
        if chars and data.draw(st.booleans()):
            values = list(data.draw(st.sampled_from(chars)).values)
        else:
            values = data.draw(st.lists(small_scalars(f), min_size=a.dim, max_size=a.dim))
        if data.draw(st.booleans()):
            values[data.draw(st.integers(0, a.dim - 1))] = data.draw(small_scalars(f))
        ch = Character(a, values)
        assert ch.is_valid() == oracle_character_is_valid(ch)


# ---------------------------------------------------------------------------
# Semisimple profiles known by construction.


def block_sum(blocks):
    """Block-diagonal product of algebras over one field."""
    f = blocks[0].field
    dim = sum(b.dim for b in blocks)
    mul = [[() for _ in range(dim)] for _ in range(dim)]
    unit = []
    for b in blocks:
        off = len(unit)
        for i in range(b.dim):
            for j in range(b.dim):
                mul[off + i][off + j] = tuple((off + r, c) for r, c in b.mul[i][j])
        unit += b.unit
    return FinDimAlgebra(f, [f"b{k}" for k in range(dim)], mul, unit)


def field_block(f, k):
    """k[t]/(g) for the least monic g of degree 2 or 3 with no root in k,
    found by brute force over GF(p); over Q, t^k - 2."""
    if isinstance(f, Rationals):
        return monogenic_algebra(f, Poly.from_ints(f, [-2] + [0] * (k - 1) + [1]))
    for code in range(f.p ** k):
        g = Poly.from_ints(f, [code // f.p ** i % f.p for i in range(k)] + [1])
        if all(g.evaluate(x) for x in range(f.p)):
            return monogenic_algebra(f, g)


@st.composite
def known_profiles(draw):
    """(algebra, profile, characters): a block-diagonal product of matrix
    algebras M_d, field extensions of degree 2 or 3 and dual numbers
    k[t]/(t^2), under a random change of basis.  By construction M_d gives
    the factor (d^2, 1), a degree-k extension (k, k) and k[t]/(t^2) one
    radical dimension and (1, 1); the characters are one per M_1 and per
    k[t]/(t^2).  Over Q an extension block is not split, and the profile is
    None."""
    f = draw(st.sampled_from([GF(7), GF(11), GF(13), QQ]))
    budget = 8 if isinstance(f, Rationals) else f.p - 1  # p > dim for the radical
    blocks, factors, radical_dim, characters = [], [], 0, 0
    for kind, size in draw(st.lists(st.tuples(st.sampled_from(["matrix", "field", "dual"]),
                                              st.integers(1, 3)), min_size=1, max_size=4)):
        if kind == "matrix":
            d = min(size, 2)
            block, factor, rad, chars = matrix_algebra(f, d), (d * d, 1), 0, int(d == 1)
        elif kind == "field":
            k = min(size + 1, 3)
            block, factor, rad, chars = field_block(f, k), (k, k), 0, 0
        else:
            block, factor, rad, chars = truncated_polynomial_algebra(f, 2), (1, 1), 1, 1
        # the first block always fits
        if sum(b.dim for b in blocks) + block.dim <= budget:
            blocks.append(block)
            factors.append(factor)
            radical_dim += rad
            characters += chars
    base = block_sum(blocks)
    mul, unit = rebased_table(base, draw(basis_changes(f, base.dim)))
    a = FinDimAlgebra(f, base.labels, mul, unit)
    split = not (isinstance(f, Rationals) and any(c > 1 for _, c in factors))
    profile = (radical_dim, tuple(sorted(factors))) if split else None
    return a, profile, characters


class TestProfileAgainstConstruction:
    @settings(max_examples=80)
    @given(known_profiles())
    def test_profile_and_character_count(self, case):
        a, profile, characters = case
        if profile is None:
            with pytest.raises(NotSplitError):
                semisimple_profile(a)
            with pytest.raises(NotSplitError):
                one_dim_characters(a)
        else:
            assert semisimple_profile(a) == profile
            assert len(one_dim_characters(a)) == characters


# ---------------------------------------------------------------------------
# Characters against the commutator-ideal algorithm they replaced: a second
# quotient of a/J by the ideal its commutators generate, and a split of the
# whole basis of that abelianization.


def oracle_one_dim_characters(a):
    """The algebra maps a -> k as the characters of the abelianization of
    a/J, each read off a primitive idempotent e with rank L_e = 1."""
    f = a.field
    semi, proj1 = quotient_algebra(a, radical(a))
    comms = [f.canonical(map(operator.sub, semi.basis_product(i, j), semi.basis_product(j, i)))
             for i, j in combinations(range(semi.dim), 2)]
    comm_ideal = ideal_closure(semi, comms)
    if comm_ideal.contains(semi.unit):
        return []
    ab, proj2 = quotient_algebra(semi, comm_ideal)
    basis = [_basis_vec(f, ab.dim, i) for i in range(ab.dim)]
    composed = []
    for e in _primitive_idempotents(ab, basis):
        if ab.left_mult_matrix(e).rank() == 1:
            pivot = next(k for k, x in enumerate(e) if x)
            inv = f.inv(e[pivot])
            values = [f.mul(ab.multiply(b, e)[pivot], inv) for b in basis]
            full = Matrix(f, 1, ab.dim, values) @ proj2.matrix @ proj1.matrix
            composed.append(Character(a, full.entries))
    composed.sort(key=lambda ch: ch.values)
    assert all(ch.is_valid() for ch in composed)
    return composed


def character_values(fn, a):
    """The values of each character fn(a), or the class of the precondition
    error fn raises."""
    try:
        return [ch.values for ch in fn(a)]
    except (CharacteristicTooSmallError, NotSplitError, InvalidInputError) as exc:
        return type(exc)


def q_times_m2_over_quadratic_field():
    """Q x M_2(Q(sqrt 2)), dim 9: M_2(Q) (x) Q[t]/(t^2 - 2) under the swap."""
    quadratic = monogenic_algebra(QQ, Poly.from_ints(QQ, [-2, 0, 1]))
    return block_sum([diagonal_algebra(QQ, 1), twisted_product(tensor_swap(matrix_algebra(QQ, 2), quadratic))])


CHARACTER_ALGEBRAS = {
    "m2-gf5": matrix_algebra(F5, 2),
    "z2-gf5": cyclic_group_algebra(F5, 2, var="t"),
    "z4-gf5": cyclic_group_algebra(F5, 4),
    "dual-numbers-gf5": truncated_polynomial_algebra(F5, 2),
    "diagonal3-gf5": diagonal_algebra(F5, 3),
    "gf25": monogenic_algebra(F5, Poly.from_ints(F5, [-2, 0, 1])),
    "sqrt2-q": monogenic_algebra(QQ, Poly.from_ints(QQ, [-2, 0, 1])),
    "split-q": monogenic_algebra(QQ, Poly.from_ints(QQ, [2, -3, 1])),
    "triangular2-gf5": triangular_algebra(F5, 2),
    "triangular3-gf7": triangular_algebra(GF(7), 3),
    "triangular2-gf3": triangular_algebra(GF(3), 2),
    "zero-gf5": FinDimAlgebra(F5, [], [], []),
    "zero-q": FinDimAlgebra(QQ, [], [], []),
}


class TestCharactersAgainstOracle:
    @pytest.mark.parametrize("a", CHARACTER_ALGEBRAS.values(), ids=CHARACTER_ALGEBRAS.keys())
    def test_named_algebras(self, a):
        assert character_values(one_dim_characters, a) == character_values(oracle_one_dim_characters, a)

    @settings(max_examples=40)
    @given(known_profiles())
    def test_known_profiles(self, case):
        a, profile, characters = case
        want = character_values(oracle_one_dim_characters, a)
        assert character_values(one_dim_characters, a) == want
        assert want is NotSplitError if profile is None else len(want) == characters


# ---------------------------------------------------------------------------
# Certified algebras: center, ideals, quotients and characters run over a
# generating set, and must match the per-scalar oracles and the full-basis
# path on an uncertified copy of the same table.


def uncertified_copy(a):
    return FinDimAlgebra(a.field, a.labels, a.mul, a.unit)


def generating_set_spy():
    """Counts the searches for a generating set inside a with block."""
    return mock.patch.object(algebra_module, "_generating_set", wraps=algebra_module._generating_set)


def outcome(fn, *args):
    """fn(*args), or the class of the precondition error it raises."""
    try:
        return fn(*args)
    except (CharacteristicTooSmallError, NotSplitError, InvalidInputError) as exc:
        return type(exc)


def check_against_oracles(a, vectors):
    """center, ideal_closure, is_ideal and quotient_algebra of `a` against
    the oracles and the uncertified copy; returns the quotient, or None."""
    assert center(a).rows == oracle_center(a).rows
    closure = ideal_closure(a, vectors)
    assert closure.rows == oracle_ideal_closure(a, vectors).rows
    space = Subspace(a, vectors)
    assert is_ideal(a, space) == oracle_is_ideal(a, space)
    assert is_ideal(a, closure)
    if closure.contains(a.unit):
        return None
    plain = uncertified_copy(a)
    quot, proj = quotient_algebra(a, closure)
    want, want_proj = quotient_algebra(plain, Subspace(plain, closure.rows))
    assert (quot, proj.matrix) == (want, want_proj.matrix)
    assert center(quot).rows == oracle_center(quot).rows
    return quot


class TestCertifiedAlgebras:
    @settings(max_examples=120)
    @given(st.data())
    def test_certified_algebras_match_oracles(self, data):
        a = data.draw(algebras())
        assert validate_algebra(a).ok
        vectors = st.lists(small_scalars(a.field), min_size=a.dim, max_size=a.dim)
        quot = check_against_oracles(a, data.draw(st.lists(vectors, max_size=2)))
        assert a._gens is not None and (quot is None or quot._gens is not None)
        assert outcome(one_dim_characters, a) == outcome(one_dim_characters, uncertified_copy(a))

    @settings(max_examples=120)
    @given(st.data())
    def test_perturbed_tables_are_never_certified(self, data):
        a = data.draw(algebras(perturbed=True))
        vectors = st.lists(small_scalars(a.field), min_size=a.dim, max_size=a.dim)
        gens = data.draw(st.lists(vectors, max_size=2))
        certified = validate_algebra(a).ok
        with generating_set_spy() as spy:
            quot = check_against_oracles(a, gens)
        if not certified:
            assert spy.call_count == 0
            assert a._gens is None and (quot is None or quot._gens is None)

    @settings(max_examples=12)
    @given(st.data())
    def test_large_algebras_match_oracles(self, data):
        """The per-scalar oracles on a, the full-basis path on the quotient."""
        a = data.draw(large_algebras())
        certified = validate_algebra(a).ok
        vec = data.draw(st.lists(small_scalars(a.field), min_size=a.dim, max_size=a.dim))
        gen = basis_vec(a.field, a.dim, data.draw(st.integers(1, a.dim - 1)))
        plain = uncertified_copy(a)
        with generating_set_spy() as spy:
            assert center(a).rows == oracle_center(a).rows
            closure = ideal_closure(a, [gen])
            assert closure.rows == oracle_ideal_closure(a, [gen]).rows
            space = Subspace(a, [gen, vec])
            assert is_ideal(a, space) == oracle_is_ideal(a, space)
            if not closure.contains(a.unit):
                quot, proj = quotient_algebra(a, closure)
                want, want_proj = quotient_algebra(plain, Subspace(plain, closure.rows))
                assert (quot, proj.matrix) == (want, want_proj.matrix)
                assert center(quot).rows == center(want).rows
            assert outcome(one_dim_characters, a) == outcome(one_dim_characters, plain)
        # the validation's generating set is kept; the quotient's is searched
        assert all(call.args[1] is not a.mul for call in spy.call_args_list)
        if not certified:
            assert spy.call_count == 0 and a._gens is None

    @settings(max_examples=60)
    @given(known_profiles())
    def test_certified_profile_and_character_count(self, case):
        a, profile, characters = case
        assert validate_algebra(a).ok
        if profile is not None:
            assert semisimple_profile(a) == profile
            assert len(one_dim_characters(a)) == characters

    def test_generating_sets_of_certified_algebras(self):
        f = GF(31)
        fiber = oq_truncation(3, 13, "central_fiber", (0, 0)).algebra  # dim 9, validated
        assert _generators(fiber) == (1, 3)  # y and x
        m6 = matrix_algebra(f, 6)
        assert _generators(m6) == range(36)
        with generating_set_spy() as spy:
            assert validate_algebra(m6).ok
            assert _generators(m6) == (0, 1, 2, 3, 4, 5, 6, 12, 18, 24, 30)
            center(m6)
        assert spy.call_count == 1  # validation's search, not repeated
        # M_4 has no generating set of at most 5 indices: the whole basis
        m4 = matrix_algebra(f, 4)
        assert validate_algebra(m4).ok and _generators(m4) == tuple(range(16))

    def test_left_ideal_of_certified_algebra_is_not_an_ideal(self):
        """The first column of M_6 is a left ideal, not a right one: s I in I
        for every generator s, but E_11 E_12 = E_12 is outside."""
        a = matrix_algebra(GF(31), 6)
        assert validate_algebra(a).ok
        first_column = Subspace(a, [basis_vec(a.field, 36, 6 * i) for i in range(6)])
        assert all(first_column.contains(a.multiply(basis_vec(a.field, 36, k), v))
                   for k in range(36) for v in first_column.rows)
        assert not is_ideal(a, first_column)
        with pytest.raises(NotAnIdealError):
            quotient_algebra(a, first_column)

    def test_quotient_of_uncertified_algebra_is_uncertified(self):
        a = truncated_polynomial_algebra(F5, 8)
        t4 = ideal_closure(a, [basis_vec(F5, 8, 4)])
        assert _generators(quotient_algebra(a, t4)[0]) == range(4)
        assert validate_algebra(a).ok
        assert _generators(quotient_algebra(a, t4)[0]) == (1,)


# ---------------------------------------------------------------------------
# Table normalization: a cell already in normal form is kept, and every
# stored table equals the full normalization's, byte for byte.


def oracle_normalize_mul(field, dim, mul):
    """The normalization that merges, reduces, filters and sorts every cell."""
    zero = field.zero()
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            cell = mul[i][j]
            if cell and isinstance(cell[0], tuple):
                pairs = cell
                if len(cell) > 1:
                    merged = {}
                    for r, c in cell:
                        merged[r] = field.add(merged[r], c) if r in merged else c
                    pairs = merged.items()
            else:
                pairs = enumerate(cell)
            pairs = [(r, field.canonical([c])[0]) for r, c in pairs]
            row.append(tuple(sorted((r, c) for r, c in pairs if c != zero)))
        out.append(tuple(row))
    return tuple(out)


def checked_normalization():
    """Inside a with block, every table FinDimAlgebra normalizes is compared
    with `oracle_normalize_mul`: equal, and equal in repr (so in type).
    `check.tables` keeps each normalized table, in call order."""
    real = algebra_module._normalize_mul

    def check(field, dim, mul):
        got = real(field, dim, mul)
        want = oracle_normalize_mul(field, dim, mul)
        assert got == want and repr(got) == repr(want)
        check.calls += 1
        check.tables.append(got)
        return got

    check.calls = 0
    check.tables = []
    return mock.patch.object(algebra_module, "_normalize_mul", side_effect=check), check


def assert_normal_table(a):
    """The stored table of `a` is its own full normalization: equal, and
    equal in repr (so in type)."""
    want = oracle_normalize_mul(a.field, a.dim, a.mul)
    assert a.mul == want and repr(a.mul) == repr(want)


@st.composite
def raw_cells(draw, a):
    """The table of `a` with each cell in a random input form: normal, in
    reverse order, with a zero pair, with one coefficient split in two, as a
    list of pairs, or dense."""
    f = a.field
    table = []
    for i in range(a.dim):
        row = []
        for j in range(a.dim):
            cell = a.mul[i][j]
            form = draw(st.sampled_from(["normal", "reversed", "zero", "split", "list", "dense"]))
            if form == "reversed":
                cell = cell[::-1]
            elif form == "zero":
                cell = cell + ((draw(st.integers(0, a.dim - 1)), f.zero()),)
            elif form == "split" and cell:
                (r, c), rest = cell[0], cell[1:]
                x = draw(small_scalars(f))
                cell = ((r, f.sub(c, x)),) + rest + ((r, x),)
            elif form == "list":
                cell = list(cell)
            elif form == "dense":
                cell = a.basis_product(i, j)
            row.append(cell)
        table.append(row)
    return table


def dense_monogenic_algebra(field, modulus, var="t"):
    """k[t]/(f) as `monogenic_algebra` built it before its cells were
    sparse: t^(i+j) mod f by `Poly` arithmetic, one dense coefficient list
    per cell, normalized by `FinDimAlgebra`."""
    d = modulus.degree()
    monic = modulus.monic()
    powers = []
    cur = Poly.constant(field, field.one())
    t = Poly.x(field)
    for _ in range(2 * d - 1):
        powers.append(list(cur.coeffs) + [field.zero()] * (d - len(cur.coeffs)))
        cur = (cur * t) % monic
    mul = [[powers[i + j] for j in range(d)] for i in range(d)]
    labels = ["1"] + [var if k == 1 else f"{var}^{k}" for k in range(1, d)]
    return FinDimAlgebra(field, labels, mul, basis_vec(field, d, 0))


@st.composite
def moduli(draw):
    """A field of `PROPERTY_FIELDS` and a polynomial over it of degree 1 to
    9, not monic, sparse (t^d, t^d - 1 and the like) or dense."""
    f = draw(st.sampled_from(PROPERTY_FIELDS))
    d = draw(st.integers(1, 9))
    low = draw(st.lists(st.one_of(st.just(f.zero()), small_scalars(f)), min_size=d, max_size=d))
    return f, Poly(f, low + [draw(small_scalars(f, nonzero=True))])


class TestSparseMonogenic:
    @settings(max_examples=150)
    @given(moduli())
    def test_equals_the_dense_build(self, modulus):
        from findual.codec import to_canonical_json

        f, g = modulus
        a, want = monogenic_algebra(f, g), dense_monogenic_algebra(f, g)
        assert a == want and a._gens is None
        assert to_canonical_json(a) == to_canonical_json(want)
        assert_normal_table(a)


class TestNormalization:
    def test_named_constructors(self):
        """The public constructors store the table their own checked
        normalization returned.  The builders that emit normal tables, the
        codec's included, skip the normalization, and their tables are
        compared with the oracle directly."""
        from findual.coalgebra import comatrix_coalgebra, dualize_algebra, dualize_coalgebra
        from findual.codec import loads, to_canonical_json

        public = [
            lambda: matrix_algebra(F5, 3), lambda: triangular_algebra(QQ, 3),
            lambda: diagonal_algebra(F5, 3),
        ]
        triangular = triangular_algebra(GF(7), 3)
        swap = tensor_swap(matrix_algebra(F5, 2), triangular_algebra(F5, 2))
        private = [
            lambda: truncated_polynomial_algebra(GF(7), 5), lambda: cyclic_group_algebra(QQ, 4),
            lambda: oq_truncation(3, 13, "box", (4, 5)).algebra,
            lambda: oq_truncation(3, 13, "central_fiber", (2, 5)).algebra,
            lambda: regular_point_jet_algebra(3, 13, 2, 5),
            lambda: quotient_algebra(triangular, radical(triangular))[0],
            lambda: dualize_coalgebra(comatrix_coalgebra(F5, 3)),
            lambda: dualize_coalgebra(dualize_algebra(oq_truncation(2, 5, "box", (3, 3)).algebra)),
            lambda: raw_twisted_algebra(swap),
            lambda: loads(to_canonical_json(dualize_coalgebra(comatrix_coalgebra(QQ, 2)))),
        ]
        patch, check = checked_normalization()
        with patch:
            for build in public:
                a = build()
                assert check.tables and a.mul is check.tables[-1]
            calls = check.calls
            for build in private:
                assert_normal_table(build())
        assert check.calls == calls

    @settings(max_examples=100)
    @given(st.data())
    def test_unreduced_scalars_stream(self, data):
        """Each GF(p) coefficient c of a table, a unit, a comultiplication
        and a counit written as c + k p, k drawn per entry, with the cells in
        random input forms: the constructors store the reduced objects, so
        they equal them, dualize as they do and encode to the same bytes."""
        from findual.codec import to_canonical_json
        from findual.coalgebra import FinDimCoalgebra, dualize_algebra, dualize_coalgebra

        f = data.draw(st.sampled_from([GF(2), GF(3), GF(5), GF(7)]))
        a = data.draw(st.booleans().flatmap(lambda bad: algebras(perturbed=bad, field=f)))

        def lift(c):
            return c + f.p * data.draw(st.integers(0, 3))

        # a tuple cell stays a tuple, so it reaches the normal-form check
        table = [[type(cell)((r, lift(c)) for r, c in cell) if cell and isinstance(cell[0], tuple)
                  else [lift(c) for c in cell] for cell in row] for row in data.draw(raw_cells(a))]
        b = FinDimAlgebra(f, a.labels, table, [lift(u) for u in a.unit])
        assert b == a and repr((b.mul, b.unit)) == repr((a.mul, a.unit))
        assert to_canonical_json(b) == to_canonical_json(a)
        if validate_algebra(a).ok:
            assert dualize_coalgebra(dualize_algebra(b)) == a
        comul = [[] for _ in range(a.dim)]
        for i, row in enumerate(a.mul):
            for j, cell in enumerate(row):
                for r, c in cell:
                    comul[r].append((i, j, c))
        c = FinDimCoalgebra(f, a.labels, comul, a.unit)
        lifted = [[(i, j, lift(x)) for i, j, x in triples] for triples in comul]
        if a.dim:
            lifted[0].append((0, 0, f.p * data.draw(st.integers(1, 3))))
        d = FinDimCoalgebra(f, a.labels, lifted, [lift(u) for u in a.unit])
        assert d == c and repr((d.comul, d.counit)) == repr((c.comul, c.counit))
        assert to_canonical_json(d) == to_canonical_json(c)

    @settings(max_examples=100)
    @given(st.data())
    def test_algebra_stream(self, data):
        a = data.draw(st.booleans().flatmap(lambda bad: algebras(perturbed=bad)))
        raw = data.draw(raw_cells(a))
        patch, check = checked_normalization()
        with patch:
            b = FinDimAlgebra(a.field, a.labels, raw, a.unit)
            FinDimAlgebra(a.field, a.labels, a.mul, a.unit)
        assert check.calls == 2 and b == a


# ---------------------------------------------------------------------------
# Sparse reduction against the RREF rows: quotients, ideal checks and
# membership against the dense reduction they replaced, which densifies each
# table cell and reduces it against every row.


def dense_contains(space, vec):
    f = space.ambient.field
    return not any(reduce_against(space.rows, row_pivots(space.rows), list(vec), f)[0])


def dense_translates(a, v, indices):
    """(b_i v, v b_i) as dense reduced vectors, for each i in `indices`."""
    f = a.field
    terms = [(j, x) for j, x in enumerate(v) if x]
    for i in indices:
        left = [f.zero()] * a.dim
        right = [f.zero()] * a.dim
        for j, x in terms:
            for r, c in a.mul[i][j]:
                left[r] += c * x
            for r, c in a.mul[j][i]:
                right[r] += x * c
        yield f.canonical(left), f.canonical(right)


def dense_is_ideal(a, space):
    return all(dense_contains(space, left) and dense_contains(space, right)
               for v in space.rows for left, right in dense_translates(a, v, _generators(a)))


def dense_quotient(a, ideal):
    """(labels, table, unit, projection matrix) of a / ideal, each basis
    product densified and reduced against every row of the ideal."""
    f = a.field
    if not dense_is_ideal(a, ideal):
        raise NotAnIdealError("subspace is not closure-stable")
    if a.dim and dense_contains(ideal, a.unit):
        raise ImproperIdealError("ideal contains the unit")
    if not ideal.dim:
        return a.labels, a.mul, a.unit, Matrix.identity(f, a.dim)
    pivots = row_pivots(ideal.rows)
    non_pivots = [j for j in range(a.dim) if j not in pivots]

    def reduce_coords(vec):
        residual = reduce_against(ideal.rows, pivots, list(vec), f)[0]
        return [residual[j] for j in non_pivots]

    m = len(non_pivots)
    mul = [[reduce_coords(a.basis_product(j1, j2)) for j2 in non_pivots] for j1 in non_pivots]
    quot = FinDimAlgebra(f, [a.labels[j] for j in non_pivots], mul, reduce_coords(a.unit))
    cols = [reduce_coords(_basis_vec(f, a.dim, i)) for i in range(a.dim)]
    proj = Matrix(f, m, a.dim, [cols[i][r] for r in range(m) for i in range(a.dim)])
    return quot.labels, quot.mul, quot.unit, proj


def sparse_quotient(a, ideal):
    quot, proj = quotient_algebra(a, ideal)
    return quot.labels, quot.mul, quot.unit, proj.matrix


def caught(fn, *args):
    """fn(*args), or the class of the findual error it raises."""
    try:
        return fn(*args)
    except FindualError as exc:
        return type(exc)


def check_sparse_against_dense(a, spaces, vectors):
    """quotient_algebra, is_ideal and contains on every space against the
    dense reduction: equal results, or the same error class."""
    for space in spaces:
        assert is_ideal(a, space) == dense_is_ideal(a, space)
        got, want = caught(sparse_quotient, a, space), caught(dense_quotient, a, space)
        assert got == want and repr(got) == repr(want)
        if isinstance(got, tuple):
            assert_normal_table(quotient_algebra(a, space)[0])
        for vec in vectors:
            assert space.contains(vec) == dense_contains(space, vec)


def dense_spaces(a, rng, count):
    """`count` subspaces spanned by 1 to 3 random dense vectors: mostly not
    ideals."""
    f = a.field
    return [Subspace(a, [[f.of(rng.randrange(-3, 4)) for _ in range(a.dim)] for _ in range(rng.randint(1, 3))])
            for _ in range(count)]


def probe_vectors(a, spaces, rng):
    """The unit, the rows of every space, sums of two rows and random
    vectors: members and non-members of each space."""
    f = a.field
    rows = [list(r) for s in spaces for r in s.rows]
    sums = [f.canonical(map(operator.add, x, y)) for x, y in zip(rows, rows[1:])]
    noise = [[f.of(rng.randrange(-2, 3)) for _ in range(a.dim)] for _ in range(3)]
    return [list(a.unit)] + rows + sums + noise


def census_representatives(n, p):
    """The algebras `azumaya_census(n, p)` profiles, certified as it left them."""
    built = []
    real = qplane._monomial_algebra

    def record(*args):
        built.append(real(*args))
        return built[-1]

    with mock.patch.object(qplane, "_monomial_algebra", side_effect=record):
        azumaya_census(n, p)
    return built


class TestSparseReductionAgainstDense:
    @pytest.mark.parametrize("a", SUBSPACE_PRODUCT_ALGEBRAS.values(), ids=SUBSPACE_PRODUCT_ALGEBRAS.keys())
    def test_named_algebras(self, a):
        rng = random.Random(a.dim)
        spaces = [Subspace(a, []), radical(a), Subspace(a, [a.unit]),
                  ideal_closure(a, [basis_vec(a.field, a.dim, a.dim - 1)])] + dense_spaces(a, rng, 2)
        check_sparse_against_dense(a, spaces, probe_vectors(a, spaces, rng))

    @pytest.mark.parametrize("point", [(2, 5, 1, 1), (3, 13, 2, 3), (4, 17, 9, 12)], ids=str)
    def test_jet_algebras(self, point):
        a = regular_point_jet_algebra(*point)
        rng = random.Random(point[1])
        rad = _radical_trace_form(a)
        spaces = [rad, subspace_product(a, rad, rad), Subspace(a, [a.unit])] + dense_spaces(a, rng, 2)
        check_sparse_against_dense(a, spaces, probe_vectors(a, spaces, rng))

    def test_census_representatives(self):
        reps = census_representatives(3, 13)
        assert len(reps) == 10 and all(a._gens is not None for a in reps)
        rng = random.Random(13)
        for a in reps:
            spaces = [radical(a), Subspace(a, [a.unit])] + dense_spaces(a, rng, 1)
            check_sparse_against_dense(a, spaces, probe_vectors(a, spaces, rng))

    @settings(max_examples=40)
    @given(known_profiles(), st.randoms(use_true_random=False))
    def test_known_profiles(self, case, rng):
        a = case[0]
        spaces = [radical(a), Subspace(a, [a.unit])] + dense_spaces(a, rng, 2)
        check_sparse_against_dense(a, spaces, probe_vectors(a, spaces, rng))

    def test_residue_of_a_sparse_vector(self):
        """Rows (1, 2, 0, 3) and (0, 0, 1, 4) over GF(5): a vector touching
        both pivots loses both, and its off-pivot entries take the rest."""
        a = diagonal_algebra(F5, 4)
        space = Subspace(a, [[1, 2, 0, 3], [0, 0, 1, 4]])
        assert space.residue({0: 1, 2: 1}) == {1: 3, 3: 3}
        assert space.residue({0: 6, 1: 12, 3: 18}) == {}
        assert space.residue({1: 5}) == {}
        assert Subspace(a, []).residue({3: 7, 0: 0}) == {3: 2}


class TestNoDensification:
    """The census and the point invariants reduce table cells sparsely:
    no basis product is ever densified."""

    @pytest.mark.parametrize("run", [lambda: azumaya_census(4, 17),
                                     lambda: azumaya_point_invariants(5, 31, 26, 23)],
                             ids=["census-4-17", "point-5-31"])
    def test_no_basis_product(self, run):
        with mock.patch.object(FinDimAlgebra, "basis_product", autospec=True,
                               side_effect=FinDimAlgebra.basis_product) as spy:
            run()
        assert spy.call_count == 0


# ---------------------------------------------------------------------------
# The unit law against the dense loop it replaced: 2 dim products of basis
# vectors, compared with the basis vector.


def dense_unit_failure(a):
    f = a.field
    for j in range(a.dim):
        target = basis_vec(f, a.dim, j)
        if (a.multiply(list(a.unit), target) != target
                or a.multiply(target, list(a.unit)) != target):
            return "unit", (j,)
    return None


@st.composite
def perturbed_units(draw):
    """An algebra over GF(5) or Q, with its unit or one table entry moved
    by a nonzero amount, or neither."""
    a = draw(algebras(field=draw(st.sampled_from([F5, QQ]))))
    f = a.field
    unit = list(a.unit)
    mul = [[list(cell) for cell in row] for row in a.mul]
    move = draw(st.sampled_from(["none", "unit", "table"]))
    if move == "unit":
        k = draw(st.integers(0, a.dim - 1))
        unit[k] = f.add(unit[k], draw(small_scalars(f, nonzero=True)))
    elif move == "table":
        i, j, r = (draw(st.integers(0, a.dim - 1)) for _ in range(3))
        mul[i][j].append((r, draw(small_scalars(f, nonzero=True))))
    return FinDimAlgebra(f, a.labels, mul, unit)


class TestUnitLawAgainstDenseLoop:
    @settings(max_examples=50)
    @given(perturbed_units())
    def test_first_failure_and_report(self, a):
        failure = dense_unit_failure(a)
        report = validate_algebra(a)
        assert report.unital == (failure is None)
        assert (failure in report.witnesses) == (failure is not None)
        assert tuple(report) == oracle_validate(a)

    def test_unit_law_builds_no_dense_product(self):
        a = regular_point_jet_algebra(5, 31, 26, 23)
        with mock.patch.object(FinDimAlgebra, "multiply", autospec=True,
                               side_effect=FinDimAlgebra.multiply) as spy:
            assert validate_algebra(FinDimAlgebra(a.field, a.labels, a.mul, a.unit)).ok
        assert spy.call_count == 0


# ---------------------------------------------------------------------------
# Simple factors against the rank path: with one primitive central idempotent
# e = 1 the factor is read off the dimension and the center; every other
# algebra still takes rank L_e for each e.  A one-dimensional center means a
# central simple algebra, and then no idempotent is sought at all.


def rank_simple_factors(semi):
    """`_simple_factors` with rank L_e and the span of the z e taken for
    every e."""
    f = semi.field
    rows = center(semi).rows
    return [(e, semi.left_mult_matrix(e).rank(), len(echelon_rows(f, [semi.multiply(z, e) for z in rows])))
            for e in _primitive_idempotents(semi, rows)]


def check_simple_factors(semi):
    """`_simple_factors` equals the rank path, takes no rank exactly when
    there is one factor, and seeks no idempotent exactly when the center is
    one-dimensional; returns the number of factors."""
    rows = center(semi).rows
    with mock.patch.object(FinDimAlgebra, "left_mult_matrix", autospec=True,
                           side_effect=FinDimAlgebra.left_mult_matrix) as spy, \
            mock.patch.object(algebra_module, "_primitive_idempotents",
                              side_effect=_primitive_idempotents) as idempotents:
        got = _simple_factors(semi, rows)
    assert got == rank_simple_factors(semi)
    assert (spy.call_count == 0) == (len(got) == 1)
    assert (idempotents.call_count == 0) == (len(rows) == 1)
    return len(got)


def semisimple_top(a):
    return quotient_algebra(a, _radical_trace_form(a))[0]


class TestSimpleFactorsAgainstRank:
    @pytest.mark.parametrize("field", [QQ, F5], ids=["q", "gf5"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matrix_algebras(self, field, d):
        assert check_simple_factors(matrix_algebra(field, d)) == 1

    def test_census_representatives(self):
        tops = [semisimple_top(a) for a in census_representatives(3, 13)]
        counts = [check_simple_factors(top) for top in tops]
        assert len(counts) == 10 and 1 in counts and max(counts) > 1
        # the six off-axis classes (M_3) and fiber(0, 0) (k) are central simple
        assert sum(center(top).dim == 1 for top in tops) == 7

    @pytest.mark.parametrize("point", [(2, 5, 1, 1), (4, 17, 9, 12)], ids=str)
    def test_jet_tops(self, point):
        assert check_simple_factors(semisimple_top(regular_point_jet_algebra(*point))) == 1

    def test_multi_factor_algebras_take_the_rank_path(self):
        f = GF(7)
        algebras = [
            diagonal_algebra(F5, 3), cyclic_group_algebra(F5, 4),
            block_sum([matrix_algebra(f, 2), matrix_algebra(f, 1)]),
            block_sum([field_block(f, 2), matrix_algebra(f, 2)]),
        ]
        assert [check_simple_factors(a) for a in algebras] == [3, 4, 2, 2]
        assert check_simple_factors(field_block(f, 3)) == 1


# ---------------------------------------------------------------------------
# The two input-dependent checks of `_primitive_idempotents`.


class TestIdempotentChecks:
    @pytest.mark.parametrize("mu,error", [
        ([1, -2, 1], InvalidInputError),  # (t - 1)^2
        ([-2, 0, 1], NotSplitError),  # t^2 - 2, irreducible over GF(5)
    ], ids=["non-squarefree", "not-split"])
    def test_planted_minimal_polynomials_raise(self, mu, error):
        a = diagonal_algebra(F5, 2)
        with mock.patch.object(algebra_module, "minimal_polynomial", lambda alg, z: Poly.from_ints(F5, mu)):
            with pytest.raises(error):
                _primitive_idempotents(a, [[1, 1], [1, 2]])
