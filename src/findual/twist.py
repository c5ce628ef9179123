"""Twisting maps, twisted tensor products, crossed product coalgebras, and
bialgebra duality at finite-dimensional level.

Conventions (load-bearing, shared with the JSON codec):
  * A twisting map rho: B (x) A -> A (x) B stores its matrix with columns
    indexed by b_j (x) a_i at j*dim(A) + i and rows by a_i (x) b_j at
    i*dim(B) + j.
  * A cotwisting map phi: C (x) D -> D (x) C has columns c_i (x) d_j at
    i*dim(D) + j and rows d_j (x) c_i at j*dim(C) + i.
Dualization is matrix transposition on the fixed dual bases, which makes the
finite-level crossed-product duality an entrywise equality.

The twisted product's table is built in the normal form `FinDimAlgebra`
stores (each cell sorted by output index, canonical coefficients, zero sums
dropped) and stored as it stands; the product is never taken as certified,
so dualizing it validates it.  A map's sparse columns are slices of its
matrix's row-major entries.

Law checks: every axiom is a stream of laws, each an unreduced sparse
lhs - rhs built with the plain ``+ - *`` operators and reduced once
(`algebra._first_failure`).  The first law that fails, in loop order, is the
witness, and the later laws of the same axiom are not evaluated.
"""

from __future__ import annotations

import random
from operator import sub
from typing import NamedTuple

from .algebra import (
    AlgebraHom,
    FinDimAlgebra,
    _first_failure,
    _from_normal_table,
    cyclic_group_algebra,
    monogenic_algebra,
    triangular_algebra,
    truncated_polynomial_algebra,
    validate_algebra,
)
from .coalgebra import (
    FinDimCoalgebra,
    divided_power_coalgebra,
    dualize_algebra,
    dualize_coalgebra,
    validate_coalgebra,
)
from .errors import (
    BadParamsError,
    InvalidBialgebraError,
    InvalidCotwistError,
    InvalidTwistError,
    NotAModuleAlgebraError,
    NotAnAutomorphismError,
)
from .kernel import Matrix, Poly, solve_linear
from .kernel.fields import Field
from .obs import span


class TwistingMap:
    __slots__ = ("a", "b", "matrix", "_cols")

    def __init__(self, a: FinDimAlgebra, b: FinDimAlgebra, matrix: Matrix):
        if not a.field == b.field == matrix.field:
            raise BadParamsError("twisting-map components and matrix must share a field")
        n = a.dim * b.dim
        if matrix.rows != n or matrix.cols != n:
            raise BadParamsError(f"twisting matrix must be {n}x{n}")
        self.a = a
        self.b = b
        self.matrix = _canonical_entries(matrix)
        self._cols = _sparse_cols(self.matrix)

    def image_of(self, j: int, i: int):
        """Sparse image of b_j (x) a_i as ((flat A(x)B index, coeff), ...)."""
        return self._cols[j * self.a.dim + i]

    def __eq__(self, other):
        return (
            isinstance(other, TwistingMap)
            and self.a == other.a
            and self.b == other.b
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"TwistingMap({self.a.dim}x{self.b.dim})"


class CotwistingMap:
    __slots__ = ("c", "d", "matrix", "_cols")

    def __init__(self, c: FinDimCoalgebra, d: FinDimCoalgebra, matrix: Matrix):
        if not c.field == d.field == matrix.field:
            raise BadParamsError("cotwisting-map components and matrix must share a field")
        n = c.dim * d.dim
        if matrix.rows != n or matrix.cols != n:
            raise BadParamsError(f"cotwisting matrix must be {n}x{n}")
        self.c = c
        self.d = d
        self.matrix = _canonical_entries(matrix)
        self._cols = _sparse_cols(self.matrix)

    def image_of(self, i: int, j: int):
        """Sparse image of c_i (x) d_j as ((flat D(x)C index, coeff), ...)."""
        return self._cols[i * self.d.dim + j]

    def __eq__(self, other):
        return (
            isinstance(other, CotwistingMap)
            and self.c == other.c
            and self.d == other.d
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"CotwistingMap({self.c.dim}x{self.d.dim})"


def _canonical_entries(matrix: Matrix) -> Matrix:
    """The matrix with its entries in canonical form (`Field.canonical`), so
    that equal maps compare, hash and encode equal, as the algebra and
    coalgebra constructors do for their scalars."""
    return Matrix(matrix.field, matrix.rows, matrix.cols, matrix.field.canonical(matrix.entries))


def _sparse_cols(matrix: Matrix):
    """Each column's nonzero entries as ((row, entry), ...), read off a slice
    of the row-major entries.  Each tuple is made from a list, which sizes
    it exactly; one made from a generator is over-allocated, then shrunk,
    which raised the selftest corpus's peak memory."""
    return [tuple([(i, x) for i, x in enumerate(matrix.col(j)) if x]) for j in range(matrix.cols)]


def tensor_swap(a: FinDimAlgebra, b: FinDimAlgebra) -> TwistingMap:
    """The braiding sigma: b_j (x) a_i -> a_i (x) b_j."""
    n = a.dim * b.dim
    return TwistingMap(a, b, Matrix(a.field, n, n, _swap_entries(a, b)))


def _swap_entries(a, b):
    """The row-major entries of `tensor_swap(a, b)`'s matrix, as a new list;
    a and b are algebras or coalgebras, of which it reads field and dim."""
    f = a.field
    n = a.dim * b.dim
    ent = [f.zero()] * (n * n)
    for j in range(b.dim):
        for i in range(a.dim):
            ent[(i * b.dim + j) * n + (j * a.dim + i)] = f.one()
    return ent


def cotensor_swap(c: FinDimCoalgebra, d: FinDimCoalgebra) -> CotwistingMap:
    """The coswap c_i (x) d_j -> d_j (x) c_i: `tensor_swap(d, c)`'s entries,
    since only the two factors' dimensions enter them."""
    n = c.dim * d.dim
    return CotwistingMap(c, d, Matrix(c.field, n, n, _swap_entries(d, c)))


class TwistReport(NamedTuple):
    normal: bool
    multiplicative: bool
    witnesses: tuple

    @property
    def ok(self) -> bool:
        return self.normal and self.multiplicative


def check_twisting_map(rho: TwistingMap) -> TwistReport:
    a, b = rho.a, rho.b
    da, db = a.dim, b.dim
    image = rho.image_of

    def normal():
        for i in range(da):
            # rho(1_B (x) a_i) = a_i (x) 1_B
            diff = {}
            for j, uj in enumerate(b.unit):
                diff[i * db + j] = diff.get(i * db + j, 0) - uj
                for flat, c in image(j, i):
                    diff[flat] = diff.get(flat, 0) + uj * c
            yield "normal-left", (i,), diff
        for j in range(db):
            # rho(b_j (x) 1_A) = 1_A (x) b_j
            diff = {}
            for i, ui in enumerate(a.unit):
                diff[i * db + j] = diff.get(i * db + j, 0) - ui
                for flat, c in image(j, i):
                    diff[flat] = diff.get(flat, 0) + ui * c
            yield "normal-right", (j,), diff

    def multiplicative():
        # rho o (id_B (x) m_A) = (m_A (x) id_B) o (id_A (x) rho) o (rho (x) id_A)
        for j in range(db):
            for i1 in range(da):
                for i2 in range(da):
                    diff = {}
                    for r, c in a.mul[i1][i2]:
                        for flat, c2 in image(j, r):
                            diff[flat] = diff.get(flat, 0) + c * c2
                    for flat, c in image(j, i1):
                        x, y = divmod(flat, db)
                        for flat2, c2 in image(y, i2):
                            u, v = divmod(flat2, db)
                            cc = c * c2
                            for w, c3 in a.mul[x][u]:
                                diff[w * db + v] = diff.get(w * db + v, 0) - cc * c3
                    yield "multiplicative-A", (j, i1, i2), diff
        # rho o (m_B (x) id_A) = (id_A (x) m_B) o (rho (x) id_B) o (id_B (x) rho)
        for j1 in range(db):
            for j2 in range(db):
                for i in range(da):
                    diff = {}
                    for s, c in b.mul[j1][j2]:
                        for flat, c2 in image(s, i):
                            diff[flat] = diff.get(flat, 0) + c * c2
                    for flat, c in image(j2, i):
                        x, y = divmod(flat, db)
                        for flat2, c2 in image(j1, x):
                            u, v = divmod(flat2, db)
                            cc = c * c2
                            for w, c3 in b.mul[v][y]:
                                diff[u * db + w] = diff.get(u * db + w, 0) - cc * c3
                    yield "multiplicative-B", (j1, j2, i), diff

    with span("twist.check_twisting_map", dims=[da, db]) as check:
        failures = (_first_failure(a.field, normal()), _first_failure(a.field, multiplicative()))
        check["ok"] = not any(failures)
    return TwistReport(*(w is None for w in failures), tuple(w for w in failures if w))


def _twisted_mul_table(rho: TwistingMap):
    """Structure constants of m_rho on the A(x)B basis, no validity gate, in
    the normal form `FinDimAlgebra` stores: each cell sorted by output index,
    canonical coefficients, zero sums dropped.

    A term's key is the int (left * n + right) * n + output, so the keys
    sort in table order: they are sorted once, their sums reduced once, and
    each nonzero cell is the run of its keys, emitted in order."""
    a, b = rho.a, rho.b
    da, db = a.dim, b.dim
    n = da * db
    # the terms of b_y b_j2, each at its key offset j2 * n + output
    b_terms = [[(j2 * n + z, c3) for j2, cell in enumerate(row) for z, c3 in cell] for row in b.mul]
    acc = {}  # (left * n + right) * n + output -> coefficient
    for i1 in range(da):
        a_row = a.mul[i1]
        for j1 in range(db):
            left = i1 * db + j1
            for i2 in range(da):
                base = (left * n + i2 * db) * n
                for flat, c in rho.image_of(j1, i2):
                    x, y = divmod(flat, db)
                    terms = b_terms[y]
                    for w, c2 in a_row[x]:
                        cc = c * c2
                        cell = base + w * db
                        for offset, c3 in terms:
                            key = cell + offset
                            acc[key] = acc.get(key, 0) + cc * c3
    keys = sorted(acc)
    cells = [()] * (n * n)  # at left * n + right
    last = -1
    for key, v in zip(keys, a.field.canonical(map(acc.__getitem__, keys))):
        if v:
            cell, out = divmod(key, n)
            if cell != last:
                cells[cell] = run = []
                last = cell
            run.append((out, v))
    return [list(map(tuple, cells[left:left + n])) for left in range(0, n * n, n)]


def _tensor_unit(a: FinDimAlgebra, b: FinDimAlgebra):
    return a.field.canonical(ua * ub for ua in a.unit for ub in b.unit)


def _tensor_labels(la, lb):
    return [f"{x}#{y}" for x in la for y in lb]


def raw_twisted_algebra(rho: TwistingMap) -> FinDimAlgebra:
    """The candidate algebra (A (x) B, m_rho) without any twisting-map gate;
    its laws may fail, which validate_algebra will report.  The table is
    normal as built and is not normalized again; the product is not
    certified (`_gens` is None), whatever rho is."""
    return _from_normal_table(
        rho.a.field,
        _tensor_labels(rho.a.labels, rho.b.labels),
        _twisted_mul_table(rho),
        _tensor_unit(rho.a, rho.b),
        None,
    )


def twisted_product(rho: TwistingMap) -> FinDimAlgebra:
    """The twisted tensor product algebra A #_rho B."""
    if not check_twisting_map(rho).ok:
        raise InvalidTwistError("map is not normal and multiplicative")
    return raw_twisted_algebra(rho)


def dual_cotwist(rho: TwistingMap) -> CotwistingMap:
    """Transpose of rho on the dual bases, as a cotwisting map A* (x) B* -> B* (x) A*."""
    if not check_twisting_map(rho).ok:
        raise InvalidTwistError("map is not normal and multiplicative")
    return _transposed_cotwist(rho)


def _transposed_cotwist(rho: TwistingMap) -> CotwistingMap:
    """`dual_cotwist` without its gate, for a rho already checked."""
    return CotwistingMap(
        dualize_algebra(rho.a), dualize_algebra(rho.b), rho.matrix.transpose()
    )


class CotwistReport(NamedTuple):
    conormal: bool
    comultiplicative: bool
    witnesses: tuple

    @property
    def ok(self) -> bool:
        return self.conormal and self.comultiplicative


def check_cotwisting_map(phi: CotwistingMap) -> CotwistReport:
    c, d = phi.c, phi.d
    dc, dd = c.dim, d.dim
    image = phi.image_of

    def conormal():
        for i in range(dc):
            for j in range(dd):
                # (eps_D (x) id_C) phi = id_C (x) eps_D and (id_D (x) eps_C) phi = eps_C (x) id_D
                left = {i: -d.counit[j]}
                right = {j: -c.counit[i]}
                for flat, cf in image(i, j):
                    y, x = divmod(flat, dc)
                    left[x] = left.get(x, 0) + cf * d.counit[y]
                    right[y] = right.get(y, 0) + cf * c.counit[x]
                yield "conormal-left", (i, j), left
                yield "conormal-right", (i, j), right

    def comultiplicative():
        # (id_D (x) Delta_C) o phi = (phi (x) id_C) o (id_C (x) phi) o (Delta_C (x) id_D)
        for r in range(dc):
            for s in range(dd):
                diff = {}
                for flat, cf in image(r, s):
                    y, x = divmod(flat, dc)
                    for u, v, cf2 in c.comul[x]:
                        diff[y, u, v] = diff.get((y, u, v), 0) + cf * cf2
                for u1, u2, cf in c.comul[r]:
                    for flat, cf2 in image(u2, s):
                        y, x = divmod(flat, dc)
                        cc = cf * cf2
                        for flat2, cf3 in image(u1, y):
                            v, w = divmod(flat2, dc)
                            diff[v, w, x] = diff.get((v, w, x), 0) - cc * cf3
                yield "comultiplicative-C", (r, s), diff
        # (Delta_D (x) id_C) o phi = (id_D (x) phi) o (phi (x) id_D) o (id_C (x) Delta_D)
        for r in range(dc):
            for s in range(dd):
                diff = {}
                for flat, cf in image(r, s):
                    y, x = divmod(flat, dc)
                    for v1, v2, cf2 in d.comul[y]:
                        diff[v1, v2, x] = diff.get((v1, v2, x), 0) + cf * cf2
                for w1, w2, cf in d.comul[s]:
                    for flat, cf2 in image(r, w1):
                        y, x = divmod(flat, dc)
                        cc = cf * cf2
                        for flat2, cf3 in image(x, w2):
                            v, u = divmod(flat2, dc)
                            diff[y, v, u] = diff.get((y, v, u), 0) - cc * cf3
                yield "comultiplicative-D", (r, s), diff

    with span("twist.check_cotwisting_map", dims=[dc, dd]) as check:
        failures = (_first_failure(c.field, conormal()), _first_failure(c.field, comultiplicative()))
        check["ok"] = not any(failures)
    return CotwistReport(*(w is None for w in failures), tuple(w for w in failures if w))


def raw_crossed_coalgebra(phi: CotwistingMap) -> FinDimCoalgebra:
    """The candidate coalgebra (C (x) D, Delta_phi) without any gate."""
    c, d = phi.c, phi.d
    f = c.field
    dc, dd = c.dim, d.dim
    # unreduced terms; FinDimCoalgebra sums repeated (i, j) and reduces once
    comul = [[] for _ in range(dc * dd)]
    for r in range(dc):
        for s in range(dd):
            terms = comul[r * dd + s]
            for i1, i2, cf1 in c.comul[r]:
                for j1, j2, cf2 in d.comul[s]:
                    cc = cf1 * cf2
                    for flat, cf3 in phi.image_of(i2, j1):
                        y, x = divmod(flat, dc)
                        terms.append((i1 * dd + y, x * dd + j2, cc * cf3))
    counit = f.canonical(ec * ed for ec in c.counit for ed in d.counit)
    return FinDimCoalgebra(f, _tensor_labels(c.labels, d.labels), comul, counit)


def crossed_coalgebra(phi: CotwistingMap) -> FinDimCoalgebra:
    """The crossed product coalgebra C #^phi D."""
    if not check_cotwisting_map(phi).ok:
        raise InvalidCotwistError("map is not conormal and comultiplicative")
    return raw_crossed_coalgebra(phi)


class DualityReport(NamedTuple):
    equal: bool
    witness: tuple | None


def verify_twisted_duality(rho: TwistingMap) -> DualityReport:
    """Entrywise comparison of (A #_rho B)* with A* #^(rho*) B*; rho is
    checked once, for both the product and the transposed cotwist."""
    if not check_twisting_map(rho).ok:
        raise InvalidTwistError("map is not normal and multiplicative")
    product_dual = dualize_algebra(raw_twisted_algebra(rho))
    crossed = crossed_coalgebra(_transposed_cotwist(rho))
    if product_dual == crossed:
        return DualityReport(True, None)
    for r in range(product_dual.dim):
        if product_dual.comul[r] != crossed.comul[r]:
            return DualityReport(False, ("comul", r))
    return DualityReport(False, ("counit",))


# ---------------------------------------------------------------------------
# constructors for twisting maps


def ore_twist(a: FinDimAlgebra, theta: AlgebraHom, order: int) -> TwistingMap:
    """Truncated Ore twisting map rho(t^i (x) x) = theta^i(x) (x) t^i against
    B = k[t]/(t^order)."""
    if order < 1:
        raise BadParamsError("truncation order must be >= 1")
    if theta.source is not a or theta.target is not a:
        raise NotAnAutomorphismError("theta must be an endomorphism of a")
    if not theta.is_valid():
        raise NotAnAutomorphismError("theta is not an algebra homomorphism")
    if not theta.matrix.is_invertible():
        raise NotAnAutomorphismError("theta is not bijective")
    f = a.field
    b = truncated_polynomial_algebra(f, order, var="t")
    da, db = a.dim, order
    n = da * db
    ent = [f.zero()] * (n * n)
    power = Matrix.identity(f, da)
    for j in range(db):
        for i in range(da):
            col = j * da + i
            image = [power.get(r, i) for r in range(da)]
            for x, v in enumerate(image):
                if v != f.zero():
                    ent[(x * db + j) * n + col] = v
        power = theta.matrix @ power
    return TwistingMap(a, b, Matrix(f, n, n, ent))


def scaling_automorphism(a: FinDimAlgebra, scale) -> AlgebraHom:
    """For a monogenic algebra on basis 1, t, ..., the map t -> scale * t,
    provided that defines an algebra automorphism (validated)."""
    f = a.field
    cols = []
    for k in range(a.dim):
        vec = [f.zero()] * a.dim
        vec[k] = f.pow(scale, k) if k else f.one()
        cols.append(vec)
    mat = Matrix(f, a.dim, a.dim, [cols[j][i] for i in range(a.dim) for j in range(a.dim)])
    hom = AlgebraHom(a, a, mat)
    if not hom.is_valid() or not mat.is_invertible():
        raise NotAnAutomorphismError(f"scaling by {scale} is not an automorphism")
    return hom


# ---------------------------------------------------------------------------
# bialgebras


class Bialgebra:
    """One basis carrying compatible algebra and coalgebra structures."""

    __slots__ = ("alg", "coalg", "antipode")

    def __init__(self, alg: FinDimAlgebra, coalg: FinDimCoalgebra, antipode: Matrix | None = None):
        if alg.field != coalg.field or alg.labels != coalg.labels:
            raise BadParamsError("algebra and coalgebra must share field and basis")
        if antipode is not None and (antipode.rows != alg.dim or antipode.cols != alg.dim
                                     or antipode.field != alg.field):
            raise BadParamsError("antipode matrix has wrong shape or field")
        self.alg = alg
        self.coalg = coalg
        self.antipode = antipode

    @property
    def field(self):
        return self.alg.field

    @property
    def dim(self):
        return self.alg.dim

    @property
    def labels(self):
        return self.alg.labels

    def __eq__(self, other):
        return (
            isinstance(other, Bialgebra)
            and self.alg == other.alg
            and self.coalg == other.coalg
            and self.antipode == other.antipode
        )

    def __repr__(self):
        return f"Bialgebra(dim={self.dim})"


class BialgebraReport(NamedTuple):
    components_valid: bool
    comul_multiplicative: bool | None  # None: not evaluated on invalid components
    comul_unital: bool
    counit_multiplicative: bool
    counit_unital: bool
    antipode_valid: bool | None
    witnesses: tuple

    @property
    def ok(self) -> bool:
        return (
            self.components_valid
            and self.comul_multiplicative
            and self.comul_unital
            and self.counit_multiplicative
            and self.counit_unital
            and self.antipode_valid is not False
        )


def validate_bialgebra(h: Bialgebra) -> BialgebraReport:
    alg, coalg = h.alg, h.coalg
    f = alg.field
    n = alg.dim
    comul, counit, unit = coalg.comul, coalg.counit, alg.unit
    components = validate_algebra(alg).ok and validate_coalgebra(coalg).ok

    def comul_multiplicative():
        for i in range(n):
            for j in range(n):
                # Delta(b_i b_j) = Delta(b_i) Delta(b_j)
                diff = {}
                for r, c in alg.mul[i][j]:
                    for x, y, cf in comul[r]:
                        diff[x, y] = diff.get((x, y), 0) + c * cf
                for x1, y1, c1 in comul[i]:
                    for x2, y2, c2 in comul[j]:
                        cc = c1 * c2
                        for w, cw in alg.mul[x1][x2]:
                            for z, cz in alg.mul[y1][y2]:
                                diff[w, z] = diff.get((w, z), 0) - cc * cw * cz
                yield "comul-multiplicative", (i, j), diff

    def counit_multiplicative():
        for i in range(n):
            for j in range(n):
                # eps(b_i b_j) = eps(b_i) eps(b_j)
                prod = sum(counit[r] * c for r, c in alg.mul[i][j])
                yield "counit-multiplicative", (i, j), {0: prod - counit[i] * counit[j]}

    def antipode():
        s_cols = _sparse_cols(h.antipode)
        for r in range(n):
            # m(S (x) id) Delta(b_r) = eps(b_r) 1 = m(id (x) S) Delta(b_r), the
            # right-hand law keyed n + t
            diff = {}
            for t, u in enumerate(unit):
                diff[t] = diff[n + t] = -counit[r] * u
            for i, j, c in comul[r]:
                for x, s in s_cols[i]:
                    for t, c2 in alg.mul[x][j]:
                        diff[t] = diff.get(t, 0) + c * s * c2
                for y, s in s_cols[j]:
                    for t, c2 in alg.mul[i][y]:
                        diff[n + t] = diff.get(n + t, 0) + c * s * c2
            yield "antipode", (r,), diff

    unit_tensor = [x * y for x in unit for y in unit]
    delta_unit = dict(enumerate(map(sub, coalg.delta_of_vector(unit), unit_tensor)))
    failures = (
        None if components else ("components", ()),
        _first_failure(f, comul_multiplicative()) if components else None,
        _first_failure(f, [("comul-unit", (), delta_unit)]),
        _first_failure(f, counit_multiplicative()),
        _first_failure(f, [("counit-unit", (), {0: coalg.counit_of_vector(unit) - f.one()})]),
        _first_failure(f, antipode()) if h.antipode is not None else None,
    )
    holds = [w is None for w in failures]
    return BialgebraReport(
        holds[0], holds[1] if components else None, *holds[2:5],
        holds[5] if h.antipode is not None else None,
        tuple(w for w in failures if w),
    )


def dual_components(h: Bialgebra) -> Bialgebra:
    """Swap algebra and coalgebra by dualization, without the bialgebra gate."""
    return Bialgebra(
        dualize_coalgebra(h.coalg),
        dualize_algebra(h.alg),
        h.antipode.transpose() if h.antipode is not None else None,
    )


def dual_bialgebra(h: Bialgebra) -> Bialgebra:
    """The finite dual bialgebra on the dual basis."""
    if not validate_bialgebra(h).ok:
        raise InvalidBialgebraError("input fails the bialgebra axioms")
    return dual_components(h)


def grouplike_bialgebra(field: Field, m: int) -> Bialgebra:
    """The group bialgebra of Z/m: every basis power of g is grouplike;
    antipode g -> g^-1."""
    alg = cyclic_group_algebra(field, m, var="g")
    one = field.one()
    comul = [[(r, r, one)] for r in range(m)]
    coalg = FinDimCoalgebra(field, alg.labels, comul, [one] * m)
    ent = [field.zero()] * (m * m)
    for j in range(m):
        ent[((m - j) % m) * m + j] = one
    return Bialgebra(alg, coalg, Matrix(field, m, m, ent))


def primitive_bialgebra_components(field: Field, order: int = 2, var: str = "x") -> Bialgebra:
    """k[x]/(x^order) with the divided-power coalgebra (x primitive).

    Not a bialgebra in general (Delta(x^2) = 2 x(x)x != 0 unless char 2);
    used as raw components for crossed products."""
    alg = truncated_polynomial_algebra(field, order, var=var)
    coalg = divided_power_coalgebra(field, order)
    coalg = FinDimCoalgebra(field, alg.labels, [list(t) for t in coalg.comul], coalg.counit)
    return Bialgebra(alg, coalg)


def smash_twist(h: Bialgebra, a: FinDimAlgebra, action: Matrix) -> TwistingMap:
    """Twisting map of the smash product A # H from a module-algebra action.

    `action` maps H (x) A -> A with columns indexed at j*dim(A) + i for
    h_j (x) a_i; the module-algebra axioms are verified first.
    """
    f = a.field
    dh, da = h.dim, a.dim
    if action.rows != da or action.cols != dh * da:
        raise BadParamsError("action matrix must be dim(A) x (dim(H)*dim(A))")
    act = _sparse_cols(action)  # act[j * da + i]: h_j . a_i

    def axioms():
        # 1_H acts as the identity
        for i in range(da):
            diff = {i: -1}
            for j, uj in enumerate(h.alg.unit):
                for r, c in act[j * da + i]:
                    diff[r] = diff.get(r, 0) + uj * c
            yield "unit-action", (i,), diff
        # action is associative over m_H
        for j1 in range(dh):
            for j2 in range(dh):
                for i in range(da):
                    diff = {}
                    for s, c in h.alg.mul[j1][j2]:
                        for r, c2 in act[s * da + i]:
                            diff[r] = diff.get(r, 0) + c * c2
                    for x, c in act[j2 * da + i]:
                        for r, c2 in act[j1 * da + x]:
                            diff[r] = diff.get(r, 0) - c * c2
                    yield "associativity", (j1, j2, i), diff
        # h . (xy) = sum (h1 . x)(h2 . y)
        for j in range(dh):
            for k1 in range(da):
                for k2 in range(da):
                    diff = {}
                    for r, c in a.mul[k1][k2]:
                        for t, c2 in act[j * da + r]:
                            diff[t] = diff.get(t, 0) + c * c2
                    for j1, j2, cf in h.coalg.comul[j]:
                        for x, c1 in act[j1 * da + k1]:
                            for y, c2 in act[j2 * da + k2]:
                                cc = cf * c1 * c2
                                for t, c3 in a.mul[x][y]:
                                    diff[t] = diff.get(t, 0) - cc * c3
                    yield "module-algebra", (j, k1, k2), diff
        # h . 1_A = eps(h) 1_A
        for j in range(dh):
            diff = {}
            for i, ui in enumerate(a.unit):
                diff[i] = diff.get(i, 0) - h.coalg.counit[j] * ui
                for r, c in act[j * da + i]:
                    diff[r] = diff.get(r, 0) + ui * c
            yield "unit-preservation", (j,), diff

    failure = _first_failure(f, axioms())
    if failure:
        raise NotAModuleAlgebraError(*failure)

    n = da * dh
    ent = [f.zero()] * (n * n)
    for j in range(dh):
        for i in range(da):
            col = j * da + i
            for j1, j2, cf in h.coalg.comul[j]:
                for x, v in act[j1 * da + i]:
                    ent[(x * dh + j2) * n + col] += cf * v
    return TwistingMap(a, h.alg, Matrix(f, n, n, ent))


class CrossedBialgebraReport(NamedTuple):
    is_bialgebra: bool
    duality_holds: bool


def assemble_crossed_bialgebra(rho: TwistingMap, phi: CotwistingMap) -> Bialgebra:
    """A #^phi_rho B from a twisting map on the algebra parts and a cotwisting
    map on the coalgebra parts (same A, B bases)."""
    alg = twisted_product(rho)
    coalg = crossed_coalgebra(phi)
    if alg.labels != coalg.labels:
        raise BadParamsError("rho and phi are not over matching components")
    return Bialgebra(alg, coalg)


def verify_crossed_bialgebra_duality(
    a: Bialgebra, b: Bialgebra, rho: TwistingMap, phi: CotwistingMap
) -> CrossedBialgebraReport:
    """Assemble A #^phi_rho B, validate it, and compare its dual bialgebra
    with the crossed product of the dual components under the transposed
    maps (roles of twist and cotwist exchanged)."""
    if rho.a != a.alg or rho.b != b.alg:
        raise BadParamsError("rho is not a twisting map for the given algebra parts")
    if phi.c != a.coalg or phi.d != b.coalg:
        raise BadParamsError("phi is not a cotwisting map for the given coalgebra parts")
    assembled = assemble_crossed_bialgebra(rho, phi)
    if not validate_bialgebra(assembled).ok:
        return CrossedBialgebraReport(False, False)
    dual = dual_components(assembled)
    a_dual = dual_components(a)
    b_dual = dual_components(b)
    rho_dual = TwistingMap(a_dual.alg, b_dual.alg, phi.matrix.transpose())
    phi_dual = CotwistingMap(a_dual.coalg, b_dual.coalg, rho.matrix.transpose())
    expected = assemble_crossed_bialgebra(rho_dual, phi_dual)
    holds = dual.alg == expected.alg and dual.coalg == expected.coalg
    return CrossedBialgebraReport(True, holds)


def solve_cotwist(c: FinDimCoalgebra, d: FinDimCoalgebra, target: FinDimCoalgebra) -> CotwistingMap:
    """Solve Delta_phi = Delta_target for phi's matrix as a linear system.

    The target lives on the C (x) D basis; the returned map is validated by
    the caller via check_cotwisting_map.
    """
    f = c.field
    dc, dd = c.dim, d.dim
    n = dc * dd
    if target.dim != n:
        raise BadParamsError("target dimension must be dim(C)*dim(D)")
    unknowns = n * n  # phi matrix entries, flat row-major
    rows = []
    rhs = []
    zero = f.zero()
    for r in range(dc):
        for s in range(dd):
            # coefficient of (I, J) in Delta_phi(c_r (x) d_s) is linear in phi
            coeff_maps = {}
            for i1, i2, cf1 in c.comul[r]:
                for j1, j2, cf2 in d.comul[s]:
                    cc = cf1 * cf2
                    col = i2 * dd + j1
                    for flat in range(n):
                        y, x = divmod(flat, dc)
                        key = (i1 * dd + y, x * dd + j2)
                        unk = flat * n + col
                        m = coeff_maps.setdefault(key, {})
                        m[unk] = m.get(unk, zero) + cc
            want = {}
            for i, j, cf in target.comul[r * dd + s]:
                want[(i, j)] = cf
            for key in sorted(set(coeff_maps) | set(want)):
                row = [zero] * unknowns
                for unk, cf in coeff_maps.get(key, {}).items():
                    row[unk] = cf
                rows.append(f.canonical(row))
                rhs.append(want.get(key, zero))
    mat = Matrix.from_rows(f, rows)
    sol = solve_linear(mat, rhs)
    if sol is None:
        raise BadParamsError("no cotwisting map realizes the target comultiplication")
    return CotwistingMap(c, d, Matrix(f, n, n, sol))


# ---------------------------------------------------------------------------
# randomized corpus (seeded, reproducible)


def _corpus_pool(field: Field):
    t = Poly.x(field)
    one = Poly.constant(field, field.one())
    return [
        truncated_polynomial_algebra(field, 1),
        truncated_polynomial_algebra(field, 2),
        truncated_polynomial_algebra(field, 3),
        cyclic_group_algebra(field, 2),
        cyclic_group_algebra(field, 3),
        monogenic_algebra(field, t * t - t, var="e"),  # k x k
        triangular_algebra(field, 2),
    ]


def twist_corpus(field: Field, seed: int, trials: int):
    """Seeded stream of twisting-map candidates: swaps, valid Ore-style
    twists, and sparse perturbations of the swap (mostly away from unit
    rows/columns so multiplicativity is the discriminating axiom).

    Each Ore twist, and each pool pair's swap entries and unit-free rows and
    columns, is built once per call: draws of one (base, scale, order) share
    one map, and a perturbation copies its pair's swap entries.  No caller
    mutates a map."""
    rng = random.Random(seed)
    pool = _corpus_pool(field)
    ore = {}  # (base, scale, order) -> map; at most 3 * (p - 1) * 2 over GF(p)
    swaps = {}  # (a, b) pool indices -> (swap entries, legal rows, legal cols)
    indices = range(len(pool))
    out = []
    for _ in range(trials):
        ia, ib = rng.choice(indices), rng.choice(indices)
        a, b = pool[ia], pool[ib]
        kind = rng.random()
        if kind < 0.25:
            out.append(tensor_swap(a, b))
            continue
        if kind < 0.40:
            order = rng.choice([2, 3])
            if field.characteristic() > 0:
                scale = rng.randrange(1, field.characteristic())
            else:
                scale = rng.choice([1, -1])
            base = rng.choice(range(3))  # scaling acts on the t^m truncations pool[:3]
            key = (base, scale, order)
            if key not in ore:
                theta = scaling_automorphism(pool[base], field.of(scale))
                ore[key] = ore_twist(pool[base], theta, order)
            out.append(ore[key])
            continue
        n = a.dim * b.dim
        f = field
        if (ia, ib) not in swaps:
            swaps[ia, ib] = (_swap_entries(a, b), *_unit_free(a, b))
        swap, legal_rows, legal_cols = swaps[ia, ib]
        ent = list(swap)
        touch_units = rng.random() < 0.10
        k = rng.randint(1, 3)
        for _ in range(k):
            if touch_units or not legal_rows or not legal_cols:
                r = rng.randrange(n)
                cc = rng.randrange(n)
            else:
                r = rng.choice(legal_rows)
                cc = rng.choice(legal_cols)
            if f.characteristic():
                ent[r * n + cc] = f.of(rng.randrange(f.characteristic()))
            else:
                ent[r * n + cc] = f.of(rng.randint(-3, 3))
        out.append(TwistingMap(a, b, Matrix(f, n, n, ent)))
    return out


def _unit_free(a: FinDimAlgebra, b: FinDimAlgebra):
    """The rows a_i (x) b_j and the columns b_j (x) a_i of a map on (a, b)
    where neither a_i nor b_j has a unit coefficient, in index order."""
    free_a = [i for i, u in enumerate(a.unit) if not u]
    free_b = [j for j, u in enumerate(b.unit) if not u]
    rows = [i * b.dim + j for i in free_a for j in free_b]
    cols = [j * a.dim + i for j in free_b for i in free_a]
    return rows, cols
