"""Truncated quantum planes at roots of unity over GF(p): q-twist
decomposition, irreducible representations, Azumaya census, and the
regular-point invariant check.

The quantum plane relation is y x = q * x y.  Truncations come in two kinds:
``box(a, b)`` kills x^a and y^b; ``central_fiber(c, d)`` reduces x^n -> c and
y^n -> d, producing the n^2-dimensional fiber algebra over the central point
(c, d).  Monomial bases are ordered x-major: x^i y^j at index i*b + j.  The
rule is one integer table, `_exponent_table`: b_s b_t = q^e c^a d^b b_r with
overflow flags a, b in {0, 1}.  `_fiber_table` instantiates it at (q, c, d)
for the box, the central fiber, the jet algebra R/(R m^2) at an Azumaya point
(lifted to the jets 1, u, v) and each level of the box dual tower.

The census uses the torus action: x -> lam x, y -> mu y carries
fiber(lam^n c, mu^n d) isomorphically onto fiber(c, d), so the p^2 fibers fall
into (n + 1)^2 classes (a coordinate's class is 0 or its coset in
GF(p)* / (GF(p)*)^n).  The exponent table is certified Z^2-graded once; the
first fiber of each class in c-major order is validated and profiled, and
every other fiber needs only the exact field check lam^n c0 = c, mu^n d0 = d.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    FinDimAlgebra,
    SemisimpleProfile,
    _radical_trace_form,
    _simple_factors,
    center,
    quotient_algebra,
    semisimple_profile,
    subspace_product,
    truncated_polynomial_algebra,
    validate_algebra,
)
from .coalgebra import DualTower, canonical_inclusion, dualize_algebra, tower_extend
from .errors import (
    BadParamsError,
    CharacteristicTooSmallError,
    GradingError,
    InvalidInputError,
    NotAzumayaError,
)
from .kernel import GF, Matrix, check_root_order, primitive_root_of_unity
from .twist import TwistingMap, check_twisting_map, tensor_swap


class QPlaneTrunc(NamedTuple):
    n: int
    p: int
    q: int
    kind: str  # "box" or "central_fiber"
    params: tuple
    algebra: FinDimAlgebra


def q_number(m: int, q, field) -> object:
    """[m]_q = 1 + q + ... + q^(m-1)."""
    if m < 0:
        raise BadParamsError("m must be >= 0")
    acc = field.zero()
    power = field.one()
    for _ in range(m):
        acc = field.add(acc, power)
        power = field.mul(power, q)
    return acc


def _require_root(n: int, p: int):
    field = GF(p)
    return field, primitive_root_of_unity(field, n)


def oq_truncation(n: int, p: int, kind: str, params) -> QPlaneTrunc:
    """Finite quotient of the quantum plane on the monomial basis x^i y^j."""
    field, q = _require_root(n, p)
    if kind == "box":
        a, b = params
        if a < 1 or b < 1:
            raise BadParamsError("box truncation needs a, b >= 1")
        params = (a, b)
        xmax, ymax, c, d = a, b, field.zero(), field.zero()
    elif kind == "central_fiber":
        params = (field.of(params[0]), field.of(params[1]))
        xmax = ymax = n
        c, d = params
    else:
        raise BadParamsError(f"unknown truncation kind {kind!r}")
    labels = [f"x^{i}y^{j}" for i in range(xmax) for j in range(ymax)]
    unit = [field.one()] + [field.zero()] * (xmax * ymax - 1)
    alg = FinDimAlgebra(field, labels, _fiber_table(field, q, xmax, ymax, c, d), unit)
    if not validate_algebra(alg).ok:
        raise InvalidInputError("quantum plane truncation failed validation")
    return QPlaneTrunc(n, p, q, kind, params, alg)


def _exponent_table(xmax: int, ymax: int):
    """The rule y x = q x y on x^i y^j (i < xmax, j < ymax, index i*ymax + j)
    in integers: cell (s, t) is (r, e, a, b), meaning b_s b_t = q^e c^a d^b b_r
    under x^xmax -> c and y^ymax -> d; a, b in {0, 1} flag the overflows."""
    cells = [(i, j) for i in range(xmax) for j in range(ymax)]
    return tuple(
        tuple(((i1 + i2) % xmax * ymax + (j1 + j2) % ymax, j1 * i2,
               (i1 + i2) // xmax, (j1 + j2) // ymax) for i2, j2 in cells)
        for i1, j1 in cells
    )


def _fiber_table(field, q, xmax: int, ymax: int, c, d):
    """Sparse structure constants of y x = q x y on x^i y^j with x^xmax -> c
    and y^ymax -> d: `_exponent_table` instantiated at (q, c, d); box(a, b)
    is c = d = 0.

    Every cell is () or a single (index, nonzero coefficient) pair, which is
    already the normalized form FinDimAlgebra stores.
    """
    qpow = [field.pow(q, e) for e in range((xmax - 1) * (ymax - 1) + 1)]
    overflow = ((1, d), (c, c * d))  # overflow[a][b] = c^a d^b
    return tuple(
        tuple(((r, k),) if (k := qpow[e] * overflow[a][b] % field.p) else ()
              for r, e, a, b in row)
        for row in _exponent_table(xmax, ymax)
    )


class QTwistReport(NamedTuple):
    rho_q: TwistingMap
    tau_q: Matrix
    identity_holds: bool


def qtwist_decomposition(n: int, p: int, a: int, b: int) -> QTwistReport:
    """Build rho_q on k[x]/(x^a), k[y]/(y^b) and verify
    rho_q = swap - (1 - q) * tau_q on the Z/n-graded components."""
    field, q = _require_root(n, p)
    if a % n or b % n:
        raise GradingError("truncation levels must be multiples of n")
    A = truncated_polynomial_algebra(field, a, var="x")
    B = truncated_polynomial_algebra(field, b, var="y")
    size = a * b
    rho_ent = [field.zero()] * (size * size)
    tau_ent = [field.zero()] * (size * size)
    for yexp in range(b):
        for xexp in range(a):
            col = yexp * a + xexp
            row = xexp * b + yexp
            rho_ent[row * size + col] = field.pow(q, yexp * xexp)
            i0, j0 = yexp % n, xexp % n
            if i0 and j0:
                tau_ent[row * size + col] = q_number(i0 * j0, q, field)
    rho = TwistingMap(A, B, Matrix(field, size, size, rho_ent))
    tau = Matrix(field, size, size, tau_ent)
    sigma = tensor_swap(A, B).matrix
    one_minus_q = field.sub(field.one(), q)
    identity = rho.matrix == sigma - tau.scale(one_minus_q)
    if not check_twisting_map(rho).ok:
        raise InvalidInputError("rho_q failed the twisting-map axioms")
    return QTwistReport(rho, tau, identity)


class Irrep(NamedTuple):
    alpha: object
    beta: object
    dim: int
    x_matrix: Matrix
    y_matrix: Matrix
    irreducible: bool


def irrep(n: int, p: int, alpha, beta) -> Irrep:
    """The irreducible representation of the quantum plane at (alpha, beta):
    one-dimensional on the axes, x -> alpha*D / y -> beta*P off them."""
    field, q = _require_root(n, p)
    alpha = field.of(alpha)
    beta = field.of(beta)
    if field.mul(alpha, beta) == field.zero():
        x = Matrix(field, 1, 1, [alpha])
        y = Matrix(field, 1, 1, [beta])
        return Irrep(alpha, beta, 1, x, y, True)
    diag = Matrix(field, n, n,
                  [field.pow(q, i) if i == j else field.zero()
                   for i in range(n) for j in range(n)])
    perm = Matrix(field, n, n,
                  [field.one() if j == (i + 1) % n else field.zero()
                   for i in range(n) for j in range(n)])
    x = diag.scale(alpha)
    y = perm.scale(beta)
    if y @ x != (x @ y).scale(q):
        raise InvalidInputError("YX = qXY failed")
    image_rows = [list((_mat_pow(x, i) @ _mat_pow(y, j)).entries) for i in range(n) for j in range(n)]
    rank = Matrix.from_rows(field, image_rows).rank()
    return Irrep(alpha, beta, n, x, y, rank == n * n)


def _mat_pow(m: Matrix, k: int) -> Matrix:
    acc = Matrix.identity(m.field, m.rows)
    for _ in range(k):
        acc = acc @ m
    return acc


class IrrepClassification(NamedTuple):
    one_dim: int
    n_dim_classes: int
    class_reps: tuple  # lexicographically least (alpha, beta) per class


def irrep_classify(n: int, p: int) -> IrrepClassification:
    """Count one-dimensional representations (axis points) and classify the
    n-dimensional ones by their central character (alpha^n, beta^n)."""
    field, _ = _require_root(n, p)
    nth = [field.pow(z, n) for z in range(p)]
    classes = {}
    for alpha in range(1, p):
        for beta in range(1, p):
            classes.setdefault((nth[alpha], nth[beta]), (alpha, beta))
    # the one-dimensional ones are the 2p - 1 points with alpha beta = 0
    return IrrepClassification(2 * p - 1, len(classes), tuple(sorted(classes.values())))


class FiberRecord(NamedTuple):
    c: object
    d: object
    azumaya: bool
    profile: SemisimpleProfile


class CensusReport(NamedTuple):
    n: int
    p: int
    fibers: tuple
    aggregate: dict


class _OrbitClass(NamedTuple):
    """A torus-orbit class of central fibers, carried by its representative."""

    c: int
    d: int
    azumaya: bool
    profile: SemisimpleProfile
    characters: int  # one-dimensional characters; counted on axis classes only


def _orbit_class(n: int, p: int, c: int, d: int) -> _OrbitClass:
    alg = oq_truncation(n, p, "central_fiber", (c, d)).algebra
    prof = semisimple_profile(alg)
    azumaya = prof.radical_dim == 0 and prof.factors == ((n * n, 1),)
    # over GF(p) a simple factor of dimension 1 is k: one character each
    characters = sum(1 for dim, _ in prof.factors if dim == 1) if c * d % p == 0 else 0
    return _OrbitClass(c, d, azumaya, prof, characters)


def _certify_grading(table, n: int) -> None:
    """Raise InvalidInputError unless the central fibers' exponent table is
    Z^2-graded: cell (s, t) = (r, e, a, b) sends x^i1 y^j1 * x^i2 y^j2 to
    x^i y^j with i1 + i2 = i + n a, j1 + j2 = j + n b and a, b in {0, 1}.

    Then for lam, mu != 0 with lam^n c0 = c and mu^n d0 = d, the diagonal map
    x^i y^j -> lam^i mu^j x^i y^j from fiber(c, d) onto fiber(c0, d0) fixes
    the unit and is multiplicative: lam^(i1+i2) mu^(j1+j2) c0^a d0^b equals
    lam^i mu^j c^a d^b.
    """
    for s, row in enumerate(table):
        i1, j1 = divmod(s, n)
        for t, (r, e, a, b) in enumerate(row):
            i2, j2 = divmod(t, n)
            if not (0 <= r < n * n and {a, b} <= {0, 1}
                    and (i1 + i2 - n * a, j1 + j2 - n * b) == divmod(r, n)):
                raise InvalidInputError(f"exponent cell ({s}, {t}) = {(r, e, a, b)} "
                                        f"is not Z^2-graded")


def _certify_torus_image(field, n: int, c: int, d: int, rep: _OrbitClass, nth_root):
    """Raise InvalidInputError unless lam^n c0 = c and mu^n d0 = d: on the
    graded exponent table that makes fiber(c, d) isomorphic to fiber(c0, d0)."""
    lam = nth_root[field.div(c, rep.c)] if c else field.one()
    mu = nth_root[field.div(d, rep.d)] if d else field.one()
    if (field.mul(field.pow(lam, n), rep.c) != c
            or field.mul(field.pow(mu, n), rep.d) != d):
        raise InvalidInputError(f"fiber ({c}, {d}) is not the torus image of fiber "
                                f"({rep.c}, {rep.d}) under lam = {lam}, mu = {mu}")


def azumaya_census(n: int, p: int) -> CensusReport:
    """Profile every central fiber (c, d) in GF(p)^2 and tabulate the
    Azumaya/axis split with its rational-point counts.

    Sending x -> lam x, y -> mu y is an isomorphism from fiber(lam^n c, mu^n d)
    onto fiber(c, d), so a coordinate's class is 0 or its coset in
    GF(p)* / (GF(p)*)^n, and the p^2 fibers fall into (n + 1)^2 classes.  The
    exponent table that every fiber instantiates is certified Z^2-graded once
    (`_certify_grading`, O(n^4) integer operations).  The first fiber of each
    class in c-major order is its representative: it is built and validated
    by `oq_truncation`, profiled, and on the axes cd = 0 its one-dimensional
    characters are counted.  Every other fiber builds no table: the exact
    field check lam^n c0 = c, mu^n d0 = d (`_certify_torus_image`) certifies
    it isomorphic to its representative, and the profile and character count
    carry over.  The census costs O(p^2 + (n + 1)^2 rep).
    """
    # only the cheap order checks come before p <= n^2 is refused: the
    # representatives (`oq_truncation`) search for the root of unity itself
    field = GF(p)
    check_root_order(field, n)
    if p <= n * n:
        raise CharacteristicTooSmallError(f"census needs p > n^2; got p = {p}, n = {n}")
    _certify_grading(_exponent_table(n, n), n)
    # z -> z^((p-1)/n) is 0 at 0 and otherwise names the coset of z.
    coset = [field.pow(z, (p - 1) // n) for z in range(p)]
    nth_root = {field.pow(lam, n): lam for lam in range(1, p)}  # any n-th root will do
    classes = {}
    fibers = []
    rational_axis_points = 0
    nonsplit_axis_factors = 0
    for c in range(p):
        for d in range(p):
            key = (coset[c], coset[d])
            rep = classes.get(key)
            if rep is None:
                rep = classes[key] = _orbit_class(n, p, c, d)
            else:
                _certify_torus_image(field, n, c, d, rep, nth_root)
            fibers.append(FiberRecord(c, d, rep.azumaya, rep.profile))
            if field.mul(c, d) == field.zero():
                rational_axis_points += rep.characters
                nonsplit_axis_factors += sum(1 for _, cd in rep.profile.factors if cd > 1)
    aggregate = {
        "azumaya_fibers": sum(f.azumaya for f in fibers),
        "axis_fibers": sum(f.c * f.d % p == 0 for f in fibers),
        "azumaya_iff_off_axis": all(f.azumaya == (f.c * f.d % p != 0) for f in fibers),
        "rational_axis_points": rational_axis_points,
        "rational_orbit_classes": irrep_classify(n, p).n_dim_classes,
        "nonsplit_axis_factors": nonsplit_axis_factors,
    }
    return CensusReport(n, p, tuple(fibers), aggregate)


class PointInvariants(NamedTuple):
    total_dim: int
    radical_dim: int
    radical_square_zero: bool
    top_profile: tuple
    center_dim: int


def regular_point_jet_algebra(n: int, p: int, c, d) -> FinDimAlgebra:
    """R/(R m^2) at the central point m = (x^n - c, y^n - d), on the basis
    x^i y^j * {1, u, v} with u = x^n - c, v = y^n - d and (u, v)^2 = 0.

    u and v are central, so a product of basis elements is the fiber(c, d)
    product k0 x^i y^j of their monomials times the product of their jets;
    where both jets are 1, the overflow x^n = c + u (y^n = d + v) also
    leaves k0 / c on u (k0 / d on v).
    """
    field, q = _require_root(n, p)
    c = field.of(c)
    d = field.of(d)
    if field.mul(c, d) == field.zero():
        raise NotAzumayaError("point lies on a coordinate axis (cd = 0)")
    c_inv, d_inv = field.inv(c), field.inv(d)
    labels = [f"x^{i}y^{j}{e}" for i in range(n) for j in range(n) for e in ("", "u", "v")]
    mul = []
    for row, flags in zip(_fiber_table(field, q, n, n, c, d), _exponent_table(n, n)):
        for e1 in range(3):
            jet_row = []
            for ((r, k0),), (_, _, a, b) in zip(row, flags):
                for e2 in range(3):
                    if e1 and e2:
                        cell = ()
                    elif e1 or e2:
                        cell = ((3 * r + e1 + e2, k0),)
                    else:
                        cell = ((3 * r, k0),)
                        if a:
                            cell += ((3 * r + 1, k0 * c_inv % p),)
                        if b:
                            cell += ((3 * r + 2, k0 * d_inv % p),)
                    jet_row.append(cell)
            mul.append(jet_row)
    unit = [field.one()] + [field.zero()] * (len(labels) - 1)
    alg = FinDimAlgebra(field, labels, mul, unit)
    if not validate_algebra(alg).ok:
        raise InvalidInputError("jet algebra failed validation")
    return alg


# The jet algebra has dim 3n^2 and its invariants cost O(n^6): n = 12 (dim
# 432) takes about 11 s on a 2-core x86-64 machine with CPython 3.11.7.
_MAX_JET_DIM = 432


def azumaya_point_invariants(n: int, p: int, c, d) -> PointInvariants:
    """Structure invariants of R/(R m^2) at an Azumaya point: they match the
    matrix-jet model M_n(k[u, v]/(u, v)^2)."""
    if (3 * n) % p == 0:
        raise CharacteristicTooSmallError(
            f"trace form needs p coprime to 3n; got p = {p}, n = {n}"
        )
    # refused before the search for the root of unity, which alone may not
    # return when n is near sqrt(p)
    if 3 * n * n > _MAX_JET_DIM:
        raise BadParamsError(
            f"jet algebra dim 3n^2 must be at most {_MAX_JET_DIM}; got n = {n}"
        )
    return measure_point_invariants(regular_point_jet_algebra(n, p, c, d))


def measure_point_invariants(alg: FinDimAlgebra) -> PointInvariants:
    """Radical, radical-square, top factors, and center of a jet-type algebra.

    The radical is the trace-form kernel without `radical`'s gate p > dim:
    callers guarantee that each simple module's multiplicity is nonzero mod p
    (3n for the jet algebra, whose dim 3n^2 may exceed p)."""
    rad = _radical_trace_form(alg)
    rad_sq = subspace_product(alg, rad, rad)
    top = quotient_algebra(alg, rad)[0]
    return PointInvariants(
        total_dim=alg.dim,
        radical_dim=rad.dim,
        radical_square_zero=rad_sq.dim == 0,
        top_profile=tuple(sorted(factor[1:] for factor in _simple_factors(top))),
        center_dim=center(alg).dim,
    )


def box_dual_tower(n: int, p: int, steps) -> DualTower:
    """Duals of the box truncations box(kn, kn) for k in `steps`, with basis
    in shells (ordered by max exponent) so each level's labels are a prefix
    of the next and the canonical inclusions are coalgebra maps.

    This is the explicit cofinal chain realizing the finite dual of the
    quantum plane at desk scale.
    """
    steps = sorted(set(int(k) for k in steps))
    if not steps or steps[0] < 1:
        raise BadParamsError("steps must be positive integers")
    field, q = _require_root(n, p)
    levels = []
    for k in steps:
        side = k * n
        # x-major index t = i*side + j, listed in shells (max(i, j), i, j)
        order = sorted(range(side * side), key=lambda t: (max(divmod(t, side)), t))
        shell = {t: s for s, t in enumerate(order)}
        table = _fiber_table(field, q, side, side, 0, 0)
        labels = [f"x^{t // side}y^{t % side}" for t in order]
        mul = [[tuple((shell[r], k0) for r, k0 in table[a][b]) for b in order] for a in order]
        unit = [field.zero()] * len(order)
        unit[shell[0]] = field.one()
        levels.append(dualize_algebra(FinDimAlgebra(field, labels, mul, unit)))
    tower = DualTower(levels[:1], [])
    for small, big in zip(levels, levels[1:]):
        tower = tower_extend(tower, big, canonical_inclusion(small, big))
    return tower
