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
GF(p)* / (GF(p)*)^n).  One exponent table serves the whole census, and three
certificates run on it once, in O(n^4) integer operations: it is Z^2-graded;
every fiber it instantiates is associative and unital, generated by x and y;
and x^i y^j -> x^j y^i maps fiber(d, c) onto the opposite algebra of
fiber(c, d).  So no fiber is validated, the class (beta, alpha) takes the
profile of its mirror (alpha, beta), and (n + 1)(n + 2)/2 representatives are
built from the table and profiled; every other fiber needs only the exact
field check lam^n c0 = c, mu^n d0 = d.

The jet algebra R/(R m^2) rests on the same proof: it is the fiber table
taken over K = k[u, v]/(u, v)^2 at (c + u, d + v), and the grading and
associativity certificates compare monomials q^e c^a d^b as polynomials, so
they cover every commutative base ring.  It is marked certified with
generators x and y, and not validated.  Modulo (u, v) it is fiber(c, d), so
once its radical is checked to be (u, v), `_orbit_class` profiles its top,
from the same fiber(c, d) table the jet was built on.
The fiber tables, the jet table and the box tower's levels are emitted in
the normal form `FinDimAlgebra` stores, so they are not normalized again
(`algebra._from_normal_table`).

The grading certificate also makes the profiles cheap.  Basis index t of a
fiber has degree (i, j) = divmod(t, n) in Z/n x Z/n, and jet index 3r + e
the degree of r.  L_b shifts degree for b homogeneous of nonzero degree, so
the trace form pairs degree g only with -g, and commutation with x or y
moves each degree by a fixed step: the radical (`_graded_radical`) and the
center (`_graded_center`) are one small kernel per component, 1 x 1 on a
fiber and 3 x 3 on the jet.  They live in `algebra`: the generic `radical`
and `center` are the same kernels at the trivial grading, one component
holding the whole table, not a separate oracle.  The radical is the
trace-form kernel under the gates p > n^2 for the census and p coprime to
3n for the jet.  On the axis c = 0, x lies in J and A/J is generated by the
image of y alone (of 1 at (0, 0)), so A/J = k[t]/(mu); the census reads its
simple factors off the degrees of the irreducible factors of mu, with no
quotient table and no center (`_graded_top`).
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import (
    FinDimAlgebra,
    SemisimpleProfile,
    _from_normal_table,
    _generators,
    _graded_center,
    _graded_radical,
    _minimal_polynomial,
    _radical_trace_form,
    _simple_factors,
    center,
    is_ideal,
    quotient_algebra,
    subspace_product,
    truncated_polynomial_algebra,
    validate_algebra,
)
from .coalgebra import DualTower, canonical_inclusion, dualize_algebra
from .errors import (
    BadParamsError,
    CharacteristicTooSmallError,
    GradingError,
    ImproperIdealError,
    InvalidInputError,
    NotAnIdealError,
    NotAzumayaError,
)
from .kernel import GF, Matrix, check_root_order, primitive_root_of_unity
from .kernel.poly import _factor_degrees
from .obs import span
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
    table = _fiber_table(field, q, _exponent_table(xmax, ymax), c, d)
    alg = _monomial_algebra(field, xmax, ymax, table)
    if not validate_algebra(alg).ok:
        raise InvalidInputError("quantum plane truncation failed validation")
    return QPlaneTrunc(n, p, q, kind, params, alg)


def _monomial_algebra(field, xmax: int, ymax: int, table, gens=None) -> FinDimAlgebra:
    """The algebra of the `_fiber_table` `table` on the labels x^i y^j, with
    unit x^0 y^0 and `_gens` set to `gens`."""
    labels = [f"x^{i}y^{j}" for i in range(xmax) for j in range(ymax)]
    unit = [field.one()] + [field.zero()] * (xmax * ymax - 1)
    return _from_normal_table(field, labels, table, unit, gens)


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


def _fiber_table(field, q, table, c, d):
    """Sparse structure constants of y x = q x y on x^i y^j with x^xmax -> c
    and y^ymax -> d: the exponent table `table` of `_exponent_table(xmax,
    ymax)` instantiated at (q, c, d); box(a, b) is c = d = 0.

    Every cell is () or a single (index, nonzero coefficient) pair, which is
    already the normalized form FinDimAlgebra stores.
    """
    # e = j1 i2 is largest where j1 = ymax - 1 and i2 = xmax - 1, which holds
    # at s = t = the last index, x^(xmax-1) y^(ymax-1)
    top = table[-1][-1][1]
    p = field.p
    qpow = [field.pow(q, e) for e in range(top + 1)]
    # coef[a][b][e] = q^e c^a d^b, so that each cell is one lookup
    coef = [[[k * cd % p for k in qpow] for cd in row] for row in ((1, d), (c, c * d))]
    return tuple(
        tuple(((r, k),) if (k := coef[a][b][e]) else () for r, e, a, b in row)
        for row in table
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


def _xy(n: int):
    """Basis indices of y and x in a central fiber, which generate it; at
    n = 1 the fiber is k and needs none."""
    return (1, n) if n > 1 else ()


def _orbit_class(field, fiber, n: int, c: int, d: int) -> FiberRecord:
    """The `FiberRecord` of fiber(c, d), the representative of its
    torus-orbit class in the census, built and profiled from its table
    `fiber`, the certified exponent table instantiated at (c, d)
    (`_fiber_table`): `_certify_associative` proved it associative and
    unital with generators x and y, so it is marked certified with
    S = {x, y} and is not validated again.  `_certify_grading` proved basis
    index t homogeneous of degree divmod(t, n), so the profile reads J and
    the center of A/J off the graded kernels (`_graded_top`)."""
    alg = _monomial_algebra(field, n, n, fiber, _xy(n))
    with span("qplane.orbit_class", n=n, p=field.p, c=c, d=d) as top:
        rad, factors = _graded_top(alg, n)
        # `_graded_top` reads a top off mu exactly where J is not 0
        top["top"] = "mu" if rad.dim else "center"
    return FiberRecord(c, d, not rad.dim and factors == ((n * n, 1),), SemisimpleProfile(rad.dim, factors))


def _certified_exponent_table(n: int):
    """`_exponent_table(n, n)`, once `_certify_grading` and
    `_certify_associative` have passed on it.

    The associativity certificate compares the monomials q^e c^a d^b as
    polynomials in q, c and d, so it holds for the fiber table over every
    commutative ring at every point (c, d): over GF(p) for the census, and
    over K = k[u, v]/(u, v)^2 at (c + u, d + v) for the jet algebra.
    """
    with span("qplane.certify", n=n):
        table = _exponent_table(n, n)
        _certify_grading(table, n)
        _certify_associative(table, n)
    return table


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


def _certify_associative(table, n: int) -> None:
    """Raise InvalidInputError unless every fiber(c, d) of the graded
    exponent table is associative with unit x^0 y^0, over every field and
    every q with q^n = 1.

    A cell (r, e, a, b) is the monomial q^e c^a d^b b_r, so both bracketings
    of b_s b_t b_u are monomials, equal in every fiber once they agree on the
    target, on e mod n and on a and b.  Unit first: cells (0, t) and (t, 0)
    must be (t, 0, 0, 0).  Then the left-normed words 1 x^i y^j must reach
    every b_r with a = b = 0, so with the coefficient q^e != 0 even where c
    or d is 0: x and y generate every fiber.  Light's test (see
    `algebra._light_certificate`) then needs only the triples whose middle
    factor is x or y: 2 n^4 of them, not n^6.
    """
    dim = n * n
    for t in range(dim):
        if table[0][t] != (t, 0, 0, 0) or table[t][0] != (t, 0, 0, 0):
            raise InvalidInputError(f"exponent cells (0, {t}) and ({t}, 0) break the unit law")
    for r in range(1, dim):
        # x^i y^j is x^i y^(j-1) times y, and x^i is x^(i-1) times x
        word, s = (r - 1, 1) if r % n else (r - n, n)
        target, _, a, b = table[word][s]
        if (target, a, b) != (r, 0, 0):
            raise InvalidInputError(f"exponent cell ({word}, {s}) = {table[word][s]} "
                                    f"does not reach basis index {r}")
    for s, row in enumerate(table):
        for t in _xy(n):
            r1, e1, a1, b1 = row[t]
            for u, (r3, e3, a3, b3) in enumerate(table[t]):
                r2, e2, a2, b2 = table[r1][u]
                r4, e4, a4, b4 = row[r3]
                if (r2, (e1 + e2 - e3 - e4) % n, a1 + a2, b1 + b2) != (r4, 0, a3 + a4, b3 + b4):
                    raise InvalidInputError(f"exponent table is not associative at "
                                            f"triple ({s}, {t}, {u})")


def _certify_mirror(table, n: int) -> None:
    """Raise InvalidInputError unless sigma(x^i y^j) = x^j y^i maps
    fiber(d, c) isomorphically onto the opposite algebra of fiber(c, d).

    In fiber(d, c), cell (s, t) = (r, e, a, b) gives b_s b_t = q^e d^a c^b b_r;
    in the opposite of fiber(c, d), b_(sigma s) o b_(sigma t) is the fiber(c,
    d) product b_(sigma t) b_(sigma s), cell (sigma t, sigma s).  The two agree
    when that cell is (sigma r, e mod n, b, a): sigma fixes the unit, and the
    overflow flags swap with the coordinates.  A ~ B^op keeps the radical
    dimension, the (dim, center dim) of each simple factor (M_k(D)^op is
    M_k(D^op)) and the one-dimensional characters.
    """
    def sigma(k):
        return k % n * n + k // n

    for s, row in enumerate(table):
        for t, (r, e, a, b) in enumerate(row):
            r2, e2, a2, b2 = table[sigma(t)][sigma(s)]
            if (sigma(r2), (e - e2) % n, b2, a2) != (r, 0, a, b):
                raise InvalidInputError(f"exponent cell ({s}, {t}) = {(r, e, a, b)} is not "
                                        f"the mirror of cell ({sigma(t)}, {sigma(s)})")


def _certify_torus_image(field, n: int, c: int, d: int, rep: FiberRecord, nth_root, inverse):
    """Raise InvalidInputError unless lam^n c0 = c and mu^n d0 = d for some
    lam, mu != 0: on the graded exponent table that makes fiber(c, d)
    isomorphic to fiber(c0, d0).  lam is an n-th root of c / c0, read from
    the tables `nth_root` and `inverse` (where inverse[0] = 0, which has no
    n-th root), so a fiber checks without a modular inversion."""
    lam = nth_root.get(field.mul(c, inverse[rep.c])) if c else field.one()
    mu = nth_root.get(field.mul(d, inverse[rep.d])) if d else field.one()
    if (lam is None or mu is None
            or field.mul(field.pow(lam, n), rep.c) != c
            or field.mul(field.pow(mu, n), rep.d) != d):
        raise InvalidInputError(f"fiber ({c}, {d}) is not the torus image of fiber "
                                f"({rep.c}, {rep.d}) under lam = {lam}, mu = {mu}")


def _graded_top(alg: FinDimAlgebra, n: int):
    """(J, the sorted (dim, center dim) of the simple factors of A/J) of a
    central fiber, from `_graded_radical`.  Each component is one basis
    element, so J is spanned by basis vectors, and A/J has as basis the
    images of the b_t with t no pivot of J, each of degree t; the images of
    x and y (`_xy`) outside J generate it.

    Where x or y lies in J, as on the axis c = 0 (x^n = c), A/J is generated
    by one element g: the image of the other generator, or 1 where neither
    survives, as at (0, 0).  So A/J = k[t]/(mu), mu the minimal polynomial
    of g, read on the fiber's own table modulo J, which drops the pivot
    coordinates (`algebra._minimal_polynomial`).  J is checked to be a
    proper ideal, as `quotient_algebra` would: J is spanned by basis
    vectors, so `is_ideal` reads the cells (s, t) and (t, s) for s = x, y
    and t a pivot of J, 4 dim J cells and no residue.  mu is checked to
    have degree dim A/J and no repeated factor; then A/J is the product of
    the fields k[t]/(h) over the irreducible factors h of mu, each of (dim,
    center dim) (deg h, deg h), read off a distinct-degree factorization
    (`_factor_degrees`).  No quotient table, center or idempotent is built.

    Otherwise both generators survive and J = 0: off the axes x and y are
    units, and at n = 1 the fiber is k.  A is then profiled from its graded
    center over x and y (`_graded_center`) and its simple factors
    (`_simple_factors`); a nonzero J holding neither generator raises
    InvalidInputError.
    """
    rad = _graded_radical(alg, n, range(n * n))
    pivots = set(rad.pivots)
    keep = [t for t in range(alg.dim) if t not in pivots]
    gens = [s for s in _xy(n) if s not in pivots]
    if len(gens) < len(_xy(n)):
        if not is_ideal(alg, rad):
            raise NotAnIdealError("subspace is not closure-stable")
        if rad.contains(alg.unit):
            raise ImproperIdealError("ideal contains the unit")
        g = alg.unit if not gens else [int(t == gens[0]) for t in range(alg.dim)]
        mu = _minimal_polynomial(alg, g, keep)
        if mu.degree() != len(keep) or mu.gcd(mu.derivative()).degree():
            raise InvalidInputError(f"a fiber top of dim {len(keep)} is not k[t]/(mu) with mu "
                                    f"squarefree of that degree: mu = {mu!r}")
        return rad, tuple((k, k) for k in _factor_degrees(mu))
    if rad.dim:
        raise InvalidInputError(f"a fiber radical of dim {rad.dim} holds neither x nor y")
    rows = _graded_center(alg, n, keep, gens).rows
    return rad, tuple(sorted(factor[1:] for factor in _simple_factors(alg, rows)))


# The census lists p^2 fibers, so its time and its report grow as p^2:
# (12, 157), 24,649 fibers, is the largest census timed at desk scale, and
# (2, 1009) would write 80 MB of JSON.  So p^2 is bounded above every
# pinned, tested and benchmarked census: p <= 199 passes.
_MAX_CENSUS_FIBERS = 40_000


def azumaya_census(n: int, p: int) -> CensusReport:
    """Profile every central fiber (c, d) in GF(p)^2 and tabulate the
    Azumaya/axis split with its rational-point counts.

    Sending x -> lam x, y -> mu y is an isomorphism from fiber(lam^n c, mu^n d)
    onto fiber(c, d), so a coordinate's class is 0 or its coset in
    GF(p)* / (GF(p)*)^n, and the p^2 fibers fall into (n + 1)^2 classes.  One
    exponent table, which every fiber instantiates, is certified once, in
    O(n^4) integer operations: Z^2-graded (`_certify_grading`), associative
    and unital with generators x and y in every fiber (`_certify_associative`),
    and mirror-symmetric, so that fiber(d, c) is the opposite algebra of
    fiber(c, d) (`_certify_mirror`).  The first fiber of each class in c-major
    order stands for it.  If the mirror class (beta, alpha) of its class
    (alpha, beta) has no representative yet, the fiber's `FiberRecord`
    (`_orbit_class`) is the class's representative: built from the table,
    not validated, and profiled (`_graded_top`: an axis representative,
    c = 0, from the minimal polynomial of its one surviving generator, with
    no quotient table, center or idempotent).  Otherwise the class takes
    the mirror class's profile, which an algebra shares with its opposite,
    once the exact field check `_certify_torus_image` puts fiber(d, c) in
    the mirror class.  Every other fiber builds no table: the check
    lam^n c0 = c, mu^n d0 = d certifies it isomorphic to its class's first
    fiber.  So (n + 1)(n + 2) / 2 fibers are built, and the census costs
    O(p^2 + (n + 1)(n + 2) / 2 rep).  On the axes cd = 0 the one-dimensional
    characters (simple factors of dimension 1) and the nonsplit factors
    (center dimension above 1) are counted off each fiber's profile, in one
    pass over its factors.

    The report lists p^2 fibers, so p^2 above `_MAX_CENSUS_FIBERS` is
    refused with BadParamsError, after the order checks and before the
    search for the root of unity.  In process, on a 2-core x86-64 machine
    with CPython 3.11.7, the census takes 3.7 ms at (4, 17) and 74 ms at
    (8, 73), and its JSON (`codec._fiber_texts`) 0.2 ms at (4, 17).
    """
    # only the cheap order checks come before p <= n^2 is refused: when n is
    # near sqrt(p), the search for the root of unity is refused for its length
    field = GF(p)
    check_root_order(field, n)
    if p <= n * n:
        raise CharacteristicTooSmallError(f"census needs p > n^2; got p = {p}, n = {n}")
    if p * p > _MAX_CENSUS_FIBERS:
        raise BadParamsError(f"census of p^2 = {p * p} fibers exceeds the bound {_MAX_CENSUS_FIBERS}; "
                             f"got p = {p}")
    with span("qplane.census", n=n, p=p) as census:
        q = primitive_root_of_unity(field, n)
        table = _certified_exponent_table(n)
        with span("qplane.certify_mirror", n=n):
            _certify_mirror(table, n)
        # z -> z^((p-1)/n) is 0 at 0 and otherwise names the coset of z.
        coset = [field.pow(z, (p - 1) // n) for z in range(p)]
        nth_root = {field.pow(lam, n): lam for lam in range(1, p)}  # any n-th root will do
        # inverse[z] = 1/z by p = (p // z) z + p % z; inverse[0] = 0
        inverse = [0, 1]
        for z in range(2, p):
            inverse.append(-(p // z) * inverse[p % z] % p)
        classes = {}
        fibers = []
        built = mirrored = 0
        rational_axis_points = 0
        nonsplit_axis_factors = 0
        for c in range(p):
            for d in range(p):
                key = (coset[c], coset[d])
                rep = classes.get(key)
                if rep is not None:
                    _certify_torus_image(field, n, c, d, rep, nth_root, inverse)
                elif (mirror := classes.get(key[::-1])) is not None:
                    _certify_torus_image(field, n, d, c, mirror, nth_root, inverse)
                    rep = classes[key] = mirror._replace(c=c, d=d)
                    mirrored += 1
                else:
                    rep = classes[key] = _orbit_class(field, _fiber_table(field, q, table, c, d), n, c, d)
                    built += 1
                fibers.append(FiberRecord(c, d, rep.azumaya, rep.profile))
                if field.mul(c, d) == field.zero():
                    # over GF(p) a simple factor of dimension 1 is k: one character each
                    for dim, center_dim in rep.profile.factors:
                        rational_axis_points += dim == 1
                        nonsplit_axis_factors += center_dim > 1
        # every fiber but the representatives passed `_certify_torus_image`
        census["built"], census["mirrored"], census["torus"] = built, mirrored, p * p - built
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

    It is the fiber table taken over K = k[u, v]/(u, v)^2 at (c + u, d + v).
    u and v are central, so a product of basis elements is the product of
    their monomials over K times the product of their jets.  The fiber cell
    q^e c^a d^b b_r (a, b in {0, 1}) becomes q^e (c + u)^a (d + v)^b b_r =
    k0 (1 + a u / c + b v / d) b_r, k0 the fiber(c, d) coefficient: where
    both jets are 1 the overflow also leaves k0 / c on u (k0 / d on v),
    where one jet is u or v it passes to the product, and u, v times u, v
    is 0.  Each cell is emitted sorted and zero-free.

    `_certified_exponent_table` proves every base change of the fiber table
    associative and unital, this one included, so the jet algebra is marked
    certified and not validated.  x and y generate it, since x^n = c + u and
    y^n = d + v: S = {y, x}, jet indices 3 and 3n.  At n = 1 the fiber is k
    and x = c + u is no basis element; there S = {u, v}, indices 1 and 2.
    """
    field, q, c, d = _azumaya_point(n, p, c, d)
    table = _certified_exponent_table(n)
    return _jet_algebra(field, _fiber_table(field, q, table, c, d), table, n, c, d)


def _azumaya_point(n: int, p: int, c, d):
    """GF(p), its root of unity q of order n, and c, d reduced, cd != 0."""
    field, q = _require_root(n, p)
    c, d = field.of(c), field.of(d)
    if field.mul(c, d) == field.zero():
        raise NotAzumayaError("point lies on a coordinate axis (cd = 0)")
    return field, q, c, d


def _jet_algebra(field, fiber, table, n: int, c: int, d: int) -> FinDimAlgebra:
    """`regular_point_jet_algebra` from the certified exponent table `table`
    and its instance `fiber` at (c, d) (`_fiber_table`)."""
    with span("qplane.jet_algebra", n=n, dim=3 * n * n):
        p = field.p
        c_inv, d_inv = field.inv(c), field.inv(d)
        labels = [f"x^{i}y^{j}{e}" for i in range(n) for j in range(n) for e in ("", "u", "v")]
        width = 3 * n * n
        mul = []
        for row, flags in zip(fiber, table):
            # cell (3s + e1, 3t + e2) of the jet rows of fiber row s; a cell
            # whose jets are u and v is 0
            ones, us, vs = [], [], []
            for ((r, k0),), (_, _, a, b) in zip(row, flags):
                r *= 3
                cell = ((r, k0),)
                if a:
                    cell += ((r + 1, k0 * c_inv % p),)
                if b:
                    cell += ((r + 2, k0 * d_inv % p),)
                ones.append(cell)
                us.append(((r + 1, k0),))
                vs.append(((r + 2, k0),))
            row_1 = [None] * width
            row_1[0::3], row_1[1::3], row_1[2::3] = ones, us, vs
            row_u = [()] * width
            row_u[0::3] = us
            row_v = [()] * width
            row_v[0::3] = vs
            mul += (row_1, row_u, row_v)
        unit = [field.one()] + [field.zero()] * (len(labels) - 1)
        return _from_normal_table(field, labels, mul, unit, (3, 3 * n) if n > 1 else (1, 2))


# The jet algebra has dim 3n^2 and its invariants cost O(n^4), the cells of
# its table: n = 12 (dim 432) takes 75 ms in process, 0.20 s as a CLI run,
# on a 2-core x86-64 machine with CPython 3.11.7.
_MAX_JET_DIM = 432


def azumaya_point_invariants(n: int, p: int, c, d) -> PointInvariants:
    """Structure invariants of R/(R m^2) at an Azumaya point: they match the
    matrix-jet model M_n(k[u, v]/(u, v)^2).

    The jet index 3r + e has the certified degree of the fiber index r, so
    the radical and the center are graded kernels (gate: p coprime to 3n).
    The radical must be exactly (u, v); then the top is fiber(c, d), which
    `_orbit_class` profiles from the fiber table the jet was built on.
    (u, v) is spanned by basis vectors, so `subspace_product` reads J^2 off
    the 4n^4 cells (u|v)(u|v), each empty where J^2 = 0.  The jet's rows
    are built whole (`_jet_algebra`).  In process, on a 2-core x86-64
    machine with CPython 3.11.7, (5, 31, 26, 23) takes 2.8 ms and
    (12, 157, 2, 3) 75 ms (4.0 and 117 ms with the row products and jet
    rows that branched per cell).
    `measure_point_invariants` is the oracle.
    """
    # the field and the order of q first, so that a bad modulus or order is
    # named as such; neither check searches for the root of unity
    check_root_order(GF(p), n)
    if (3 * n) % p == 0:
        raise CharacteristicTooSmallError(
            f"trace form needs p coprime to 3n; got p = {p}, n = {n}"
        )
    # refused before the search for the root of unity, which is refused for
    # its length when n is near sqrt(p)
    if 3 * n * n > _MAX_JET_DIM:
        raise BadParamsError(
            f"jet algebra dim 3n^2 must be at most {_MAX_JET_DIM}; got n = {n}"
        )
    field, q, c, d = _azumaya_point(n, p, c, d)
    table = _certified_exponent_table(n)
    fiber = _fiber_table(field, q, table, c, d)
    jet = _jet_algebra(field, fiber, table, n, c, d)
    degree = [r for r in range(n * n) for _ in range(3)]
    rad = _graded_radical(jet, n, degree)
    if (rad.pivots != tuple(3 * r + e for r in range(n * n) for e in (1, 2))
            or any(row.count(0) != jet.dim - 1 for row in rad.rows)):
        raise InvalidInputError(f"the jet radical at ({c}, {d}) is not (u, v)")
    top = _orbit_class(field, fiber, n, c, d).profile
    if top.radical_dim:
        raise InvalidInputError(f"fiber ({c}, {d}) is not semisimple")
    return PointInvariants(jet.dim, rad.dim, subspace_product(jet, rad, rad).dim == 0, top.factors,
                           _graded_center(jet, n, degree, _generators(jet)).dim)


def measure_point_invariants(alg: FinDimAlgebra) -> PointInvariants:
    """Radical, radical-square, top factors, and center of a jet-type algebra.

    The radical is the trace-form kernel without `radical`'s gate p > dim:
    callers guarantee that each simple module's multiplicity is nonzero mod p
    (3n for the jet algebra, whose dim 3n^2 may exceed p)."""
    rad = _radical_trace_form(alg)
    top = quotient_algebra(alg, rad)[0]
    factors = _simple_factors(top, center(top).rows)
    return PointInvariants(alg.dim, rad.dim, subspace_product(alg, rad, rad).dim == 0,
                           tuple(sorted(factor[1:] for factor in factors)), center(alg).dim)


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
        table = _fiber_table(field, q, _exponent_table(side, side), 0, 0)
        labels = [f"x^{t // side}y^{t % side}" for t in order]
        # each cell holds at most one pair, so relabelling keeps it normal
        mul = [[tuple((shell[r], k0) for r, k0 in table[a][b]) for b in order] for a in order]
        unit = [field.zero()] * len(order)
        unit[shell[0]] = field.one()
        levels.append(dualize_algebra(_from_normal_table(field, labels, mul, unit, None)))
    # DualTower checks each step once
    return DualTower(levels, [canonical_inclusion(small, big) for small, big in zip(levels, levels[1:])])
