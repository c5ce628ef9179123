"""Finite-dimensional coalgebras, dualization, grouplikes, coradical machinery.

Comultiplication is stored sparsely: ``comul[r]`` is a tuple of (i, j, coeff)
triples meaning Delta(b_r) = sum coeff * b_i (x) b_j.  Dualization against
FinDimAlgebra transposes structure constants on the fixed dual basis, so the
round trip is the identity entrywise.
"""

from __future__ import annotations

from itertools import islice, product
from typing import NamedTuple

from .algebra import (
    AlgebraHom,
    FinDimAlgebra,
    Subspace,
    _annihilator,
    _dual_table,
    _first_failure,
    _from_normal_table,
    _Hom,
    _light_certified,
    _transpose,
    _validate_algebra,
    one_dim_characters,
    radical,
    subspace_product,
)
from .errors import (
    BadParamsError,
    CyclicQuiverError,
    InvalidInputError,
    NotACoalgebraMapError,
    NotInjectiveError,
)
from .kernel import Matrix, PrimeField
from .kernel.fields import Field
from .obs import span


class FinDimCoalgebra:
    __slots__ = ("field", "dim", "labels", "comul", "counit")

    def __init__(self, field: Field, labels, comul, counit):
        """comul[r] is an iterable of (i, j, coeff) triples; the coefficients
        of repeated (i, j) are summed and zero sums dropped, and the
        coefficients and the counit are stored canonical (see
        `Field.canonical`).  A comul without one row per label, or a triple
        whose i or j is not an int in [0, dim), is refused with
        BadParamsError, naming the first bad row or triple."""
        labels = tuple(labels)
        dim = len(labels)
        if len(comul) != dim:
            raise BadParamsError(f"comul has {len(comul)} rows, expected {dim}")
        merged = {}
        for r, terms in enumerate(comul):
            for i, j, c in terms:
                merged[r, i, j] = merged.get((r, i, j), 0) + c
        norm = [[] for _ in labels]
        for (r, i, j), c in zip(merged, field.canonical(merged.values())):
            if not (type(i) is type(j) is int and 0 <= i < dim and 0 <= j < dim):
                raise BadParamsError(f"comul[{r}] names basis indices {(i, j)!r}, not ints in [0, {dim})")
            if c:
                norm[r].append((i, j, c))
        self._store(field, labels, tuple(tuple(sorted(triples)) for triples in norm),
                    field.canonical(counit))

    def _store(self, field: Field, labels: tuple, comul: tuple, counit):
        self.field = field
        self.labels = labels
        self.dim = len(labels)
        self.comul = comul
        counit = tuple(counit)
        if len(counit) != self.dim:
            raise BadParamsError("counit vector has wrong length")
        self.counit = counit

    def delta_of_vector(self, vec):
        """Delta(vec) as a dense vector on the tensor-square basis (i*dim + j)."""
        out = [self.field.zero()] * (self.dim * self.dim)
        for r, xr in enumerate(vec):
            for i, j, c in self.comul[r]:
                out[i * self.dim + j] += xr * c
        return self.field.canonical(out)

    def counit_of_vector(self, vec):
        return self.field.dot(self.counit, vec)

    def __eq__(self, other):
        return (
            isinstance(other, FinDimCoalgebra)
            and self.field == other.field
            and self.labels == other.labels
            and self.comul == other.comul
            and self.counit == other.counit
        )

    def __hash__(self):
        return hash((self.field, self.labels, self.comul, self.counit))

    def __repr__(self):
        return f"FinDimCoalgebra(dim={self.dim}, field={self.field!r})"


class CoalgebraHom(_Hom):
    """Linear map between coalgebras; columns of `matrix` are basis images."""

    __slots__ = ()

    def is_valid(self) -> bool:
        src, tgt = self.source, self.target
        m, n = self.matrix, tgt.dim
        images = [[(x, m.get(x, r)) for x in range(n) if m.get(x, r)] for r in range(src.dim)]

        def laws():
            for r in range(src.dim):
                # eps(f(b_r)) = eps(b_r)
                counit = sum(tgt.counit[x] * fx for x, fx in images[r])
                yield "counit", r, {0: counit - src.counit[r]}
                # Delta(f(b_r)) = (f (x) f) Delta(b_r)
                diff = {}
                for x, fx in images[r]:
                    for i, j, c in tgt.comul[x]:
                        diff[i * n + j] = diff.get(i * n + j, 0) + fx * c
                for i, j, c in src.comul[r]:
                    for x, fx in images[i]:
                        for y, fy in images[j]:
                            diff[x * n + y] = diff.get(x * n + y, 0) - c * fx * fy
                yield "comul", r, diff

        return _first_failure(src.field, laws()) is None

    def is_injective(self) -> bool:
        return self.matrix.rank() == self.source.dim


class Quiver:
    """Finite quiver given by a vertex count and (source, target) arrows."""

    __slots__ = ("vertices", "arrows")

    def __init__(self, vertices: int, arrows):
        self.vertices = vertices
        self.arrows = tuple((int(s), int(t)) for s, t in arrows)
        for s, t in self.arrows:
            if not (0 <= s < vertices and 0 <= t < vertices):
                raise BadParamsError("arrow endpoint out of range")
        if vertices < 0:
            raise BadParamsError(f"vertex count must be >= 0; got {vertices}")

    def _topological_order(self):
        """(order, incoming) for the vertices some arrow touches, in time and
        space linear in the arrows: `order` lists them sources first, each
        after every source of its incoming arrows, and `incoming[t]` holds
        the source of each arrow into t.  None if the quiver has a cycle,
        which leaves some vertex never freed of its incoming arrows."""
        indeg, outgoing, incoming = {}, {}, {}
        for s, t in self.arrows:
            indeg.setdefault(s, 0)
            indeg[t] = indeg.get(t, 0) + 1
            outgoing.setdefault(s, []).append(t)
            incoming.setdefault(t, []).append(s)
        order = [v for v, d in indeg.items() if d == 0]
        for v in order:
            for t in outgoing.get(v, ()):
                indeg[t] -= 1
                if indeg[t] == 0:
                    order.append(t)
        return (order, incoming) if len(order) == len(indeg) else None

    def is_acyclic(self) -> bool:
        return self._topological_order() is not None

    def path_count(self) -> int:
        """The number of paths, trivial ones included, counted without
        listing any, in time and space linear in the arrows: a vertex no
        arrow touches is one path, and over the others, in the topological
        order of `_topological_order`, the paths ending at t are the trivial
        one and each path ending at s extended by an arrow s -> t.  A cyclic
        quiver, whose path coalgebra is refused, counts 0."""
        found = self._topological_order()
        if found is None:
            return 0
        order, incoming = found
        ending = {}
        for v in order:
            ending[v] = 1 + sum(ending[s] for s in incoming.get(v, ()))
        return self.vertices - len(order) + sum(ending.values())


class CoalgebraValidation(NamedTuple):
    coassociative: bool
    counital: bool
    witnesses: tuple

    @property
    def ok(self) -> bool:
        return self.coassociative and self.counital


def validate_coalgebra(c: FinDimCoalgebra) -> CoalgebraValidation:
    """Coassociativity on every basis element, then the counit; the first
    failing basis index r is the witness, with the first failing key for
    coassociativity.

    The counit laws are checked first.  c is coassociative exactly when its
    dual algebra is associative, and the counit laws are the dual's unit law,
    so a counital c is certified by the one Light's test that
    `algebra.validate_algebra` runs too (`algebra._light_certified`), where
    its budget says it is the cheaper check: a generating set S of the dual
    table, then the laws' terms whose middle index is in S.  Elsewhere, and
    when the certificate fails or finds no generating set, the per-r scan
    gives the verdict and the witness.
    """
    return _validate_coalgebra(c)[0]


def _validate_coalgebra(c: FinDimCoalgebra):
    """(report, mul, gens): `validate_coalgebra`'s report, with the dual
    table and the generating set of `_light_certified` (each None where it
    was not built), so a dualization builds neither twice.

    The counit laws of every r are checked in one pass (`_counit_failure`);
    coassociativity, where Light's test does not certify it, runs per r and
    stops at the first failing r.
    """
    f = c.field

    def coassociative():
        for r in range(c.dim):
            # (Delta (x) id) Delta(b_r) = (id (x) Delta) Delta(b_r)
            diff = {}
            for i, j, cf in c.comul[r]:
                for x, y, cf2 in c.comul[i]:
                    diff[x, y, j] = diff.get((x, y, j), 0) + cf * cf2
                for x, y, cf2 in c.comul[j]:
                    diff[i, x, y] = diff.get((i, x, y), 0) - cf * cf2
            yield "coassociativity", (r,), diff

    with span("coalgebra.validate_coalgebra", dim=c.dim) as check:
        counit = _counit_failure(c)
        mul, _, certified, gens = (None,) * 4 if counit else _light_certified(f, None, c.comul, c.counit)
        check["certificate"] = "light" if certified else "scan"
        check["S"] = None if gens is None else len(gens)
        coassoc = None if certified else _first_failure(f, coassociative())
    if coassoc:
        coassoc = ("coassociativity", coassoc[1] + _coassociativity_witness(c, *coassoc[1]))
    failures = (coassoc, counit)
    report = CoalgebraValidation(*(w is None for w in failures), tuple(w for w in failures if w))
    return report, mul, gens


def _counit_failure(c: FinDimCoalgebra):
    """("counit", (r,)) for the least r at which (eps (x) id) Delta(b_r) = b_r
    or (id (x) eps) Delta(b_r) = b_r fails, or None.

    One accumulator holds both laws of every r, keyed r * 2 dim + t for the
    left law and r * 2 dim + dim + t for the right, and is reduced once.  A
    term b_i (x) b_j adds only where eps(b_i) or eps(b_j) is nonzero (the
    counit of a dual is its unit, mostly zero), and the keys of each r come
    before those of r + 1, so the first nonzero residue names the least
    failing r.
    """
    dim, eps = c.dim, c.counit
    width = 2 * dim
    acc = {}
    for r, terms in enumerate(c.comul):
        base = r * width
        acc[base + r] = -1
        acc[base + dim + r] = -1
        for i, j, cf in terms:
            if eps[i]:
                key = base + j
                acc[key] = acc.get(key, 0) + cf * eps[i]
            if eps[j]:
                key = base + dim + i
                acc[key] = acc.get(key, 0) + cf * eps[j]
    residue = c.field.canonical(acc.values())
    return next((("counit", (key // width,)) for key, x in zip(acc, residue) if x), None)


def _coassociativity_witness(c: FinDimCoalgebra, r: int):
    """First key (x, y, z) at which (Delta (x) id) Delta(b_r) and
    (id (x) Delta) Delta(b_r) differ, in the order of set(lhs) | set(rhs)."""
    lhs = {}
    rhs = {}
    for i, j, cf in c.comul[r]:
        for x, y, cf2 in c.comul[i]:
            lhs[x, y, j] = lhs.get((x, y, j), 0) + cf * cf2
        for x, y, cf2 in c.comul[j]:
            rhs[i, x, y] = rhs.get((i, x, y), 0) + cf * cf2
    keys = list(set(lhs) | set(rhs))
    diff = c.field.canonical(lhs.get(k, 0) - rhs.get(k, 0) for k in keys)
    return next(k for k, x in zip(keys, diff) if x)


# ---------------------------------------------------------------------------
# dualization


def dualize_algebra(a: FinDimAlgebra) -> FinDimCoalgebra:
    """Coalgebra on the dual basis: Delta(b^r) = sum c_ij^r b^i (x) b^j.

    An algebra is validated first unless it is already certified (`_gens`
    set: by a validation, by the integer exponent-table certificate of the
    census and jet tables, or as the quotient of a certified algebra by a
    checked ideal); the coassociativity and counit laws of the dual are its
    associativity and unit laws.  The comultiplication is the transpose of
    the normal table (`algebra._transpose`), in the form `FinDimCoalgebra`
    stores, so it is not normalized again; it is built once, shared with
    the validation where Light's test built it.
    """
    with span("coalgebra.dualize_algebra", dim=a.dim, certified=a._gens is not None):
        comul = None
        if a._gens is None:
            report, comul = _validate_algebra(a)
            if not report.ok:
                raise InvalidInputError("algebra fails validation")
        comul = _transpose(a.mul) if comul is None else comul
    dual = object.__new__(FinDimCoalgebra)
    dual._store(a.field, a.labels, comul, a.unit)
    return dual


def dualize_coalgebra(c: FinDimCoalgebra) -> FinDimAlgebra:
    """Convolution algebra on the dual basis: c_ij^r = D_r^ij, unit = counit.

    The dual carries the certificate of the validation that just passed (its
    associativity and unit laws are the coassociativity and counit laws of
    c): `_gens` is the generating set Light's test certified on the dual
    table, or True.  The table is built once, shared with the validation
    where Light's test built it; as the transpose of a normalized
    comultiplication it is normal (see `algebra._dual_table`), so it is not
    normalized again.
    """
    with span("coalgebra.dualize_coalgebra", dim=c.dim):
        report, mul, gens = _validate_coalgebra(c)
        if not report.ok:
            raise InvalidInputError("coalgebra fails validation")
        if mul is None:
            mul = _dual_table(c.comul)
    return _from_normal_table(c.field, c.labels, mul, c.counit, True if gens is None else tuple(gens))


# ---------------------------------------------------------------------------
# grouplikes and coradical


def grouplikes(c: FinDimCoalgebra):
    """All nonzero x with Delta(x) = x (x) x, via characters of the dual algebra."""
    chars = one_dim_characters(dualize_coalgebra(c))
    return [ch.values for ch in chars]


# the brute force tries all p^dim - 1 vectors, so it stops at this dimension
_BRUTEFORCE_MAX_DIM = 4


def grouplikes_bruteforce(c: FinDimCoalgebra):
    """Exhaustive solution set of Delta(x) = x (x) x over a small prime field.

    Every nonzero x in GF(p)^dim is tried.  The equation is compared one
    coordinate b_i (x) b_j at a time, sum_r x_r D_r^ij against x_i x_j, from
    a list of the (r, D_r^ij) of each (i, j) built once, the coordinates
    (i, i) first; a vector is dropped at its first unequal coordinate.
    """
    f = c.field
    if not isinstance(f, PrimeField):
        raise BadParamsError("brute-force enumeration needs a prime field")
    if c.dim > _BRUTEFORCE_MAX_DIM:
        raise BadParamsError(f"dimension {c.dim} too large for brute force")
    p, dim = f.p, c.dim
    terms = {}
    for r, triples in enumerate(c.comul):
        for i, j, cf in triples:
            terms.setdefault((i, j), []).append((r, cf))
    # the diagonal first: on the named coalgebras it drops most vectors soonest
    pairs = [(i, i) for i in range(dim)] + [(i, j) for i in range(dim) for j in range(dim) if i != j]
    coords = [(i, j, terms.get((i, j), ())) for i, j in pairs]
    out = []
    for vec in islice(product(range(p), repeat=dim), 1, None):
        for i, j, ts in coords:
            if (sum(vec[r] * cf for r, cf in ts) - vec[i] * vec[j]) % p:
                break
        else:
            out.append(vec)
    out.sort()
    return out


def coradical(c: FinDimCoalgebra) -> Subspace:
    """Largest cosemisimple subcoalgebra, realized inside c as the
    annihilator of the radical of the dual algebra."""
    return _annihilator(c, radical(dualize_coalgebra(c)).rows)


def coradical_filtration(c: FinDimCoalgebra):
    """C_0 <= C_1 <= ... terminating at c: C_k is the annihilator of J^(k+1),
    J the radical of the dual algebra.

    The wedge C_0 ^ C_(k-1) = Delta^-1(C_0 (x) C + C (x) C_(k-1)) is the
    annihilator of J J^k (Sweedler, Hopf Algebras, ch. IX), so the levels
    are read off the powers of J, up to the first zero power; dim C_k is
    dim c - dim J^(k+1).
    """
    dual = dualize_coalgebra(c)
    rad = radical(dual)
    powers = [rad]
    while powers[-1].dim:
        nxt = subspace_product(dual, rad, powers[-1])
        if nxt.dim >= powers[-1].dim:
            raise InvalidInputError("coradical filtration failed to grow")
        powers.append(nxt)
    return [_annihilator(c, power.rows) for power in powers]


class CoradicalReport(NamedTuple):
    preserved: bool
    witness: tuple | None


def coradical_preserved(hom: AlgebraHom) -> CoradicalReport:
    """Whether the dualized map sends corad(target*) into corad(source*).

    The dual algebra of a* is a itself, entrywise, so the coradical of a* is
    the annihilator of the radical of a: each algebra is validated once, by
    `dualize_algebra`, and no dual is dualized back.
    """
    src_dual = dualize_algebra(hom.source)
    tgt_dual = dualize_algebra(hom.target)
    corad_src = _annihilator(src_dual, radical(hom.source).rows)
    corad_tgt = _annihilator(tgt_dual, radical(hom.target).rows)
    transpose = hom.matrix.transpose()
    for v in corad_tgt.rows:
        image = transpose.apply(list(v))
        if not corad_src.contains(image):
            return CoradicalReport(False, tuple(image))
    return CoradicalReport(True, None)


# ---------------------------------------------------------------------------
# named constructors


def comatrix_coalgebra(field: Field, d: int) -> FinDimCoalgebra:
    """Dual of the d x d matrix algebra on the basis E^ij."""
    if d < 1:
        raise BadParamsError("d must be >= 1")
    n = d * d
    one = field.one()
    comul = [[] for _ in range(n)]
    for i in range(d):
        for j in range(d):
            comul[i * d + j] = [(i * d + r, r * d + j, one) for r in range(d)]
    counit = [one if i == j else field.zero() for i in range(d) for j in range(d)]
    labels = [f"E{i + 1}{j + 1}" for i in range(d) for j in range(d)]
    return FinDimCoalgebra(field, labels, comul, counit)


def triangular_coalgebra(field: Field, n: int) -> FinDimCoalgebra:
    """Dual of the upper-triangular algebra, basis E^ij for i <= j."""
    if n < 1:
        raise BadParamsError("n must be >= 1")
    idx = {}
    labels = []
    for i in range(n):
        for j in range(i, n):
            idx[(i, j)] = len(labels)
            labels.append(f"E{i + 1}{j + 1}")
    one = field.one()
    comul = [[] for _ in labels]
    for (i, j), r in idx.items():
        comul[r] = [(idx[(i, k)], idx[(k, j)], one) for k in range(i, j + 1)]
    counit = [one if i == j else field.zero() for (i, j) in idx]
    return FinDimCoalgebra(field, labels, comul, counit)


def grouplike_coalgebra(field: Field, points) -> FinDimCoalgebra:
    """Linearization of a finite set: every basis element is grouplike."""
    if isinstance(points, int):
        labels = [f"x{i}" for i in range(points)]
    else:
        labels = [str(x) for x in points]
    if not labels:
        raise BadParamsError("need at least one point")
    one = field.one()
    comul = [[(r, r, one)] for r in range(len(labels))]
    return FinDimCoalgebra(field, labels, comul, [one] * len(labels))


def divided_power_coalgebra(field: Field, m: int, label: str = "eps") -> FinDimCoalgebra:
    """Dual of k[t]/(t^m): Delta(eps_r) = sum_{i+j=r} eps_i (x) eps_j."""
    if m < 1:
        raise BadParamsError("m must be >= 1")
    one = field.one()
    comul = [[(i, r - i, one) for i in range(r + 1)] for r in range(m)]
    counit = [one] + [field.zero()] * (m - 1)
    return FinDimCoalgebra(field, [f"{label}{r}" for r in range(m)], comul, counit)


def line_dist_coalgebra(field: Field, points) -> FinDimCoalgebra:
    """Distributions on finitely many points of the affine line.

    `points` maps a point (int, coerced into the field) to the order of its
    infinitesimal neighborhood; the result is the direct sum of divided-power
    blocks with labels eps(point,i).
    """
    if isinstance(points, dict):
        items = list(points.items())
    else:
        items = list(points)
    if not items:
        raise BadParamsError("need at least one point")
    items = [(field.of(pt), int(mult)) for pt, mult in items]
    items.sort(key=lambda pm: pm[0])
    seen = set()
    labels = []
    blocks = []
    for pt, mult in items:
        if pt in seen:
            raise BadParamsError(f"duplicate point {pt}")
        seen.add(pt)
        if mult < 1:
            raise BadParamsError("multiplicity must be >= 1")
        base = len(labels)
        labels.extend(f"eps({pt},{i})" for i in range(mult))
        blocks.append((base, mult))
    one = field.one()
    comul = [[] for _ in labels]
    counit = [field.zero()] * len(labels)
    for base, mult in blocks:
        for r in range(mult):
            comul[base + r] = [(base + i, base + r - i, one) for i in range(r + 1)]
        counit[base] = one
    return FinDimCoalgebra(field, labels, comul, counit)


def path_coalgebra(field: Field, quiver: Quiver) -> FinDimCoalgebra:
    """Path coalgebra of a finite acyclic quiver.

    Basis: all paths, sorted by (target, source, length, arrow indices); a
    path is stored in travel order from its source vertex.  Splitting a path
    gives Delta(p) = sum target-end (x) source-end, so for the linearly
    oriented A_n quiver (arrows i+1 -> i) the result matches the triangular
    coalgebra entrywise.
    """
    if not quiver.is_acyclic():
        raise CyclicQuiverError("path coalgebra needs an acyclic quiver")
    paths = [((), v, v) for v in range(quiver.vertices)]  # (arrows, source, target)
    frontier = paths
    while frontier:
        nxt = []
        for arrows, src, tgt in frontier:
            for ai, (s, t) in enumerate(quiver.arrows):
                if s == tgt:
                    nxt.append((arrows + (ai,), src, t))
        paths.extend(nxt)
        frontier = nxt
    paths.sort(key=lambda p: (p[2], p[1], len(p[0]), p[0]))
    index = {p: n for n, p in enumerate(paths)}

    def label(p):
        arrows, src, tgt = p
        if not arrows:
            return f"v{src}"
        return "".join(f"a{i}" for i in reversed(arrows))

    one = field.one()
    comul = []
    counit = []
    for arrows, src, tgt in paths:
        terms = []
        for k in range(len(arrows) + 1):
            prefix = arrows[:k]
            suffix = arrows[k:]
            mid = quiver.arrows[arrows[k - 1]][1] if k else src
            left = (suffix, mid, tgt)
            right = (prefix, src, mid)
            terms.append((index[left], index[right], one))
        comul.append(terms)
        counit.append(one if not arrows else field.zero())
    return FinDimCoalgebra(field, [label(p) for p in paths], comul, counit)


# ---------------------------------------------------------------------------
# dual towers


class DualTower:
    """A chain of finite-dimensional coalgebras with injective inclusions,
    realizing a finite stretch of a directed system of duals."""

    __slots__ = ("levels", "inclusions")

    def __init__(self, levels, inclusions):
        self.levels = tuple(levels)
        self.inclusions = tuple(inclusions)
        if len(self.inclusions) != max(len(self.levels) - 1, 0):
            raise BadParamsError("need one inclusion per consecutive pair")
        for k, inc in enumerate(self.inclusions):
            _check_tower_step(self.levels[k], self.levels[k + 1], inc)

    @property
    def top(self) -> FinDimCoalgebra:
        return self.levels[-1]

    def __eq__(self, other):
        return (
            isinstance(other, DualTower)
            and self.levels == other.levels
            and all(a.matrix == b.matrix for a, b in zip(self.inclusions, other.inclusions))
        )

    def __repr__(self):
        dims = ", ".join(str(lv.dim) for lv in self.levels)
        return f"DualTower({dims})"


def _check_tower_step(small: FinDimCoalgebra, big: FinDimCoalgebra, inc: CoalgebraHom):
    if inc.source != small or inc.target != big:
        raise BadParamsError("inclusion endpoints do not match the levels")
    if big.labels[: small.dim] != small.labels:
        raise BadParamsError("level labels must extend by suffix")
    if not inc.is_injective():
        raise NotInjectiveError("inclusion matrix is not injective")
    if not inc.is_valid():
        raise NotACoalgebraMapError("inclusion is not a coalgebra morphism")


def canonical_inclusion(small: FinDimCoalgebra, big: FinDimCoalgebra) -> CoalgebraHom:
    """The prefix inclusion [I; 0] for label-compatible levels."""
    f = small.field
    ent = []
    for i in range(big.dim):
        for j in range(small.dim):
            ent.append(f.one() if i == j else f.zero())
    return CoalgebraHom(small, big, Matrix(f, big.dim, small.dim, ent))


def tower_extend(tower: DualTower, nxt: FinDimCoalgebra, inclusion: CoalgebraHom) -> DualTower:
    """The tower with one more level; every step is checked again."""
    return DualTower(tower.levels + (nxt,), tower.inclusions + (inclusion,))
