"""Finite-dimensional associative unital algebras by structure constants.

An algebra stores its multiplication sparsely: ``mul[i][j]`` is a tuple of
(r, coeff) pairs, one pair per r with a nonzero coeff, sorted by r, meaning
b_i b_j = sum coeff * b_r.  This table is the source of truth: products,
validation, the center and the trace form are computed by walking it, never
from a densified copy.  Arithmetic on it is lazy over GF(p): loops use the
plain ``+ - *`` operators on ints and reduce each output entry once with
`Field.canonical`.  Over Q a scalar is an int when it is integral and a
Fraction otherwise (see `kernel.fields`), so the same operators act on ints
for integer tables, and `canonical` turns an integral Fraction into its int.

All operations are pure; subspaces are kept in canonical reduced echelon form
so equal subspaces have equal representations.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .errors import (
    BadParamsError,
    CharacteristicTooSmallError,
    ImproperIdealError,
    InvalidInputError,
    NotAnIdealError,
    NotSplitError,
)
from .kernel import (
    Matrix,
    PrimeField,
    Poly,
    echelon_rows,
    factor_over_field,
    rref_kernel,
    solve_linear,
)
from .kernel.fields import Field
from .obs import span


class FinDimAlgebra:
    __slots__ = ("field", "dim", "labels", "mul", "unit", "_gens")

    def __init__(self, field: Field, labels, mul, unit):
        """mul may be given densely (mul[i][j][r] scalar) or sparsely
        (mul[i][j] an iterable of (r, coeff) pairs)."""
        labels = tuple(labels)
        self._store(field, labels, _normalize_mul(field, len(labels), mul), field.canonical(unit), None)

    def _store(self, field: Field, labels: tuple, mul: tuple, unit, gens):
        self.field = field
        self.labels = labels
        self.dim = len(labels)
        self.mul = mul
        unit = tuple(unit)
        if len(unit) != self.dim:
            raise BadParamsError("unit vector has wrong length")
        self.unit = unit
        # None until the table is certified associative and unital (only
        # `validate_algebra`, `quotient_algebra`, the dual of a validated
        # coalgebra (`coalgebra.dualize_coalgebra`), and the census and the
        # jet algebra, whose integer certificate covers every base change of
        # the fiber table, do that); then True, or the generating set once
        # it is known (see `_generators`)
        self._gens = gens

    def basis_product(self, i: int, j: int):
        out = [self.field.zero()] * self.dim
        for r, c in self.mul[i][j]:
            out[r] = c
        return out

    def multiply(self, u, v):
        """Product of two dense coordinate vectors."""
        out = [self.field.zero()] * self.dim
        v_terms = [(j, vj) for j, vj in enumerate(v) if vj]
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = self.mul[i]
            for j, vj in v_terms:
                c = ui * vj
                for r, coeff in row[j]:
                    out[r] += c * coeff
        return self.field.canonical(out)

    def left_mult_matrix(self, vec) -> Matrix:
        cols = [self.multiply(vec, _basis_vec(self.field, self.dim, j)) for j in range(self.dim)]
        return Matrix(self.field, self.dim, self.dim,
                      [cols[j][i] for i in range(self.dim) for j in range(self.dim)])

    def power(self, vec, n: int):
        acc = list(self.unit)
        base = list(vec)
        while n:
            if n & 1:
                acc = self.multiply(acc, base)
            base = self.multiply(base, base)
            n >>= 1
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, FinDimAlgebra)
            and self.field == other.field
            and self.labels == other.labels
            and self.mul == other.mul
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.field, self.labels, self.mul, self.unit))

    def __repr__(self):
        return f"FinDimAlgebra(dim={self.dim}, field={self.field!r})"


def _normalize_mul(field: Field, dim: int, mul):
    """One (r, coeff) pair per r with coeff canonical (see `Field.canonical`)
    and nonzero, sorted by r; the coefficients of repeated pairs (i, j, r)
    are summed.

    A table that is not dim x dim, a dense cell that does not hold dim
    scalars, or a pair whose r is not an int in [0, dim) is refused with
    BadParamsError, naming the first bad row, cell or index."""
    if len(mul) != dim:
        raise BadParamsError(f"mul has {len(mul)} rows, expected {dim}")
    out = []
    for i, cells in enumerate(mul):
        if len(cells) != dim:
            raise BadParamsError(f"mul[{i}] has {len(cells)} cells, expected {dim}")
        row = []
        for j, cell in enumerate(cells):
            if cell and isinstance(cell[0], tuple):
                merged = {}
                for r, c in cell:
                    merged[r] = merged.get(r, 0) + c
                for r in merged:
                    if not (type(r) is int and 0 <= r < dim):
                        raise BadParamsError(f"mul[{i}][{j}] names basis index {r!r}, not an int in [0, {dim})")
            elif not cell or len(cell) == dim:
                merged = dict(enumerate(cell))
            else:
                raise BadParamsError(f"mul[{i}][{j}] has {len(cell)} scalars, expected {dim}")
            row.append(tuple(sorted((r, c) for r, c in zip(merged, field.canonical(merged.values())) if c)))
        out.append(tuple(row))
    return tuple(out)


def _from_normal_table(field: Field, labels, mul, unit, gens) -> FinDimAlgebra:
    """The algebra of a table its builder emits in the normal form
    `_normalize_mul` stores (each cell a tuple of (r, coeff) pairs, r
    strictly increasing, every coeff canonical and nonzero) with a canonical
    unit, without walking it again; `gens` is the `_gens` to start from
    (None, True or a generating set).

    Only builders whose cells are normal by construction call this: M_d,
    the upper-triangular matrices and k^m (`matrix_algebra`,
    `triangular_algebra`, `diagonal_algebra`), the quotient by an ideal,
    k[t]/(f) (`monogenic_algebra`), the census and jet tables and the box
    tower's levels (`qplane`), the twisted product's table
    (`twist.raw_twisted_algebra`), the transpose of a normalized
    comultiplication (`coalgebra.dualize_coalgebra`, see `_dual_table`),
    the acceptance suite's matrix-jet oracle (`selftest.matrix_jet_oracle`),
    and a codec document whose entries the decoder's checks proved normal
    (`codec._decode_algebra`).  Public input goes through `FinDimAlgebra`,
    which always normalizes.
    """
    alg = object.__new__(FinDimAlgebra)
    alg._store(field, tuple(labels), tuple(map(tuple, mul)), unit, gens)
    return alg


def _basis_vec(field: Field, dim: int, i: int):
    v = [field.zero()] * dim
    v[i] = field.one()
    return v


def _first_failure(field: Field, laws):
    """(name, index) of the first law whose lhs - rhs is nonzero, or None.

    `laws` yields (name, index, diff) lazily, diff a dict of lhs - rhs
    coefficients built with the plain ``+ - *`` operators; each diff is
    reduced once here, and no law after the first failure is built.
    """
    for name, index, diff in laws:
        # an exact zero needs no reduction
        if any(diff.values()) and any(field.canonical(diff.values())):
            return name, index
    return None


class Subspace:
    """Subspace of an algebra's coordinate space, rows in canonical RREF.

    `_tails` maps each pivot column, in row order, to its row's nonzero
    entries off the pivot, as (column, coeff) pairs: the sparse form
    `residue` reduces with.
    """

    __slots__ = ("ambient", "rows", "_tails")

    def __init__(self, ambient: FinDimAlgebra, rows):
        self._set_rows(ambient, echelon_rows(ambient.field, rows))

    @classmethod
    def _from_disjoint_blocks(cls, ambient: FinDimAlgebra, rows) -> "Subspace":
        """The span of `rows`, the RREF rows of blocks on disjoint sets of
        coordinates (`_block_kernel`'s rows for the components of a
        grading), with no elimination: a row is 1 at its pivot and 0 at
        the other pivots of its block and off its block, so in pivot order
        the rows are the span's RREF."""
        space = cls.__new__(cls)
        space._set_rows(ambient, sorted(rows, key=lambda row: next(j for j, x in enumerate(row) if x)))
        return space

    def _set_rows(self, ambient: FinDimAlgebra, rows) -> None:
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rows)
        # an RREF row's first nonzero entry is its pivot
        terms = [[(j, x) for j, x in enumerate(row) if x] for row in self.rows]
        self._tails = {t[0][0]: t[1:] for t in terms}

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple:
        return tuple(self._tails)

    def _basis_spanned(self) -> bool:
        """Whether the span is that of the basis vectors at its pivots: every
        RREF row is 1 at its pivot and has no tail."""
        return not any(self._tails.values())

    def residue(self, vec: dict) -> dict:
        """vec, a dict of coordinates not yet reduced (see `Field.canonical`),
        minus its component in the span: reduced, zeros dropped, and empty
        exactly when vec lies in the span.

        One pass is exact: each RREF row is 1 at its own pivot and 0 at every
        other, so subtracting c times the row of each pivot vec touches, c
        the pivot's coefficient in vec, clears that pivot and no other.
        """
        tails = self._tails
        out = dict(vec)
        for pc, c in vec.items():
            tail = tails.get(pc)
            if tail is not None:
                del out[pc]
                for j, x in tail:
                    out[j] = out.get(j, 0) - c * x
        return _sparse(self.ambient.field, out)

    def contains(self, vec) -> bool:
        return not self.residue({j: x for j, x in enumerate(vec) if x})

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.rows == other.rows and self.ambient is other.ambient

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient.dim})"


def _annihilator(ambient, rows) -> Subspace:
    """The vectors x of `ambient` with row . x = 0 for every row: the kernel of
    the matrix of rows, which is the whole space when there are no rows."""
    return Subspace._from_disjoint_blocks(ambient, _block_kernel(ambient.field, rows, range(ambient.dim), ambient.dim))


class _Hom:
    """Linear map between two objects over one field, algebras or
    coalgebras; columns of `matrix` are images of basis."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix: Matrix):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise BadParamsError("hom matrix shape mismatch")
        if not source.field == target.field == matrix.field:
            raise BadParamsError("hom source, target and matrix must share a field")
        self.source = source
        self.target = target
        self.matrix = matrix

    def apply(self, vec):
        return self.matrix.apply(list(vec))

    def __repr__(self):
        return f"{type(self).__name__}({self.source.dim} -> {self.target.dim})"


class AlgebraHom(_Hom):
    """Linear map between algebras; columns of `matrix` are images of basis."""

    __slots__ = ()

    def is_valid(self) -> bool:
        src, tgt = self.source, self.target
        m = self.matrix
        images = [[(x, m.get(x, i)) for x in range(tgt.dim) if m.get(x, i)] for i in range(src.dim)]

        def laws():
            # f(1) = 1
            diff = dict(enumerate(tgt.unit))
            for i, u in enumerate(src.unit):
                for x, fx in images[i]:
                    diff[x] -= u * fx
            yield "unit", 0, diff
            # f(b_i b_j) = f(b_i) f(b_j)
            for i in range(src.dim):
                for j in range(src.dim):
                    diff = {}
                    for r, c in src.mul[i][j]:
                        for x, fx in images[r]:
                            diff[x] = diff.get(x, 0) + c * fx
                    for x, fx in images[i]:
                        for y, fy in images[j]:
                            for t, c in tgt.mul[x][y]:
                                diff[t] = diff.get(t, 0) - fx * fy * c
                    yield "mul", (i, j), diff

        return _first_failure(src.field, laws()) is None

    def compose(self, inner: "AlgebraHom") -> "AlgebraHom":
        """self o inner."""
        return AlgebraHom(inner.source, self.target, self.matrix @ inner.matrix)


class Character:
    """One-dimensional representation: a multiplicative unital functional."""

    __slots__ = ("algebra", "values")

    def __init__(self, algebra: FinDimAlgebra, values):
        self.algebra = algebra
        self.values = tuple(algebra.field.canonical(values))

    def evaluate(self, vec):
        return self.algebra.field.dot(self.values, vec)

    def is_valid(self) -> bool:
        """Whether the values define an algebra map to the one-dimensional algebra k."""
        a = self.algebra
        row = Matrix(a.field, 1, a.dim, self.values)
        return AlgebraHom(a, diagonal_algebra(a.field, 1), row).is_valid()

    def __eq__(self, other):
        return isinstance(other, Character) and self.values == other.values

    def __repr__(self):
        return f"Character({self.values})"


class SemisimpleProfile(NamedTuple):
    radical_dim: int
    factors: tuple  # ((factor_dim, center_dim), ...) sorted ascending


class ValidationReport(NamedTuple):
    associative: bool
    unital: bool
    witnesses: tuple

    @property
    def ok(self) -> bool:
        return self.associative and self.unital


# ---------------------------------------------------------------------------
# named constructors


def matrix_algebra(field: Field, d: int) -> FinDimAlgebra:
    """M_d with basis E_ij ordered row-major."""
    if d < 1:
        raise BadParamsError("d must be >= 1")
    n = d * d
    zero, one = field.zero(), field.one()
    mul = [[() for _ in range(n)] for _ in range(n)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    if j == k:
                        mul[i * d + j][k * d + l] = ((i * d + l, one),)
    unit = [zero] * n
    for i in range(d):
        unit[i * d + i] = one
    labels = [f"E{i + 1}{j + 1}" for i in range(d) for j in range(d)]
    return _from_normal_table(field, labels, mul, unit, None)


def triangular_algebra(field: Field, n: int) -> FinDimAlgebra:
    """Upper-triangular n x n matrices, basis E_ij (i <= j) in lex order."""
    if n < 1:
        raise BadParamsError("n must be >= 1")
    idx = {}
    labels = []
    for i in range(n):
        for j in range(i, n):
            idx[(i, j)] = len(labels)
            labels.append(f"E{i + 1}{j + 1}")
    dim = len(labels)
    one = field.one()
    mul = [[() for _ in range(dim)] for _ in range(dim)]
    for (i, j), a in idx.items():
        for (k, l), b in idx.items():
            if j == k:
                mul[a][b] = ((idx[(i, l)], one),)
    unit = [field.zero()] * dim
    for i in range(n):
        unit[idx[(i, i)]] = one
    return _from_normal_table(field, labels, mul, unit, None)


def monogenic_algebra(field: Field, modulus: Poly, var: str = "t") -> FinDimAlgebra:
    """k[t]/(f) on the basis 1, t, ..., t^(deg f - 1).

    Cell (i, j) is t^(i+j) mod f, kept as its nonzero (index, coeff) pairs
    in index order: t times a power shifts every index up by one, and a
    term c t^d becomes -c times the lower terms of the monic f.  So each
    power costs its own terms, a cell is normal as built, and the table is
    not normalized again."""
    if modulus.degree() < 1:
        raise BadParamsError("modulus must have degree >= 1")
    d = modulus.degree()
    low = [(k, c) for k, c in enumerate(modulus.monic().coeffs[:-1]) if c]
    # t^k mod f for k up to 2d-2
    cur = ((0, field.one()),)
    powers = [cur]
    for _ in range(2 * d - 2):
        shifted = [(r + 1, c) for r, c in cur]
        if shifted and shifted[-1][0] == d:
            _, lead = shifted.pop()
            acc = dict(shifted)
            for k, c in low:
                acc[k] = acc.get(k, 0) - lead * c
            shifted = sorted((r, c) for r, c in zip(acc, field.canonical(acc.values())) if c)
        cur = tuple(shifted)
        powers.append(cur)
    mul = [powers[i:i + d] for i in range(d)]
    labels = ["1"] + [var if k == 1 else f"{var}^{k}" for k in range(1, d)]
    return _from_normal_table(field, labels, mul, _basis_vec(field, d, 0), None)


def truncated_polynomial_algebra(field: Field, n: int, var: str = "t") -> FinDimAlgebra:
    """k[t]/(t^n)."""
    coeffs = [field.zero()] * n + [field.one()]
    return monogenic_algebra(field, Poly(field, coeffs), var)


def cyclic_group_algebra(field: Field, m: int, var: str = "g") -> FinDimAlgebra:
    """k[Z/m] presented as k[g]/(g^m - 1)."""
    if m < 1:
        raise BadParamsError("group order must be >= 1")
    coeffs = [field.neg(field.one())] + [field.zero()] * (m - 1) + [field.one()]
    return monogenic_algebra(field, Poly(field, coeffs), var)


def diagonal_algebra(field: Field, m: int) -> FinDimAlgebra:
    """k^m with the coordinatewise product."""
    one = field.one()
    mul = [[((i, one),) if i == j else () for j in range(m)] for i in range(m)]
    return _from_normal_table(field, [f"e{i + 1}" for i in range(m)], mul, [one] * m, None)


# ---------------------------------------------------------------------------
# validation


# Light's test is tried from this dimension on.  Of the 1,796 validations
# that `selftest --seed 5` and `verify --suite twists --seed 7` make, 1,787
# have dim <= 9, where choosing and certifying a generating set costs more
# than the full scan; on the duality benchmark the smallest validated object
# that costs anything has dim 25.
_LIGHT_MIN_DIM = 16
# A generating set is abandoned once it would hold more than dim // 3
# indices, where it saves its users too little: M_6 picks 11 of 36, a
# quantum-plane box picks 2, triangular(8) would need more than 12 of 36.
_LIGHT_MAX_SHARE = 3


def validate_algebra(a: FinDimAlgebra) -> ValidationReport:
    """Associativity on every basis triple, then the unit; the first failing
    triple (i, j, k, t) in lexicographic order of (i, j, k), or basis index,
    is the witness.

    The unit law is checked first.  A unital algebra is then certified
    associative by Light's test where its budget says it is the cheaper
    check (`_light_certified`, the test `coalgebra.validate_coalgebra` runs
    on a dual table); elsewhere, and when the certificate fails or no
    generating set is found, the full scan
    (`_first_non_associative_triple`) gives the verdict and the witness.
    An algebra that passes is marked certified, with the generating set S
    the certificate used, or True (S is then looked for on first use, see
    `_generators`).
    """
    return _validate_algebra(a)[0]


def _validate_algebra(a: FinDimAlgebra):
    """(report, comul): `validate_algebra`'s report, with the transposed
    table where Light's test built it (else None), so a dualization builds
    it once."""
    f = a.field
    with span("algebra.validate_algebra", dim=a.dim) as check:
        unit_failure = _first_failure(f, _unit_laws(a))
        _, comul, certified, gens = (None,) * 4 if unit_failure else _light_certified(f, a.mul, None, a.unit)
        check["certificate"] = "light" if certified else "scan"
        check["S"] = None if gens is None else len(gens)
        triple = None if certified else _first_non_associative_triple(f, a.mul)
    witnesses = []
    if triple is not None:
        witnesses.append(("associativity", (*triple, _associativity_witness(a, *triple))))
    if unit_failure is not None:
        witnesses.append(unit_failure)
    report = ValidationReport(triple is None, unit_failure is None, tuple(witnesses))
    if report.ok:
        a._gens = True if gens is None else tuple(gens)
    return report, comul


def _unit_laws(a: FinDimAlgebra):
    """("unit", (j,), diff) for each basis index j, lazily, diff holding
    1 b_j - b_j and b_j 1 - b_j keyed (side, r): sums of u_i mul[i][j] and
    u_i mul[j][i] over the nonzero unit entries u_i."""
    unit_terms = [(i, u) for i, u in enumerate(a.unit) if u]
    for j in range(a.dim):
        diff = {(0, j): -1, (1, j): -1}
        for i, u in unit_terms:
            for r, c in a.mul[i][j]:
                diff[0, r] = diff.get((0, r), 0) + u * c
            for r, c in a.mul[j][i]:
                diff[1, r] = diff.get((1, r), 0) + u * c
        yield "unit", (j,), diff


def _first_non_associative_triple(field: Field, mul):
    """Least (i, j, k) with (b_i b_j) b_k != b_i (b_j b_k) in the table `mul`,
    or None: the full scan, pairs (i, j) in lexicographic order.

    For each (i, j) one accumulator holds the difference for every k at once,
    keyed k * dim + t, and is reduced once at the end.  Both sides read one
    term list per row x, the nonzero products b_x b_k = sum c b_s for every
    k as (k * dim, s, c), k in order, and no empty cell of a row; a list is
    built the first time its row is used.  The left side takes row s of each
    b_s in b_i b_j, so it costs its nonzero two-step products.  The right
    side takes row j and, for each of its terms, reads cell (i, s), which is
    often empty.  It runs where Light's certificate (`_light_certificate`)
    is not tried or fails; a failing certificate proves only that some
    triple fails, and this scan names the least one.
    """
    dim = len(mul)
    bases = [k * dim for k in range(dim)]
    rows = [None] * dim
    for i, row_i in enumerate(mul):
        for j, cell in enumerate(row_i):
            acc = {}
            for s, c in cell:
                terms = rows[s]
                if terms is None:
                    terms = rows[s] = _row_terms(mul[s], bases)
                for base, t, c2 in terms:
                    key = base + t
                    acc[key] = acc.get(key, 0) + c * c2
            terms = rows[j]
            if terms is None:
                terms = rows[j] = _row_terms(mul[j], bases)
            for base, s, c in terms:
                for t, c2 in row_i[s]:
                    acc[base + t] = acc.get(base + t, 0) - c * c2
            residue = field.canonical(acc.values())
            if any(residue):
                return i, j, min(key for key, x in zip(acc, residue) if x) // dim
    return None


def _row_terms(row, bases):
    """The nonzero terms of a table row as (k * dim, s, coeff), k in order,
    k * dim read from `bases`."""
    return [(base, s, c) for base, cell in zip(bases, row) for s, c in cell]


def _transpose(mul):
    """The comultiplication of the dual coalgebra of the table `mul`:
    comul[r] holding (i, j, coeff) for each (r, coeff) in mul[i][j].
    Visiting the cells in order (i, j) keeps each comul[r] sorted, and a
    normal table holds each r once per cell with a canonical nonzero
    coefficient, so comul is in the form `FinDimCoalgebra` stores."""
    comul = [[] for _ in mul]
    for i, row in enumerate(mul):
        for j, cell in enumerate(row):
            for r, c in cell:
                comul[r].append((i, j, c))
    return tuple(map(tuple, comul))


def _dual_table(comul):
    """The multiplication table of the dual algebra of `comul`, mul[i][j]
    holding (r, coeff) for each (i, j, coeff) in comul[r]: the inverse of
    `_transpose`.  Visiting r in order keeps each cell sorted by r, and a
    normalized comul holds each (i, j) once per r with a canonical nonzero
    coefficient, so the table is in the normal form of `FinDimAlgebra.mul`."""
    dim = len(comul)
    mul = [[()] * dim for _ in range(dim)]
    for r, terms in enumerate(comul):
        for i, j, cf in terms:
            mul[i][j] += ((r, cf),)
    return mul


def _light_certified(field: Field, mul, comul, unit):
    """(mul, comul, certified, S): whether Light's test proves the table
    `mul`, whose transpose is `comul` and whose unit law holds for `unit`,
    associative (a small generating set S is found and `_light_certificate`
    passes), with both tables (either may be given as None and is built
    only when needed, else returned as None) and S where it was found, else
    None.  Once the table is associative, S generates it whether or not the
    certificate was run on it.  The table and its transpose are read on
    fixed dual bases, so this one test serves an algebra and, through its
    dual algebra, a coalgebra whose counit laws hold.

    The test is tried from dim `_LIGHT_MIN_DIM` on, and then only where it
    can be the cheaper check, by a budget of dim^2 steps per generator.
    The per-r scan of the coassociativity laws of `comul` takes one step
    per term of Delta(b_i) or Delta(b_j) for each term b_i (x) b_j of each
    Delta(b_r); the steps are counted in O(nnz) on `comul`, and the same
    count is the algebra side's estimate of its full scan.  So S is looked
    for only when the steps exceed dim^2, and the search stops once S would
    need more than (steps - 1) // dim^2 indices, the most for which
    steps > dim^2 |S| still holds; the greedy picks do not depend on that
    cap, so it only stops a search whose S would not be used.  A diagonal
    table (2 steps per basis element) is never searched.
    """
    dim = len(comul if mul is None else mul)
    if dim < _LIGHT_MIN_DIM:
        return mul, comul, False, None
    with span("algebra.light_certified", dim=dim) as light:
        comul = _transpose(mul) if comul is None else comul
        sizes = [len(terms) for terms in comul]
        steps = sum(sizes[i] + sizes[j] for terms in comul for i, j, _ in terms)
        cap = (steps - 1) // (dim * dim) if steps > dim * dim else None
        if cap is not None and mul is None:
            mul = _dual_table(comul)
        gens = None if cap is None else _generating_set(field, mul, unit, cap)
        certified = gens is not None and _light_certificate(field, comul, gens)
        light["steps"], light["cap"], light["S"], light["certified"] = steps, cap, gens, certified
    return mul, comul, certified, gens


def _light_certificate(field: Field, comul, gens) -> bool:
    """Whether every associator [b^x, b^s, b^z] of the dual algebra of
    `comul` with s in `gens` is zero: a verdict, no witness.

    Light's test (Clifford-Preston, The Algebraic Theory of Semigroups I,
    1.2).  Write [x, y, z] = (x y) z - x (y z) and let M be the set of m with
    [x, m, y] = 0 for all x, y.  M is a subspace, since [x, y, z] is
    trilinear.  It is closed under products: for m, m' in M the Teichmueller
    identity, which holds in every algebra,
        [x m, m', y] - [x, m m', y] + [x, m, m' y] = x [m, m', y] + [x, m, m'] y,
    leaves [x, m m', y] = 0.  By the unit law it holds 1.  So if the basis
    indices S lie in M and the left-normed words 1 s_1 ... s_k span the
    algebra (`_generating_set`), then M is everything and the table is
    associative; if some s in S is not in M, the table is not associative.

    The associators are read off the comultiplication, the transpose of the
    table on the dual basis (`_transpose`): the b^r coefficient of
    [b^x, b^s, b^z] is the coefficient of b_x (x) b_s (x) b_z in
    (Delta (x) id) Delta(b_r) - (id (x) Delta) Delta(b_r), so the middle-S
    slices of the coassociativity laws vanish exactly when S lies in M.  A
    term b_i (x) b_j of Delta(b_r) meets only the terms of Delta(b_i) whose
    right factor is in S and those of Delta(b_j) whose left factor is in S,
    each listed once per index; one accumulator per r, keyed
    (x dim + s) dim + z, is reduced once.
    """
    dim = len(comul)
    square = dim * dim
    in_s = [False] * dim
    for s in gens:
        in_s[s] = True
    # Delta(b_i) (x) b_j: (x dim + s) dim, to which j is added
    right = [[((x * dim + s) * dim, cf) for x, s, cf in terms if in_s[s]] for terms in comul]
    # b_i (x) Delta(b_j): s dim + z, to which i dim^2 is added
    left = [[(s * dim + z, cf) for s, z, cf in terms if in_s[s]] for terms in comul]
    canonical = field.canonical
    for terms in comul:
        acc = {}
        for i, j, cf in terms:
            for base, cf2 in right[i]:
                key = base + j
                acc[key] = acc.get(key, 0) + cf * cf2
            base = i * square
            for offset, cf2 in left[j]:
                key = base + offset
                acc[key] = acc.get(key, 0) - cf * cf2
        if any(canonical(acc.values())):
            return False
    return True


def _generating_set(field: Field, mul, unit, most=None):
    """Basis indices S, picked greedily in order, whose left-normed words
    1 s_1 ... s_k span the space of the table `mul`; None once S would hold
    more than dim // `_LIGHT_MAX_SHARE` indices, or more than `most` where
    that is given and smaller (`_light_certified` passes its step budget).
    The picks do not depend on the cap, so a capped search finds the
    uncapped S, or None exactly when that S is too large.  Where the table
    is associative and unital, S generates it as an algebra: Light's
    certificate (`_light_certificate`) and `_generators` both read it so.

    V, the span of the words, is kept as a sparse echelon basis: each row a
    dict keyed by column, 1 at its least column (its pivot), at most one row
    per pivot.  V stays closed under right multiplication by S: each new row
    is multiplied by every s in S, and each new s by every row.  An index is
    picked when its basis vector is not in V; S is done when rank V = dim.
    """
    dim = len(mul)
    cap = dim // _LIGHT_MAX_SHARE if most is None else min(most, dim // _LIGHT_MAX_SHARE)
    one = field.one()
    rows = {}
    gens = []
    todo = []  # (row, s): products still to be taken

    def residue(vec):
        vec = _sparse(field, vec)
        while vec:
            lead = min(vec)
            row = rows.get(lead)
            if row is None:
                break
            c = vec[lead]
            for col, x in row.items():
                vec[col] = vec.get(col, 0) - c * x
            vec = _sparse(field, vec)
        return vec

    def add(vec):
        vec = residue(vec)
        if vec:
            lead = min(vec)
            inv = field.inv(vec[lead])
            row = _sparse(field, {col: inv * x for col, x in vec.items()})
            rows[lead] = row
            todo.extend((row, s) for s in gens)

    def close():
        while todo:
            row, s = todo.pop()
            prod = {}
            for i, x in row.items():
                for r, c in mul[i][s]:
                    prod[r] = prod.get(r, 0) + x * c
            add(prod)

    add(dict(enumerate(unit)))
    close()
    for b in range(dim):
        if len(rows) == dim:
            break
        if residue({b: one}):
            if len(gens) == cap:
                return None
            gens.append(b)
            todo.extend((row, b) for row in rows.values())
            close()
    return gens if len(rows) == dim else None


def _generators(a: FinDimAlgebra):
    """Basis indices whose products generate `a`: for a certified algebra a
    generating set S, chosen on first use and kept (the whole basis if
    `_generating_set` finds none); for any other, the whole basis.

    In an associative unital algebra the words in S span, so a subspace I
    is a two-sided ideal once s I and I s lie in I for every s in S, and z
    is central once it commutes with every s in S.
    """
    gens = a._gens
    if gens is None:
        return range(a.dim)
    if gens is True:
        gens = _generating_set(a.field, a.mul, a.unit)
        a._gens = gens = tuple(range(a.dim) if gens is None else gens)
    return gens


def _sparse(field: Field, vec: dict) -> dict:
    """vec with its values reduced (see `Field.canonical`) and zeros dropped."""
    return {k: x for k, x in zip(vec, field.canonical(vec.values())) if x}


def _associativity_witness(a: FinDimAlgebra, i: int, j: int, k: int):
    """First output index t at which (b_i b_j) b_k and b_i (b_j b_k) differ,
    in the order of the set of indices the two sparse products touch."""
    f = a.field
    zero = f.zero()
    lhs = {}
    for s, c in a.mul[i][j]:
        for t, c2 in a.mul[s][k]:
            lhs[t] = f.add(lhs.get(t, zero), f.mul(c, c2))
    rhs = {}
    for s, c in a.mul[j][k]:
        for t, c2 in a.mul[i][s]:
            rhs[t] = f.add(rhs.get(t, zero), f.mul(c, c2))
    return next(t for t in set(lhs) | set(rhs) if lhs.get(t, zero) != rhs.get(t, zero))


# ---------------------------------------------------------------------------
# ideals and quotients


def _basis_translates(a: FinDimAlgebra, v, indices=None):
    """(b_i v, v b_i) for each basis index i in `indices` (default all), in
    order, as dicts read off the table and not yet reduced (see
    `Field.canonical`)."""
    terms = [(j, x) for j, x in enumerate(v) if x]
    for i in range(a.dim) if indices is None else indices:
        row_i = a.mul[i]
        left = {}
        right = {}
        for j, x in terms:
            for r, c in row_i[j]:
                left[r] = left.get(r, 0) + c * x
            for r, c in a.mul[j][i]:
                right[r] = right.get(r, 0) + x * c
        yield left, right


def ideal_closure(a: FinDimAlgebra, generators) -> Subspace:
    """Two-sided ideal generated by the given coordinate vectors (saturation
    under multiplication by `_generators` on each side)."""
    f = a.field
    zero = f.zero()
    gens = _generators(a)
    rows = echelon_rows(f, [list(g) for g in generators])
    while True:
        new_rows = [list(r) for r in rows]
        for v in rows:
            for pair in _basis_translates(a, v, gens):
                new_rows += [f.canonical(w.get(r, zero) for r in range(a.dim)) for w in pair]
        next_rows = echelon_rows(f, new_rows)
        if len(next_rows) == len(rows):
            return Subspace(a, rows)
        rows = next_rows


def is_ideal(a: FinDimAlgebra, space: Subspace) -> bool:
    """Whether s I and I s lie in I for every s in `_generators`.

    A span of basis vectors b_t, t a pivot, is tested on the table cells:
    s b_t and b_t s are the cells (s, t) and (t, s), whose stored
    coefficients are all nonzero, so each lies in I exactly when every
    index it names is a pivot.  Any other I is tested on the residues of
    the translates of its rows."""
    gens = _generators(a)
    if space._basis_spanned():
        pivots, mul = space._tails, a.mul
        return all(r in pivots for s in gens for t in pivots
                   for cell in (mul[s][t], mul[t][s]) for r, _ in cell)
    return all(
        not space.residue(left) and not space.residue(right)
        for v in space.rows
        for left, right in _basis_translates(a, v, gens)
    )


def quotient_algebra(a: FinDimAlgebra, ideal: Subspace):
    """Quotient by a proper two-sided ideal, with the projection hom.  The
    quotient of a certified algebra is certified: the ideal was checked.
    The quotient by the zero ideal is `a` itself, with the identity hom; so
    is the zero ring's, whose one ideal holds its unit 0.

    The quotient has the non-pivot columns of the ideal as basis; each table
    cell, the unit and each basis vector of `a` is reduced sparsely (see
    `Subspace.residue`) and emitted as sorted (index, coeff) pairs.  Those
    cells are normal as they stand: the residue drops its zeros and
    `position` is increasing, so the table is not normalized again.
    """
    f = a.field
    if not is_ideal(a, ideal):
        raise NotAnIdealError("subspace is not closure-stable")
    if a.dim and ideal.contains(a.unit):
        raise ImproperIdealError("ideal contains the unit")
    if not ideal.dim:
        return a, AlgebraHom(a, a, Matrix.identity(f, a.dim))
    non_pivots = [j for j in range(a.dim) if j not in ideal._tails]
    position = {j: x for x, j in enumerate(non_pivots)}

    def reduce_coords(vec: dict):
        return tuple(sorted((position[j], c) for j, c in ideal.residue(vec).items()))

    m = len(non_pivots)
    mul = [[reduce_coords(dict(a.mul[j1][j2])) for j2 in non_pivots] for j1 in non_pivots]
    unit = [f.zero()] * m
    for x, c in reduce_coords(dict(enumerate(a.unit))):
        unit[x] = c
    labels = [a.labels[j] for j in non_pivots]
    quot = _from_normal_table(f, labels, mul, unit, None if a._gens is None else True)
    one = f.one()
    entries = [f.zero()] * (m * a.dim)
    for i in range(a.dim):
        for x, c in reduce_coords({i: one}):
            entries[x * a.dim + i] = c
    return quot, AlgebraHom(a, quot, Matrix(f, m, a.dim, entries))


def subspace_product(a: FinDimAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """The span of the products x y, x a row of u and y a row of v; only the
    nonzero products reach the RREF.

    Where u and v are both spanned by basis vectors, the products are the
    table cells (i, j), i a pivot of u and j one of v.  Otherwise each
    product is summed over the nonzero entries of its two rows."""
    f = a.field
    if u._basis_spanned() and v._basis_spanned():
        products = [cell for i in u._tails for row in (a.mul[i],) for j in v._tails if (cell := row[j])]
    else:
        products = _row_products(f, a.mul, u.rows, v.rows)
    zero = f.zero()
    dense_rows = []
    for terms in products:
        dense = [zero] * a.dim
        for r, coeff in terms:
            dense[r] = coeff
        dense_rows.append(dense)
    return Subspace(a, dense_rows)


def _row_products(field: Field, mul, u_rows, v_rows):
    """The nonzero products x y, x in `u_rows` and y in `v_rows`, as
    (r, coeff) pairs, each summed over the nonzero entries of its two rows."""
    v_terms = [[(j, y) for j, y in enumerate(row) if y] for row in v_rows]
    for x in u_rows:
        x_terms = [(i, mul[i], xi) for i, xi in enumerate(x) if xi]
        for y_terms in v_terms:
            acc = {}
            for i, row_i, xi in x_terms:
                for j, yj in y_terms:
                    c = xi * yj
                    for r, coeff in row_i[j]:
                        acc[r] = acc.get(r, 0) + c * coeff
            if acc and any(residue := field.canonical(acc.values())):
                yield tuple(zip(acc, residue))


# ---------------------------------------------------------------------------
# radical and semisimple structure


def _dual_degree(r: int, n: int) -> int:
    """The fiber index of the degree -deg b_r: x^i y^j -> x^(-i) y^(-j), the
    exponents mod n."""
    return -(r // n) % n * n + -r % n


def _components(degree):
    """Basis indices grouped by degree, each group in index order."""
    comps = {}
    for t, g in enumerate(degree):
        comps.setdefault(g, []).append(t)
    return comps


def _block_kernel(field, block, cols, dim: int):
    """The kernel of the matrix `block` (canonical rows, possibly none),
    whose columns stand for the basis indices `cols` in increasing order,
    as RREF rows of length `dim`, zero off `cols`: a small block per graded
    component, or all of a matrix."""
    if len(cols) == 1:  # as on every fiber: the kernel is all or nothing
        kernel = [] if any(row[0] for row in block) else [(field.one(),)]
    else:
        rows = echelon_rows(field, block)
        pivots = {next(k for k, x in enumerate(row) if x): row for row in rows}
        kernel = []
        for fc in range(len(cols)):
            if fc not in pivots:
                vec = [field.zero()] * len(cols)
                vec[fc] = field.one()
                for pc, row in pivots.items():
                    vec[pc] = field.neg(row[fc])
                kernel.append(vec)
        kernel = echelon_rows(field, kernel)
    if len(cols) == dim:  # one block: the rows are whole already
        return kernel
    out = []
    for row in kernel:
        vec = [field.zero()] * dim
        for t, x in zip(cols, row):
            vec[t] = x
        out.append(vec)
    return out


def _graded_radical(alg: FinDimAlgebra, n: int, degree) -> Subspace:
    """The trace-form kernel of an algebra graded by Z/n x Z/n, one block
    per component: `degree[t]` is the fiber index i n + j of the degree
    (i, j) of basis index t (t itself on a quantum-plane fiber, r for the
    jet index 3r + e), and degree 0 holds the unit; at n = 1 one block is T.

    For b homogeneous of nonzero degree, L_b shifts degree, so tau(b) = 0:
    tau is read off the table's diagonal on the degree-0 component only,
    {1} on a fiber and {1, u, v} on the jet.  Then T[s][t] = tau(b_s b_t)
    is nonzero only where deg s + deg t = 0, so ker T is the direct sum over
    the components g of the kernel of the block with rows in degree -g and
    columns in degree g: 1 x 1 on a fiber, where J is spanned by the b_t
    whose cell (t*, t) is empty, t* the index of degree -deg t, and 3 x 3
    on the jet.

    ker T is the radical J under the gates `_radical_trace_form` names:
    the census's p > n^2 = dim, and p coprime to 3n for the jet.
    """
    f = alg.field
    mul = alg.mul
    comps = _components(degree)
    zero = comps.get(0, ())  # the zero ring has no component
    diagonal = (sum(c for t, cell in enumerate(mul[r]) for rr, c in cell if rr == t) for r in zero)
    tau = dict(zip(zero, f.canonical(diagonal)))
    rows = []
    for g, cols in comps.items():
        block = []
        for s in comps.get(_dual_degree(g, n), ()):
            out = [f.zero()] * len(cols)
            for x, t in enumerate(cols):
                for r, c in mul[s][t]:
                    out[x] += c * tau[r]
            block.append(f.canonical(out))
        rows += _block_kernel(f, block, cols, alg.dim)
    return Subspace._from_disjoint_blocks(alg, rows)


def _radical_trace_form(a: FinDimAlgebra) -> Subspace:
    """Kernel of the trace form (x, y) -> trace(L_x L_y), read off the table
    once as T[i][j] = tau(b_i b_j): `_graded_radical` at the trivial grading.

    One kernel suffices on any table: for B a basis of ker T, T B^T = 0, so
    B T B^T = 0 and no further pass could shrink ker T.  ker T is the
    Jacobson radical J under the callers' gates (p > dim, or p coprime to 3n
    for the jet algebras): L_x L_y is nilpotent for x in J, and on A/J the
    form is sum m_i tr_(V_i)(x y) over the simple modules V_i, each
    multiplicity m_i nonzero mod p, so it is nondegenerate there (Q and
    GF(p) are perfect fields).
    """
    return _graded_radical(a, 1, [0] * a.dim)


def radical(a: FinDimAlgebra) -> Subspace:
    """Jacobson radical via the trace bilinear form; needs char 0 or p > dim."""
    char = a.field.characteristic()
    if char != 0 and char <= a.dim:
        raise CharacteristicTooSmallError(
            f"radical needs char 0 or p > dim; got p = {char}, dim = {a.dim}"
        )
    return _radical_trace_form(a)


def _graded_center(alg: FinDimAlgebra, n: int, degree, gens) -> Subspace:
    """The center of an algebra graded by Z/n x Z/n (`degree` as in
    `_graded_radical`) and generated by the homogeneous basis elements
    `gens`, one block per component.

    z commutes with b_s for s in `gens` exactly when each homogeneous part
    z_g does, since [z_g, b_s] lies in degree g + deg s; so the center is
    the direct sum over g of the kernel of the commutators of the degree-g
    basis elements with the generators.  Zero and repeated rows are dropped
    before the RREF; the row space, and so the kernel, is unchanged.
    """
    f = alg.field
    mul = alg.mul
    zero = f.zero()  # one object, so equal rows over Q compare by identity
    rows = []
    for cols in _components(degree).values():
        block = {}
        for s in gens:
            comm = {}
            for x, t in enumerate(cols):
                for r, c in mul[t][s]:
                    comm.setdefault(r, [zero] * len(cols))[x] += c
                for r, c in mul[s][t]:
                    comm.setdefault(r, [zero] * len(cols))[x] -= c
            for row in comm.values():
                row = tuple(f.canonical(row))
                if any(row):
                    block[row] = None
        rows += _block_kernel(f, block, cols, alg.dim)
    return Subspace._from_disjoint_blocks(alg, rows)


def center(a: FinDimAlgebra) -> Subspace:
    """Subspace of elements commuting with every j in `_generators`: the one
    block of `_graded_center` at the trivial grading."""
    return _graded_center(a, 1, [0] * a.dim, _generators(a))


def minimal_polynomial(a: FinDimAlgebra, vec) -> Poly:
    """Monic minimal polynomial of an element."""
    return _minimal_polynomial(a, vec, range(a.dim))


def _minimal_polynomial(a: FinDimAlgebra, vec, keep) -> Poly:
    """Monic minimal polynomial of the image of `vec` in the quotient of `a`
    by the span of the basis vectors outside `keep`, which the caller has
    checked to be an ideal: each power is read on the table of `a`, and
    reducing it modulo that ideal drops every coordinate outside `keep`.
    With every coordinate kept it is the minimal polynomial in `a`."""
    f = a.field
    keep = list(keep)
    vec = list(vec)

    def reduced(v):
        out = [f.zero()] * a.dim
        for k in keep:
            out[k] = v[k]
        return out

    cur = reduced(a.unit)
    powers = [[cur[k] for k in keep]]
    for _ in range(len(keep) + 1):
        cur = reduced(a.multiply(cur, vec))
        kept = [cur[k] for k in keep]
        sol = solve_linear(Matrix.from_rows(f, powers).transpose(), kept)
        if sol is not None:
            return Poly(f, [f.neg(c) for c in sol] + [f.one()])
        powers.append(kept)
    raise InvalidInputError("minimal polynomial search exceeded the dimension")


def _primitive_idempotents(a: FinDimAlgebra, rows):
    """Primitive idempotents of the commutative semisimple subalgebra S of `a`
    spanned by `rows` (S holds the unit), as vectors of `a`; no table for S
    is built.

    Over GF(p) the rows are first replaced by a basis of the Frobenius-fixed
    part {z in S : z^p = z}, the kernel of z -> z^p - z, which is linear in
    characteristic p.  It holds every idempotent of S, and the minimal
    polynomial of each of its elements divides t^p - t, so it is split.

    Starting from {1}, each row z refines every idempotent e into the nonzero
    e P_lam, one per root lam of the minimal polynomial of z, where
    P_lam = prod_{nu != lam} (z - nu) / (lam - nu) is the Lagrange projection:
    the P_lam are orthogonal idempotents summing to 1 with z P_lam = lam P_lam.

    Only two checks depend on the input: a minimal polynomial that is not a
    product of linear factors raises NotSplitError (S is not split over Q),
    and a repeated factor raises InvalidInputError (S is not semisimple).
    Once every row has passed both, no case is left in which the splitting
    fails, so there is no fallback: the final idempotents are orthogonal and
    sum to 1, and z e is a multiple of e for every row z, so each corner S e
    is k e.  Every e is then primitive, and any idempotent of S is the sum of
    the e it does not kill.
    """
    f = a.field
    if not any(a.unit):
        return []  # the zero ring: a zero unit gives no idempotent
    if isinstance(f, PrimeField):
        frob = Matrix.from_rows(f, [f.canonical(map(operator.sub, a.power(z, f.p), z)) for z in rows])
        ker = rref_kernel(frob.transpose()).kernel
        rows = (ker.transpose() @ Matrix.from_rows(f, rows)).row_lists()
    idems = [list(a.unit)]
    for z in rows:
        if len(idems) == len(rows):
            break  # the idempotents span S, which is then k x ... x k
        mu = minimal_polynomial(a, z)
        fac = factor_over_field(mu)
        if not fac.complete or any(g.degree() > 1 for g, _ in fac.factors):
            raise NotSplitError(f"minimal polynomial does not split: {mu!r}")
        if any(m > 1 for _, m in fac.factors):
            raise InvalidInputError("algebra is not semisimple (non-squarefree min poly)")
        roots = [f.neg(g.coeffs[0]) for g, _ in fac.factors]
        shifted = {nu: f.canonical(x - nu * u for x, u in zip(z, a.unit)) for nu in roots}
        projections = []
        for lam in roots:
            proj, denom = list(a.unit), f.one()
            for nu in roots:
                if nu != lam:
                    proj = a.multiply(proj, shifted[nu])
                    denom = f.mul(denom, f.sub(lam, nu))
            inv = f.inv(denom)
            projections.append(f.canonical(inv * x for x in proj))
        idems = [v for e in idems for pr in projections if any(v := a.multiply(e, pr))]
    return idems


def one_dim_characters(a: FinDimAlgebra):
    """All algebra maps a -> k, in deterministic order: by Wedderburn-Artin,
    one per simple factor k e of a/J of dimension 1, with b e = chi(b) e."""
    f = a.field
    semi, proj = quotient_algebra(a, radical(a))
    basis = [_basis_vec(f, semi.dim, i) for i in range(semi.dim)]
    composed = []
    for e, dim, _ in _simple_factors(semi, center(semi).rows):
        if dim == 1:
            # b e = chi(b) e, read at the first nonzero coordinate of e
            pivot = next(k for k, x in enumerate(e) if x)
            inv = f.inv(e[pivot])
            values = [f.mul(semi.multiply(b, e)[pivot], inv) for b in basis]
            composed.append(Character(a, (Matrix(f, 1, semi.dim, values) @ proj.matrix).entries))
    composed.sort(key=lambda ch: ch.values)
    for ch in composed:
        if not ch.is_valid():
            raise InvalidInputError("internal error: produced an invalid character")
    return composed


def semisimple_profile(a: FinDimAlgebra) -> SemisimpleProfile:
    """Radical dimension plus (dim, center-dim) of each simple factor."""
    rad = radical(a)
    semi = quotient_algebra(a, rad)[0]
    factors = _simple_factors(semi, center(semi).rows)
    return SemisimpleProfile(rad.dim, tuple(sorted(factor[1:] for factor in factors)))


def _simple_factors(semi: FinDimAlgebra, rows):
    """(e, dim semi e, dim Z e) for each primitive central idempotent e of a
    semisimple algebra whose center Z is spanned by `rows`: the simple factor
    semi e has dimension rank L_e, and Z e is spanned by the z e for z a
    row.  The e sum to 1, so a lone e is 1: then semi e = semi and Z e = Z,
    and no rank is taken.  Z is the product of the factors' centers, so a
    single row means semi is central simple, and no idempotent is sought."""
    f = semi.field
    if len(rows) == 1:
        return [(list(semi.unit), semi.dim, 1)]
    idems = _primitive_idempotents(semi, rows)
    if len(idems) == 1:
        return [(idems[0], semi.dim, len(rows))]
    return [
        (e, semi.left_mult_matrix(e).rank(), len(echelon_rows(f, [semi.multiply(z, e) for z in rows])))
        for e in idems
    ]
