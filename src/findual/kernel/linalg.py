"""Dense exact matrices: reduced row echelon form and kernels.

Entries are scalars of an attached Field, stored row-major.  The composite
tensor index is row-major everywhere: the pair (i, j) on factors of dimensions
(da, db) maps to i*db + j.  This single convention is load-bearing for all
duality comparisons.

Reduction is lazy over GF(p): the kernels compute on plain ints with the
``+ - *`` operators and take ``% p`` once per output entry; over Q the same
operators act on ints and Fractions, and `Field.canonical` turns each
integral result back into an int.  There is one row reduction,
`_row_reduce` (behind `rref_kernel`, `echelon_rows` and `solve_linear`).
Membership in a row span is reduced sparsely in the algebra layer, by
`algebra.Subspace.residue`; the dense `reduce_against` remains behind
`in_row_span` and `coordinates_in_row_span`.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .fields import Field, PrimeField


class Matrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, field: Field, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(field, len(rows), ncols, flat)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return cls(field, rows, cols, [z] * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        ent = [z] * (n * n)
        for i in range(n):
            ent[i * n + i] = o
        return cls(field, n, n, ent)

    @classmethod
    def from_int_rows(cls, field: Field, rows) -> "Matrix":
        return cls.from_rows(field, [[field.of(x) for x in r] for r in rows])

    def get(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def col(self, j: int):
        return self.entries[j :: self.cols]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and all(x == y for x, y in zip(self.entries, other.entries))
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols} [{body}])"

    def is_zero(self) -> bool:
        z = self.field.zero()
        return all(x == z for x in self.entries)

    def __add__(self, other: "Matrix") -> "Matrix":
        entries = map(operator.add, self.entries, other.entries)
        return Matrix(self.field, self.rows, self.cols, self.field.canonical(entries))

    def __sub__(self, other: "Matrix") -> "Matrix":
        entries = map(operator.sub, self.entries, other.entries)
        return Matrix(self.field, self.rows, self.cols, self.field.canonical(entries))

    def scale(self, c) -> "Matrix":
        entries = (c * x for x in self.entries)
        return Matrix(self.field, self.rows, self.cols, self.field.canonical(entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = [other.col(j) for j in range(other.cols)]
        dot = self.field.dot
        out = [dot(self.row(i), c) for i in range(self.rows) for c in cols]
        return Matrix(self.field, self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix @ column vector, returned as a list."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return [self.field.dot(self.row(i), vec) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        ent = self.entries
        return Matrix(
            self.field, self.cols, self.rows,
            [x for j in range(self.cols) for x in ent[j :: self.cols]],
        )

    def rank(self) -> int:
        """The pivot count of one row reduction; no RREF or kernel matrix."""
        return len(_row_reduce(self.row_lists(), self.field)[1])

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


class RrefKernel(NamedTuple):
    rref: Matrix
    pivots: tuple
    rank: int
    kernel: Matrix  # columns span the null space, free-variable normal form


def _row_reduce(rows, field: Field):
    """RREF of a list of row lists; returns (rows, pivot columns).

    Columns left of the current pivot are already zero in the pivot row, so
    eliminations touch only the columns from the pivot on.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    p = field.p if isinstance(field, PrimeField) else None
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((rr for rr in range(r, nrows) if rows[rr][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        lead = prow[c]
        if lead != 1:
            inv = field.inv(lead)
            if p:
                prow[c:] = [inv * x % p for x in prow[c:]]
            else:
                prow[c:] = field.canonical(inv * x for x in prow[c:])
        tail = prow[c:]
        for rr in range(nrows):
            row = rows[rr]
            factor = row[c]
            if rr != r and factor:
                if p:
                    row[c:] = [(x - factor * y) % p for x, y in zip(row[c:], tail)]
                else:
                    row[c:] = field.canonical(x - factor * y for x, y in zip(row[c:], tail))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rref_kernel(m: Matrix) -> RrefKernel:
    """Unique RREF plus the canonical kernel basis of m."""
    f = m.field
    reduced, pivots = _row_reduce(m.row_lists(), f)
    rank = len(pivots)
    rref = Matrix.from_rows(f, reduced) if reduced else Matrix.zeros(f, 0, m.cols)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    z, o = f.zero(), f.one()
    cols = []
    for fc in free:
        vec = [z] * m.cols
        vec[fc] = o
        for i, pc in enumerate(pivots):
            vec[pc] = f.neg(reduced[i][fc])
        cols.append(vec)
    kernel = Matrix(f, m.cols, len(cols), [cols[j][i] for i in range(m.cols) for j in range(len(cols))])
    return RrefKernel(rref, tuple(pivots), rank, kernel)


def echelon_rows(field: Field, rows):
    """Canonical nonzero RREF rows spanning the same space; [] for empty input."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    reduced, pivots = _row_reduce(rows, field)
    return [tuple(reduced[i]) for i in range(len(pivots))]


def solve_linear(a: Matrix, b):
    """One solution x of a @ x = b, or None if inconsistent."""
    f = a.field
    aug = [list(a.row(i)) + [b[i]] for i in range(a.rows)]
    reduced, pivots = _row_reduce(aug, f)
    if any(p == a.cols for p in pivots):
        return None
    x = [f.zero()] * a.cols
    for i, pc in enumerate(pivots):
        x[pc] = reduced[i][a.cols]
    return x


def row_pivots(rows):
    """Pivot column of each nonzero echelon row."""
    return tuple(next(j for j, x in enumerate(row) if x) for row in rows)


def reduce_against(rows, pivots, vec, field: Field):
    """(residual, coords) of vec against fully reduced RREF rows.

    Every row is 1 at its own pivot and 0 at the others, so the coordinate
    on row i is vec[pivots[i]] and the residual is 0 on every pivot column;
    vec lies in the span exactly when the residual is zero.  Over GF(p) the
    residual is accumulated on plain ints and reduced once per entry.
    """
    coords = [vec[pc] for pc in pivots]
    residual = vec
    for c, row in zip(coords, rows):
        if c:
            residual = [x - c * y for x, y in zip(residual, row)]
    return field.canonical(residual), coords


def in_row_span(rows, vec, field: Field) -> bool:
    """Whether vec lies in the span of RREF rows."""
    return not any(reduce_against(rows, row_pivots(rows), vec, field)[0])


def coordinates_in_row_span(rows, vec, field: Field):
    """Coordinates of vec in the given RREF rows, or None if outside the span."""
    residual, coords = reduce_against(rows, row_pivots(rows), vec, field)
    return None if any(residual) else coords
