"""The canonical Q scalar: an int when it is integral, a Fraction with
denominator greater than 1 otherwise.

Every public constructor, the decoder, both dualizations, the twisted
product's table, the quotient and Poly store that form, so integer tables
compute on int arithmetic; and no module divides scalars with ``/`` except
`Rationals.inv`, the one place a Fraction is made.
"""

import ast
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from test_algebra import algebras, small_scalars

import findual
from findual.algebra import (
    FinDimAlgebra,
    cyclic_group_algebra,
    diagonal_algebra,
    matrix_algebra,
    monogenic_algebra,
    quotient_algebra,
    radical,
    triangular_algebra,
    truncated_polynomial_algebra,
    validate_algebra,
)
from findual.codec import loads, to_canonical_json
from findual.coalgebra import (
    FinDimCoalgebra,
    Quiver,
    comatrix_coalgebra,
    divided_power_coalgebra,
    dualize_algebra,
    dualize_coalgebra,
    grouplike_coalgebra,
    line_dist_coalgebra,
    path_coalgebra,
    triangular_coalgebra,
)
from findual.kernel import QQ, Poly, factor_over_field
from findual.twist import raw_twisted_algebra, tensor_swap


def canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def stored_scalars(obj):
    """Every scalar an algebra, a coalgebra or a Poly stores."""
    if isinstance(obj, FinDimAlgebra):
        return [c for row in obj.mul for cell in row for _, c in cell] + list(obj.unit)
    if isinstance(obj, FinDimCoalgebra):
        return [c for triples in obj.comul for _, _, c in triples] + list(obj.counit)
    return list(obj.coeffs)


def assert_canonical(*objs):
    for obj in objs:
        bad = [x for x in stored_scalars(obj) if not canonical(x)]
        assert not bad, (obj, bad[:3])


# an integral value in forms a caller may hand in: int, Fraction(n) and an
# unreduced Fraction(kn, k); and non-integral values
@st.composite
def raw_scalars(draw):
    n = draw(st.integers(-3, 3))
    k = draw(st.sampled_from([1, 2, 3]))
    return draw(st.sampled_from([n, Fraction(n), Fraction(n * k, k), Fraction(n, k)]))


class TestStoredForm:
    def test_public_constructors(self):
        quiver = Quiver(3, [(0, 1), (1, 2)])
        assert_canonical(
            matrix_algebra(QQ, 3), triangular_algebra(QQ, 3), cyclic_group_algebra(QQ, 4),
            diagonal_algebra(QQ, 3), truncated_polynomial_algebra(QQ, 4),
            monogenic_algebra(QQ, Poly(QQ, [Fraction(1, 2), Fraction(3), Fraction(2, 2)])),
            comatrix_coalgebra(QQ, 3), triangular_coalgebra(QQ, 3), divided_power_coalgebra(QQ, 5),
            grouplike_coalgebra(QQ, 3), line_dist_coalgebra(QQ, {0: 2, Fraction(4, 2): 1}),
            path_coalgebra(QQ, quiver),
        )

    @settings(max_examples=60)
    @given(st.data())
    def test_tables_given_in_any_form(self, data):
        n = data.draw(st.integers(1, 3))
        cells = st.lists(raw_scalars(), min_size=n, max_size=n)
        mul = data.draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n))
        unit = data.draw(cells)
        labels = [f"b{i}" for i in range(n)]
        a = FinDimAlgebra(QQ, labels, mul, unit)
        sparse = FinDimAlgebra(QQ, labels, [[[(r, c) for r, c in enumerate(cell)] for cell in row]
                                            for row in mul], unit)
        comul = [[(i, j, mul[i][j][r]) for i in range(n) for j in range(n)] for r in range(n)]
        c = FinDimCoalgebra(QQ, labels, comul, unit)
        assert_canonical(a, sparse, c, loads(to_canonical_json(a)), loads(to_canonical_json(c)))
        assert repr(sparse.mul) == repr(a.mul)

    @settings(max_examples=40)
    @given(algebras(field=QQ), algebras(field=QQ))
    def test_duals_twists_and_quotients(self, a, b):
        # the rebased algebras hold non-integral constants and integral ones
        # computed through Fractions
        assert_canonical(a, b, raw_twisted_algebra(tensor_swap(a, b)))
        assert validate_algebra(a).ok
        c = dualize_algebra(a)
        assert_canonical(c, dualize_coalgebra(c), loads(to_canonical_json(c)))
        top, projection = quotient_algebra(a, radical(a))
        assert_canonical(top)
        assert all(canonical(x) for x in projection.matrix.entries)

    @settings(max_examples=60)
    @given(st.lists(small_scalars(QQ), min_size=1, max_size=5),
           st.lists(small_scalars(QQ, nonzero=True), min_size=1, max_size=4),
           st.lists(raw_scalars(), max_size=5))
    def test_poly(self, fs, gs, raw):
        f, g = Poly(QQ, fs), Poly(QQ, gs)
        quo, rem = (f * g + f).divmod(g)
        outs = [Poly(QQ, raw), f + g, f - g, f * g, f.scale(Fraction(3, 3)), quo, rem,
                f.derivative(), g.monic(), f.gcd(g)]
        if not f.is_zero():
            outs += [h for h, _ in factor_over_field(f * g).factors]
        assert_canonical(*outs)
        assert quo * g + rem == f * g + f


# ---------------------------------------------------------------------------
# An int divided with `/` is a float: scalars are divided by Field.div and
# Field.inv only, and the one ``/`` is Rationals.inv's.

SRC = Path(findual.__file__).parent
ALLOWED_DIVISIONS = {("kernel/fields.py", "Rationals.inv")}


def divisions(source: str):
    """(line, enclosing class.function) of each ``/`` or ``/=``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                found.append((child.lineno, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_no_division_outside_rationals_inv():
    found = [(str(path.relative_to(SRC)), line, scope)
             for path in sorted(SRC.rglob("*.py"))
             for line, scope in divisions(path.read_text())]
    assert [d for d in found if (d[0], d[2]) not in ALLOWED_DIVISIONS] == []
    assert {(d[0], d[2]) for d in found} == ALLOWED_DIVISIONS


def test_division_guard_reports_operators_and_scopes():
    source = ("x = 1 / 2\n"
              "class C:\n"
              "    def f(self, y):\n"
              "        y /= 3\n"
              "        return lambda: y // 2\n")
    assert divisions(source) == [(1, ""), (4, "C.f")]
