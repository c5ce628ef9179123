import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_algebra import (
    PROPERTY_FIELDS,
    algebras,
    character_values,
    generating_set_spy,
    large_algebras,
    light_cut,
    oracle_one_dim_characters,
    small_scalars,
    sparse_rebased_table,
)

from findual import algebra as algebra_module
from findual import coalgebra as coalgebra_module
from findual.cli import cli_run
from findual.algebra import (
    AlgebraHom,
    _first_failure,
    Subspace,
    cyclic_group_algebra,
    diagonal_algebra,
    FinDimAlgebra,
    matrix_algebra,
    one_dim_characters,
    quotient_algebra,
    radical,
    semisimple_profile,
    triangular_algebra,
    truncated_polynomial_algebra,
    validate_algebra,
)
from findual.coalgebra import (
    CoalgebraHom,
    CoradicalReport,
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
from findual.errors import (
    BadParamsError,
    CharacteristicTooSmallError,
    CyclicQuiverError,
    FindualError,
    InvalidInputError,
    NotACoalgebraMapError,
    NotInjectiveError,
    NotSplitError,
)
from findual.kernel import (
    GF,
    QQ,
    Matrix,
    echelon_rows,
    in_row_span,
    reduce_against,
    row_pivots,
    rref_kernel,
)
from findual.qplane import oq_truncation
from findual.twist import check_twisting_map, twist_corpus, twisted_product

F5 = GF(5)


class TestValidate:
    def test_comatrix_passes(self):
        assert validate_coalgebra(comatrix_coalgebra(F5, 2)).ok

    def test_perturbed_fails(self):
        c = comatrix_coalgebra(F5, 2)
        comul = [list(c.comul[r]) for r in range(c.dim)]
        i, j, cf = comul[1][0]
        comul[1][0] = (i, j, F5.add(cf, F5.one()))
        bad = FinDimCoalgebra(F5, c.labels, comul, c.counit)
        rep = validate_coalgebra(bad)
        assert not rep.ok

    def test_zero_counit_fails(self):
        c = comatrix_coalgebra(F5, 2)
        bad = FinDimCoalgebra(F5, c.labels, [list(t) for t in c.comul], [F5.zero()] * 4)
        rep = validate_coalgebra(bad)
        assert not rep.counital


class TestDualize:
    def test_m2_gives_comatrix(self):
        assert dualize_algebra(matrix_algebra(F5, 2)) == comatrix_coalgebra(F5, 2)

    def test_dual_numbers(self):
        c = dualize_algebra(truncated_polynomial_algebra(F5, 2, var="eps"))
        assert c.comul[1] == ((0, 1, 1), (1, 0, 1))
        assert c.counit == (1, 0)

    def test_group_algebra_dual(self):
        c = dualize_algebra(cyclic_group_algebra(F5, 2, var="g"))
        # mul table {1*1=1, 1*g=g, g*g=1} transposes to the stated coproduct
        assert c.comul[0] == ((0, 0, 1), (1, 1, 1))
        assert c.comul[1] == ((0, 1, 1), (1, 0, 1))

    def test_comatrix_dual_is_matrix_algebra(self):
        assert dualize_coalgebra(comatrix_coalgebra(F5, 2)) == matrix_algebra(F5, 2)

    def test_grouplike_dual_is_diagonal(self):
        kx = grouplike_coalgebra(F5, 3)
        assert dualize_coalgebra(kx).mul == diagonal_algebra(F5, 3).mul

    @pytest.mark.parametrize("alg", [
        matrix_algebra(F5, 2),
        matrix_algebra(QQ, 3),
        triangular_algebra(F5, 3),
        truncated_polynomial_algebra(F5, 4),
        cyclic_group_algebra(QQ, 5),
        diagonal_algebra(F5, 4),
    ])
    def test_round_trip_algebra(self, alg):
        assert dualize_coalgebra(dualize_algebra(alg)) == alg

    @pytest.mark.parametrize("coalg", [
        comatrix_coalgebra(F5, 2),
        triangular_coalgebra(QQ, 3),
        divided_power_coalgebra(F5, 5),
        grouplike_coalgebra(F5, 4),
        line_dist_coalgebra(F5, {0: 2, 1: 1}),
    ])
    def test_round_trip_coalgebra(self, coalg):
        assert dualize_algebra(dualize_coalgebra(coalg)) == coalg


class TestGrouplikes:
    def test_triangular(self):
        gl = grouplikes(triangular_coalgebra(F5, 2))
        assert gl == [(1, 0, 0), (0, 0, 1)] or gl == [(0, 0, 1), (1, 0, 0)]

    def test_grouplike_coalgebra(self):
        gl = grouplikes(grouplike_coalgebra(F5, 3))
        assert sorted(gl) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def test_comatrix_has_none(self):
        assert grouplikes(comatrix_coalgebra(F5, 2)) == []

    @pytest.mark.parametrize("coalg", [
        comatrix_coalgebra(F5, 2),
        triangular_coalgebra(F5, 2),
        grouplike_coalgebra(F5, 3),
        divided_power_coalgebra(F5, 4),
        line_dist_coalgebra(F5, {0: 2, 2: 2}),
        dualize_algebra(cyclic_group_algebra(F5, 4)),
    ])
    def test_agrees_with_bruteforce(self, coalg):
        assert sorted(grouplikes(coalg)) == sorted(grouplikes_bruteforce(coalg))

    def test_counit_one_and_independent(self):
        for coalg in [triangular_coalgebra(GF(7), 3), grouplike_coalgebra(GF(7), 5)]:
            f = coalg.field
            gl = grouplikes(coalg)
            for g in gl:
                assert coalg.counit_of_vector(g) == f.one()
            rows = echelon_rows(f, [list(g) for g in gl])
            assert len(rows) == len(gl)

    @settings(max_examples=60)
    @given(st.sampled_from([GF(5), GF(7)]).flatmap(lambda f: algebras(field=f)).filter(lambda a: a.dim <= 4))
    def test_dual_of_random_algebra_agrees_with_bruteforce(self, a):
        c = dualize_algebra(a)
        assert grouplikes(c) == grouplikes_bruteforce(c)

    @pytest.mark.parametrize("field", [GF(31), QQ], ids=["gf31", "rationals"])
    def test_named_coalgebras_match_commutator_ideal_oracle(self, field):
        for c in named_coalgebras(field):
            dual = dualize_coalgebra(c)
            want = character_values(oracle_one_dim_characters, dual)
            assert character_values(one_dim_characters, dual) == want
            assert want is NotSplitError or grouplikes(c) == want

    def test_bijection_with_characters(self):
        for alg in [cyclic_group_algebra(F5, 4), triangular_algebra(F5, 2), diagonal_algebra(F5, 3)]:
            chars = one_dim_characters(alg)
            gl = grouplikes(dualize_algebra(alg))
            assert sorted(ch.values for ch in chars) == sorted(gl)


class TestCoradical:
    def test_comatrix_cosemisimple(self):
        flt = coradical_filtration(comatrix_coalgebra(F5, 2))
        assert len(flt) == 1 and flt[0].dim == 4

    def test_divided_power_levels(self):
        m = 4
        flt = coradical_filtration(divided_power_coalgebra(F5, m))
        assert [lv.dim for lv in flt] == [1, 2, 3, 4]
        for i, lv in enumerate(flt):
            for k in range(i + 1):
                vec = [F5.zero()] * m
                vec[k] = F5.one()
                assert lv.contains(vec)

    def test_triangular_two_steps(self):
        flt = coradical_filtration(triangular_coalgebra(F5, 2))
        assert [lv.dim for lv in flt] == [2, 3]
        assert flt[0].contains([1, 0, 0]) and flt[0].contains([0, 0, 1])
        assert not flt[0].contains([0, 1, 0])

    def test_filtration_over_rationals(self):
        flt = coradical_filtration(divided_power_coalgebra(QQ, 5))
        assert [lv.dim for lv in flt] == [1, 2, 3, 4, 5]

    def test_grouplikes_inside_coradical(self):
        for coalg in [
            triangular_coalgebra(GF(7), 3),
            line_dist_coalgebra(F5, {0: 2, 1: 1}),
            dualize_algebra(cyclic_group_algebra(F5, 4)),
        ]:
            c0 = coradical(coalg)
            for g in grouplikes(coalg):
                assert c0.contains(list(g))

    def test_sweedler_filtration_property(self):
        for coalg in [
            triangular_coalgebra(GF(7), 3),
            divided_power_coalgebra(F5, 4),
            line_dist_coalgebra(F5, {0: 3}),
        ]:
            f = coalg.field
            flt = coradical_filtration(coalg)
            for n, lv in enumerate(flt):
                rows = []
                for i in range(n + 1):
                    j = n - i
                    ci = flt[min(i, len(flt) - 1)].rows
                    cj = flt[min(j, len(flt) - 1)].rows
                    for u in ci:
                        for v in cj:
                            rows.append([f.mul(a, b) for a in u for b in v])
                span = echelon_rows(f, rows)
                for v in lv.rows:
                    delta = coalg.delta_of_vector(list(v))
                    assert in_row_span(span, delta, f)


@st.composite
def quivers(draw):
    """A quiver on up to 7 vertices with up to 10 arrows, repeats allowed;
    acyclic (every arrow to a smaller vertex) or not."""
    vertices = draw(st.integers(1, 7))
    pairs = st.tuples(st.integers(0, vertices - 1), st.integers(0, vertices - 1))
    arrows = draw(st.lists(pairs, max_size=10))
    if draw(st.booleans()):
        arrows = [(max(a), min(a)) for a in arrows if a[0] != a[1]]
    return Quiver(vertices, arrows)


class TestPathCount:
    @settings(max_examples=150)
    @given(quivers())
    def test_matches_the_listed_paths(self, quiver):
        """The count is the path coalgebra's dim, or 0 for a cyclic quiver,
        whose path coalgebra is refused."""
        try:
            dim = path_coalgebra(F5, quiver).dim
        except CyclicQuiverError:
            dim = 0
        assert quiver.path_count() == dim

    def test_isolated_vertices_are_not_walked(self):
        assert Quiver(10 ** 12, [(1, 0)]).path_count() == 10 ** 12 + 1


def oracle_is_acyclic(quiver):
    """Kahn's sort with a scan of every arrow per freed vertex, O(V E):
    acyclic exactly when every vertex is freed of its incoming arrows."""
    indeg = [0] * quiver.vertices
    for _, t in quiver.arrows:
        indeg[t] += 1
    queue = [v for v in range(quiver.vertices) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for s, t in quiver.arrows:
            if s == v:
                indeg[t] -= 1
                if indeg[t] == 0:
                    queue.append(t)
    return seen == quiver.vertices


@st.composite
def loopy_quivers(draw):
    """A quiver on 0 to 7 vertices with up to 10 arrows: loops, parallel
    arrows and isolated vertices all allowed; half the time every arrow is
    turned to a smaller vertex and loops are dropped, so it is acyclic."""
    vertices = draw(st.integers(0, 7))
    if not vertices:
        return Quiver(0, [])
    pairs = st.tuples(st.integers(0, vertices - 1), st.integers(0, vertices - 1))
    arrows = draw(st.lists(pairs, max_size=10))
    arrows += draw(st.lists(st.sampled_from(arrows), max_size=3)) if arrows else []
    if draw(st.booleans()):
        arrows = [(max(a), min(a)) for a in arrows if a[0] != a[1]]
    return Quiver(vertices, draw(st.permutations(arrows)))


class TestAcyclic:
    @settings(max_examples=300)
    @given(loopy_quivers())
    def test_matches_the_quadratic_sort(self, quiver):
        """`is_acyclic` reads the shared topological order and agrees with
        the O(V E) sort; on an acyclic quiver `path_count` is the path
        coalgebra's dim."""
        acyclic = quiver.is_acyclic()
        assert acyclic == oracle_is_acyclic(quiver)
        if acyclic:
            assert quiver.path_count() == path_coalgebra(F5, quiver).dim

    @pytest.mark.parametrize("build", [
        lambda: Quiver(-3, []).path_count(),
        lambda: path_coalgebra(GF(5), Quiver(-3, [])),
    ], ids=["path_count", "path_coalgebra"])
    def test_negative_vertex_count_refused(self, build):
        with pytest.raises(BadParamsError, match="vertex count must be >= 0; got -3"):
            build()

    def test_negative_vertex_count_cli(self):
        """An arrow is checked first, so its line is the one printed."""
        out = io.StringIO()
        argv = ["construct", "--kind", "path", "--vertices", "-3", "--arrows", "1-0", "--p", "5"]
        assert cli_run(argv, stdout=out) == 3
        assert out.getvalue() == "error: arrow endpoint out of range\n"


class TestConstructors:
    def test_divided_power_table(self):
        c = divided_power_coalgebra(F5, 3)
        assert c.comul[2] == ((0, 2, 1), (1, 1, 1), (2, 0, 1))
        assert c.counit == (1, 0, 0)

    def test_path_a2_matches_triangular(self):
        q = Quiver(2, [(1, 0)])
        pc = path_coalgebra(F5, q)
        tc = triangular_coalgebra(F5, 2)
        assert pc.comul == tc.comul and pc.counit == tc.counit

    def test_path_a3_matches_triangular(self):
        q = Quiver(3, [(1, 0), (2, 1)])
        pc = path_coalgebra(QQ, q)
        tc = triangular_coalgebra(QQ, 3)
        assert pc.comul == tc.comul and pc.counit == tc.counit

    def test_path_multi_arrow(self):
        # Kronecker-style: two arrows between two vertices (still acyclic)
        q = Quiver(2, [(1, 0), (1, 0)])
        pc = path_coalgebra(F5, q)
        assert pc.dim == 4
        assert validate_coalgebra(pc).ok

    def test_cyclic_quiver_rejected(self):
        with pytest.raises(CyclicQuiverError):
            path_coalgebra(F5, Quiver(2, [(0, 1), (1, 0)]))

    def test_line_dist(self):
        c = line_dist_coalgebra(F5, {0: 2, 1: 1})
        assert c.dim == 3
        gl = grouplikes(c)
        assert len(gl) == 2
        assert validate_coalgebra(c).ok

    def test_all_constructors_validate(self):
        for c in [
            comatrix_coalgebra(QQ, 3),
            triangular_coalgebra(F5, 3),
            grouplike_coalgebra(QQ, 5),
            divided_power_coalgebra(QQ, 5),
            line_dist_coalgebra(QQ, [(0, 2), (1, 1), (2, 1)]),
            path_coalgebra(F5, Quiver(4, [(1, 0), (2, 1), (3, 2), (3, 0)])),
        ]:
            assert validate_coalgebra(c).ok


class TestCoradicalPreserved:
    def test_counterexample_t_to_e12(self):
        src = truncated_polynomial_algebra(F5, 3)
        tgt = matrix_algebra(F5, 2)
        cols = [list(tgt.unit), [0, 1, 0, 0], [0, 0, 0, 0]]
        mat = Matrix(F5, 4, 3, [cols[j][i] for i in range(4) for j in range(3)])
        hom = AlgebraHom(src, tgt, mat)
        assert hom.is_valid()
        rep = coradical_preserved(hom)
        assert not rep.preserved
        assert rep.witness is not None

    def test_identity_on_m2(self):
        m2 = matrix_algebra(F5, 2)
        hom = AlgebraHom(m2, m2, Matrix.identity(F5, 4))
        assert coradical_preserved(hom).preserved

    def test_commutative_semisimple_targets(self):
        t2 = triangular_algebra(F5, 2)
        # quotient by the radical: T2 -> k x k
        from findual.algebra import quotient_algebra, radical

        q, proj = quotient_algebra(t2, radical(t2))
        assert coradical_preserved(proj).preserved
        # a character of a group algebra
        g4 = cyclic_group_algebra(F5, 4)
        for ch in one_dim_characters(g4):
            hom = AlgebraHom(g4, diagonal_algebra(F5, 1), Matrix(F5, 1, 4, ch.values))
            assert hom.is_valid()
            assert coradical_preserved(hom).preserved

    def test_each_algebra_validated_once(self, monkeypatch):
        calls = {"_validate_algebra": 0, "validate_coalgebra": 0}
        for name in calls:
            def spy(x, name=name, real=getattr(coalgebra_module, name)):
                calls[name] += 1
                return real(x)
            monkeypatch.setattr(coalgebra_module, name, spy)
        src = truncated_polynomial_algebra(F5, 3)
        tgt = matrix_algebra(F5, 2)
        cols = [list(tgt.unit), [0, 1, 0, 0], [0, 0, 0, 0]]
        mat = Matrix(F5, 4, 3, [cols[j][i] for i in range(4) for j in range(3)])
        coradical_preserved(AlgebraHom(src, tgt, mat))
        assert calls == {"_validate_algebra": 2, "validate_coalgebra": 0}

    @settings(max_examples=100)
    @given(st.data())
    def test_matches_coradicals_of_the_duals(self, data):
        src = data.draw(st.booleans().flatmap(lambda bad: algebras(perturbed=bad)))
        tgt = data.draw(st.booleans().flatmap(lambda bad: algebras(perturbed=bad, field=src.field)))
        f = src.field
        ent = data.draw(st.lists(small_scalars(f), min_size=tgt.dim * src.dim, max_size=tgt.dim * src.dim))
        hom = AlgebraHom(src, tgt, Matrix(f, tgt.dim, src.dim, ent))
        assert report_or_error(coradical_preserved, hom) == report_or_error(oracle_coradical_preserved, hom)


def oracle_coradical_preserved(hom):
    """The composition that validated each algebra twice: the coradical of
    each dual, taken by dualizing it back."""
    src_dual = dualize_algebra(hom.source)
    tgt_dual = dualize_algebra(hom.target)
    corad_src = coradical(src_dual)
    corad_tgt = coradical(tgt_dual)
    transpose = hom.matrix.transpose()
    for v in corad_tgt.rows:
        image = transpose.apply(list(v))
        if not corad_src.contains(image):
            return CoradicalReport(False, tuple(image))
    return CoradicalReport(True, None)


def report_or_error(fn, hom):
    try:
        return fn(hom)
    except FindualError as exc:
        return type(exc)


GATED_ALGEBRA = triangular_algebra(GF(3), 3)  # dim 6 over GF(3): p <= dim
GATED_ARGS = {
    "algebra": GATED_ALGEBRA,
    "dual": dualize_algebra(GATED_ALGEBRA),
    "identity": AlgebraHom(GATED_ALGEBRA, GATED_ALGEBRA, Matrix.identity(GF(3), 6)),
}


@pytest.mark.parametrize("fn, arg", [
    (radical, "algebra"),
    (semisimple_profile, "algebra"),
    (one_dim_characters, "algebra"),
    (coradical, "dual"),
    (coradical_filtration, "dual"),
    (grouplikes, "dual"),
    (coradical_preserved, "identity"),
], ids=lambda x: getattr(x, "__name__", x))
def test_radical_gate_on_every_public_caller(fn, arg):
    with pytest.raises(CharacteristicTooSmallError):
        fn(GATED_ARGS[arg])


class TestTowers:
    def test_divided_power_chain(self):
        levels = [divided_power_coalgebra(F5, m) for m in (1, 2, 3)]
        tower = DualTower([levels[0]], [])
        tower = tower_extend(tower, levels[1], canonical_inclusion(levels[0], levels[1]))
        tower = tower_extend(tower, levels[2], canonical_inclusion(levels[1], levels[2]))
        assert [lv.dim for lv in tower.levels] == [1, 2, 3]

    def test_line_dist_chain(self):
        small = line_dist_coalgebra(F5, {0: 1})
        big = line_dist_coalgebra(F5, {0: 1, 1: 1})
        tower = DualTower([small], [])
        tower = tower_extend(tower, big, canonical_inclusion(small, big))
        assert tower.top.dim == 2

    def test_bad_inclusion_rejected(self):
        small = divided_power_coalgebra(F5, 2)
        big = divided_power_coalgebra(F5, 3)
        tower = DualTower([small], [])
        ent = [F5.zero()] * (3 * 2)
        ent[0] = F5.one()  # rank-1 map: not injective
        with pytest.raises(NotInjectiveError):
            tower_extend(tower, big, CoalgebraHom(small, big, Matrix(F5, 3, 2, ent)))
        # full-rank but not a coalgebra morphism
        ent = [F5.zero()] * (3 * 2)
        ent[0 * 2 + 0] = F5.one()
        ent[2 * 2 + 1] = F5.one()  # eps1 -> eps2
        with pytest.raises(NotACoalgebraMapError):
            tower_extend(tower, big, CoalgebraHom(small, big, Matrix(F5, 3, 2, ent)))

    def test_every_tower_is_checked(self):
        small = divided_power_coalgebra(F5, 2)
        big = divided_power_coalgebra(F5, 3)
        ent = [F5.zero()] * (3 * 2)
        ent[0] = F5.one()
        with pytest.raises(TypeError):
            DualTower([small, big], [canonical_inclusion(small, big)], validated=True)
        with pytest.raises(NotInjectiveError):
            DualTower([small, big], [CoalgebraHom(small, big, Matrix(F5, 3, 2, ent))])

    def test_levels_over_different_fields_rejected(self):
        small = divided_power_coalgebra(F5, 1)
        big = divided_power_coalgebra(GF(7), 2)
        with pytest.raises(BadParamsError):
            DualTower([small, big], [canonical_inclusion(small, big)])

    @pytest.mark.parametrize("other", [GF(7), QQ], ids=["gf7", "rationals"])
    def test_hom_matrix_over_other_field_rejected(self, other):
        c = divided_power_coalgebra(F5, 2)
        with pytest.raises(BadParamsError, match="share a field"):
            CoalgebraHom(c, c, Matrix(other, 2, 2, [1, 0, 0, 1]))

    def test_hom_classes_share_shape_check_apply_and_repr(self):
        """Both hom classes check the matrix shape, apply it and name
        themselves in their repr the same way."""
        small, big = divided_power_coalgebra(F5, 2), divided_power_coalgebra(F5, 3)
        inc = canonical_inclusion(small, big)
        assert (repr(inc), inc.apply((1, 2))) == ("CoalgebraHom(2 -> 3)", [1, 2, 0])
        a = diagonal_algebra(F5, 2)
        assert repr(AlgebraHom(a, a, Matrix.identity(F5, 2))) == "AlgebraHom(2 -> 2)"
        for hom, src in ((CoalgebraHom, small), (AlgebraHom, a)):
            with pytest.raises(BadParamsError, match="hom matrix shape mismatch"):
                hom(src, src, Matrix(F5, 3, 2, [1, 0, 0, 1, 0, 0]))


class TestEmbeddingFunctor:
    def test_set_maps_induce_coalgebra_homs(self):
        kx = grouplike_coalgebra(F5, 3)
        ky = grouplike_coalgebra(F5, 2)
        # the set map {0,1,2} -> {0,1}: 0,1 -> 0; 2 -> 1
        f = F5
        cols = [[1, 0], [1, 0], [0, 1]]
        mat = Matrix(f, 2, 3, [cols[j][i] for i in range(2) for j in range(3)])
        hom = CoalgebraHom(kx, ky, mat)
        assert hom.is_valid()
        assert sorted(grouplikes(kx)) == sorted(grouplikes_bruteforce(kx))

    def test_contravariance_of_transpose(self):
        a = cyclic_group_algebra(F5, 2)
        b = diagonal_algebra(F5, 2)
        k1 = diagonal_algebra(F5, 1)
        chars = one_dim_characters(a)
        fmat = Matrix(F5, 2, 2, [*chars[0].values, *chars[1].values])
        f = AlgebraHom(a, b, fmat)
        assert f.is_valid()
        g = AlgebraHom(b, k1, Matrix(F5, 1, 2, [1, 0]))
        assert g.is_valid()
        gf = g.compose(f)
        assert gf.matrix.transpose() == f.matrix.transpose() @ g.matrix.transpose()


class TestRepeatedComulTriples:
    def test_repeated_pairs_are_summed(self):
        assert FinDimCoalgebra(F5, ["a"], [[(0, 0, 1), (0, 0, 4)]], [1]).comul == ((),)
        twice = FinDimCoalgebra(F5, ["a"], [[(0, 0, 1), (0, 0, 1)]], [1])
        assert twice.comul == (((0, 0, 2),),)
        assert twice == FinDimCoalgebra(F5, ["a"], [[(0, 0, 2)]], [1])


class TestComulShapeIsChecked:
    """A comul with a row per label and every index in [0, dim) is stored;
    any other is refused with BadParamsError naming the first bad row or
    triple, before anything can index out of range or wrap."""

    def test_index_too_large(self):
        with pytest.raises(BadParamsError, match=r"comul\[0\] names basis indices \(0, 5\), not ints in \[0, 1\)"):
            FinDimCoalgebra(F5, ["a"], [[(0, 5, 1)]], [1])

    def test_negative_index(self):
        with pytest.raises(BadParamsError, match=r"comul\[1\] names basis indices \(-1, -1\)"):
            FinDimCoalgebra(F5, ["g0", "g1"], [[(0, 0, 1)], [(-1, -1, 1)]], [1, 1])

    def test_first_bad_triple_is_named(self):
        with pytest.raises(BadParamsError, match=r"comul\[1\] names basis indices \(2, 0\)"):
            FinDimCoalgebra(F5, ["a", "b"], [[(0, 0, 1)], [(1, 1, 1), (2, 0, 1), (0, 3, 1)]], [1, 1])

    def test_index_of_a_zero_sum_is_checked(self):
        with pytest.raises(BadParamsError, match=r"\(0, 1\), not ints"):
            FinDimCoalgebra(F5, ["a"], [[(0, 0, 1), (0, 1, 1), (0, 1, 4)]], [1])

    @pytest.mark.parametrize("bad", [True, 0.0, "0"])
    def test_index_that_is_not_an_int(self, bad):
        with pytest.raises(BadParamsError, match=rf"comul\[1\] names basis indices \(1, {bad!r}\), not ints"):
            FinDimCoalgebra(F5, ["a", "b"], [[(0, 0, 1)], [(1, bad, 1)]], [1, 1])

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_row_count(self, rows):
        comul = [[(r, r, 1)] for r in range(min(rows, 2))] + [[]] * (rows - 2)
        with pytest.raises(BadParamsError, match=f"comul has {rows} rows, expected 2"):
            FinDimCoalgebra(F5, ["a", "b"], comul, [1, 1])


# ---------------------------------------------------------------------------
# the per-scalar coalgebra checks that the lazy lhs - rhs checks replaced,
# kept as oracles


def oracle_validate_coalgebra(c):
    f = c.field
    zero = f.zero()
    witnesses = []
    coassoc = True
    for r in range(c.dim):
        lhs, rhs = {}, {}
        for i, j, cf in c.comul[r]:
            for x, y, cf2 in c.comul[i]:
                lhs[(x, y, j)] = f.add(lhs.get((x, y, j), zero), f.mul(cf, cf2))
            for x, y, cf2 in c.comul[j]:
                rhs[(i, x, y)] = f.add(rhs.get((i, x, y), zero), f.mul(cf, cf2))
        bad = [key for key in set(lhs) | set(rhs) if lhs.get(key, zero) != rhs.get(key, zero)]
        if bad:
            coassoc = False
            witnesses.append(("coassociativity", (r,) + bad[0]))
            break
    counital = True
    for r in range(c.dim):
        left = [zero] * c.dim
        right = [zero] * c.dim
        for i, j, cf in c.comul[r]:
            left[j] = f.add(left[j], f.mul(cf, c.counit[i]))
            right[i] = f.add(right[i], f.mul(cf, c.counit[j]))
        target = [f.one() if k == r else zero for k in range(c.dim)]
        if left != target or right != target:
            counital = False
            witnesses.append(("counit", (r,)))
            break
    return (coassoc, counital, tuple(witnesses))


def oracle_delta_of_vector(c, vec):
    f = c.field
    out = [f.zero()] * (c.dim * c.dim)
    for r, xr in enumerate(vec):
        for i, j, cf in c.comul[r]:
            out[i * c.dim + j] = f.add(out[i * c.dim + j], f.mul(xr, cf))
    return out


def oracle_hom_is_valid(hom):
    src, tgt = hom.source, hom.target
    f = src.field
    images = [[hom.matrix.get(x, r) for x in range(tgt.dim)] for r in range(src.dim)]
    for r in range(src.dim):
        counit = f.zero()
        for e, x in zip(tgt.counit, images[r]):
            counit = f.add(counit, f.mul(e, x))
        if counit != src.counit[r]:
            return False
        rhs = [f.zero()] * (tgt.dim * tgt.dim)
        for i, j, c in src.comul[r]:
            for x, fx in enumerate(images[i]):
                for y, fy in enumerate(images[j]):
                    k = x * tgt.dim + y
                    rhs[k] = f.add(rhs[k], f.mul(c, f.mul(fx, fy)))
        if oracle_delta_of_vector(tgt, images[r]) != rhs:
            return False
    return True


@st.composite
def coalgebras(draw, perturbed=False, field=None):
    """The dual of a random algebra under a random change of basis (see
    test_algebra.algebras); optionally one comul entry moved by a nonzero
    amount, so the table always changes, and, now and then, one counit entry
    changed."""
    c = dualize_algebra(draw(algebras(field=field)))
    if not perturbed:
        return c
    f = c.field
    r, i, j = (draw(st.integers(0, c.dim - 1)) for _ in range(3))
    old = next((cf for x, y, cf in c.comul[r] if (x, y) == (i, j)), f.zero())
    comul = [[t for t in c.comul[k] if k != r or t[:2] != (i, j)] for k in range(c.dim)]
    comul[r].append((i, j, f.add(old, draw(small_scalars(f, nonzero=True)))))
    counit = list(c.counit)
    if draw(st.integers(0, 4)) == 0:
        counit[draw(st.integers(0, c.dim - 1))] = draw(small_scalars(f))
    return FinDimCoalgebra(f, c.labels, comul, counit)


def split_algebra(n, p=101):
    """k^n over GF(p) on the basis 1, t, e_2, ..., e_(n-1), t = sum_i i e_i:
    generated by t alone, so Light's test needs the one index 1."""
    f = GF(p)

    def vec(k):
        return [1] * n if k == 0 else list(range(n)) if k == 1 else [int(i == k) for i in range(n)]

    def coords(v):
        a, b = v[0], v[1] - v[0]
        return [a, b] + [v[k] - a - k * b for k in range(2, n)]

    mul = [[coords([x * y for x, y in zip(vec(i), vec(j))]) for j in range(n)] for i in range(n)]
    return FinDimAlgebra(f, [f"b{k}" for k in range(n)], mul, coords([1] * n))


@st.composite
def counit_cases(draw):
    """A named coalgebra or the dual of a drawn algebra, its counit then
    given no, one or several nonzero coefficients, with up to two counit
    entries changed and up to two comul terms added, each at a pair (i, j)
    where eps(b_i) or eps(b_j) is nonzero when there is one, so that the
    counit laws of some r can fail."""
    f = draw(st.sampled_from(PROPERTY_FIELDS))
    c = draw(st.sampled_from([
        lambda: comatrix_coalgebra(f, draw(st.integers(1, 3))),
        lambda: divided_power_coalgebra(f, draw(st.integers(1, 8))),
        lambda: grouplike_coalgebra(f, draw(st.integers(1, 4))),
        lambda: triangular_coalgebra(f, draw(st.integers(1, 3))),
        lambda: line_dist_coalgebra(f, {0: 2, 1: 3}),
        lambda: dualize_algebra(draw(algebras(field=f))),
    ]))()
    dim = c.dim
    counit = list(c.counit)
    shape = draw(st.sampled_from(["as built", "none", "one", "several"]))
    if shape != "as built":
        support = {"none": set(), "one": {draw(st.integers(0, dim - 1))},
                   "several": draw(st.sets(st.integers(0, dim - 1), min_size=min(2, dim)))}[shape]
        counit = [counit[k] or draw(small_scalars(f, nonzero=True)) if k in support else f.zero()
                  for k in range(dim)]
    for _ in range(draw(st.integers(0, 2))):
        counit[draw(st.integers(0, dim - 1))] = draw(small_scalars(f))
    comul = [list(terms) for terms in c.comul]
    nonzero = [k for k, e in enumerate(counit) if e] or list(range(dim))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.sampled_from(nonzero)), draw(st.integers(0, dim - 1))
        if draw(st.booleans()):
            i, j = j, i
        comul[draw(st.integers(0, dim - 1))].append((i, j, draw(small_scalars(f, nonzero=True))))
    return FinDimCoalgebra(f, c.labels, comul, counit)


def transposed_coalgebra(a, extra=()):
    """The coalgebra whose comul is the transposed table of `a`, plus the
    (r, i, j, coeff) terms in `extra`, and whose counit is a's unit."""
    comul = [[] for _ in range(a.dim)]
    for i, row in enumerate(a.mul):
        for j, cell in enumerate(row):
            for r, cf in cell:
                comul[r].append((i, j, cf))
    for r, i, j, cf in extra:
        comul[r].append((i, j, cf))
    return FinDimCoalgebra(a.field, a.labels, comul, a.unit)


class TestLawChecksAgainstOracles:
    @settings(max_examples=200)
    @given(st.booleans().flatmap(lambda bad: coalgebras(perturbed=bad)))
    def test_validate_verdict_and_witness(self, c):
        assert tuple(validate_coalgebra(c)) == oracle_validate_coalgebra(c)

    @settings(max_examples=200)
    @given(st.booleans().flatmap(lambda bad: coalgebras(perturbed=bad)))
    def test_validate_verdict_and_witness_by_light_test(self, c):
        with light_cut(0):
            assert tuple(validate_coalgebra(c)) == oracle_validate_coalgebra(c)

    @settings(max_examples=80)
    @given(large_algebras())
    def test_large_transposed_tables_match_full_scan(self, a):
        """The coalgebra whose comul is the transposed table of a drawn
        algebra, valid or not, and whose counit is its unit."""
        c = transposed_coalgebra(a)
        assert tuple(validate_coalgebra(c)) == oracle_validate_coalgebra(c)

    @pytest.mark.parametrize("x,caps,gens", [
        # 2,592 per-r steps, at most 36^2 * 2: a search capped at 1 index,
        # which M_6 (11 generators uncapped) exceeds, then the per-r scan
        (comatrix_coalgebra(GF(31), 6), [1], None),
        # 660 per-r steps, under 36^2: no generating set is looked for
        (triangular_coalgebra(GF(31), 8), [], None),
        # 28,800 per-r steps, at most 64^2 * 8: a search capped at 7
        # indices finds 2, and Light's test certifies
        (dualize_algebra(oq_truncation(4, 17, "box", (8, 8)).algebra), [7], [1, 8]),
        # 1,266 per-r steps, at most 27^2 * 2: a cap of 1 index does not
        # rule Light's test out, since t alone generates k^27
        (dualize_algebra(split_algebra(27)), [1], [1]),
        # the algebra side counts the same steps on its transposed table
        (matrix_algebra(GF(31), 6), [1], None),
        (triangular_algebra(GF(31), 8), [], None),
        (oq_truncation(4, 17, "box", (8, 8)).algebra, [7], [1, 8]),
        # 800 steps, under 400^2: a diagonal table is never searched
        (diagonal_algebra(GF(5), 400), [], None),
    ], ids=["comatrix-6", "triangular-8", "box-8x8-dual", "split-27-dual",
            "matrix-6", "triangular-algebra-8", "box-8x8", "diagonal-400"])
    def test_cheaper_scan_is_chosen(self, x, caps, gens):
        """One Light's test for both sides: the search capped by the step
        budget, the certificate where S is found, and otherwise the full
        scan (the per-r laws through `_first_failure`, or the algebra's
        `_first_non_associative_triple`)."""
        coalgebra = isinstance(x, FinDimCoalgebra)
        full_scan = (coalgebra_module, "_first_failure") if coalgebra else \
            (algebra_module, "_first_non_associative_triple")
        real = algebra_module._light_certificate
        with mock.patch.object(algebra_module, "_light_certificate", wraps=real) as certificate, \
                mock.patch.object(*full_scan, wraps=getattr(*full_scan)) as scan, \
                generating_set_spy() as search:
            if coalgebra:
                report, _, found = coalgebra_module._validate_coalgebra(x)
            else:
                report, _ = algebra_module._validate_algebra(x)
                found = None if x._gens is True else list(x._gens)
        assert report.ok and found == gens
        assert [call.args[3] for call in search.call_args_list] == caps
        # the counit laws run in one pass of their own, not through
        # `_first_failure`; then the full scan unless Light's test certified
        assert (certificate.call_count, scan.call_count) == ((1, 0) if gens else (0, 1))

    def test_grouplike_800_round_trip_searches_nothing(self, tmp_path):
        """The dual of the dim-800 grouplike coalgebra is k^800, whose
        transposed table takes 1,600 steps, under 800^2: `dualize` back runs
        the full scan, looks for no generating set and gives back the first
        document's bytes."""
        def run(*argv):
            out = io.StringIO()
            assert cli_run(list(argv), stdout=out) == 0
            return out.getvalue()

        first, dual = tmp_path / "first.json", tmp_path / "dual.json"
        first.write_text(run("construct", "--kind", "grouplike", "--p", "5", "--n", "800"))
        with generating_set_spy() as search:
            dual.write_text(run("dualize", "--in", str(first)))
            assert run("dualize", "--in", str(dual)) == first.read_text()
        assert search.call_count == 0

    @settings(max_examples=150)
    @given(counit_cases())
    def test_counit_laws_verdict_and_witness(self, c):
        assert tuple(validate_coalgebra(c)) == oracle_validate_coalgebra(c)
        with light_cut(0):
            assert tuple(validate_coalgebra(c)) == oracle_validate_coalgebra(c)

    @given(st.data())
    def test_delta_of_vector_matches_per_scalar_sum(self, data):
        c = data.draw(st.booleans().flatmap(lambda bad: coalgebras(perturbed=bad)))
        vec = data.draw(st.lists(small_scalars(c.field), min_size=c.dim, max_size=c.dim))
        assert c.delta_of_vector(vec) == oracle_delta_of_vector(c, vec)

    @settings(max_examples=50)
    @given(st.data())
    def test_hom_validity_matches_per_scalar_check(self, data):
        src = data.draw(coalgebras())
        # a hom's matrix, source and target share a field (see
        # test_hom_matrix_over_other_field_rejected)
        tgt = data.draw(st.sampled_from([src, data.draw(coalgebras(perturbed=True, field=src.field))]))
        f = src.field
        ent = [f.one() if i == j else f.zero() for i in range(tgt.dim) for j in range(src.dim)]
        if data.draw(st.booleans()):
            ent[data.draw(st.integers(0, len(ent) - 1))] = data.draw(small_scalars(f))
        hom = CoalgebraHom(src, tgt, Matrix(f, tgt.dim, src.dim, ent))
        assert hom.is_valid() == oracle_hom_is_valid(hom)

    @settings(max_examples=50)
    @given(coalgebras())
    def test_dualization_is_an_involution(self, c):
        assert validate_coalgebra(c).ok
        assert dualize_algebra(dualize_coalgebra(c)) == c


def light_set(c):
    return algebra_module._generating_set(c.field, algebra_module._dual_table(c.comul), c.counit)


@st.composite
def light_cases(draw):
    """(c, S): the coalgebra on the transposed table of a quantum-plane box
    over GF(p), or of k[t]/(t^m) over GF(2/3/5/7) or Q, of dim 16 to 40,
    under a sparse change of basis (see `sparse_rebased_table`), and the
    generating set Light's test finds on its dual table, or None.  Then,
    where S is found, one term b_i (x) b_j may be added to some Delta(b_r):
    anywhere, or with neither i nor j in S, and S is looked for again.  The
    associators the latter term changes first, [b^i, b^j, .] and
    [., b^i, b^j], have their middle index outside S."""
    f = draw(st.sampled_from([None, *PROPERTY_FIELDS]))
    if f is None:
        n, p, rows = draw(st.sampled_from([(2, 5, 4), (3, 13, 4), (3, 13, 5), (4, 17, 6)]))
        base = oq_truncation(n, p, "box", (rows, draw(st.integers(-(-16 // rows), 6)))).algebra
        f = base.field
    else:
        base = truncated_polynomial_algebra(f, draw(st.integers(16, 40)))
    dim = base.dim
    x, y = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
    mul, unit = sparse_rebased_table(base, draw(st.permutations(range(dim))), x, y, draw(small_scalars(f)))
    a = FinDimAlgebra(f, base.labels, mul, unit)
    c = transposed_coalgebra(a)
    gens = light_set(c)
    where = draw(st.sampled_from(["nowhere", "anywhere", "outside S", "outside S"]))
    if gens is not None and where != "nowhere":
        index = st.integers(0, dim - 1)
        if where == "outside S":
            index = st.sampled_from([k for k in range(dim) if k not in gens])
        term = (draw(st.integers(0, dim - 1)), draw(index), draw(index), draw(small_scalars(f, nonzero=True)))
        c = transposed_coalgebra(a, [term])
        gens = light_set(c)
    return c, gens


class CountedScalar(int):
    """An int that counts its products with other counted ints."""

    products = 0

    def __mul__(self, other):
        if isinstance(other, CountedScalar):
            CountedScalar.products += 1
        return int(self) * int(other)


class TestLightCertificate:
    """`_light_certificate` reads Light's test off the comultiplication: the
    laws' terms whose middle index is in S."""

    @settings(max_examples=100, deadline=None)
    @given(light_cases())
    def test_verdict_matches_oracle(self, case):
        """Where the counit laws hold and S is found, the certificate passes
        exactly when c is coassociative; a failure planted with its middle
        index outside S shows in some middle-S slice, as Light's theorem
        says it must."""
        c, gens = case
        coassociative, counital, _ = oracle_validate_coalgebra(c)
        if counital and gens is not None:
            assert algebra_module._light_certificate(c.field, c.comul, gens) == coassociative

    def test_box_12_products(self):
        """On the box(12, 12) dual, S = {x, y} = {1, 12}; the certificate
        takes one product per term of Delta(b_i) with right factor in S and
        per term of Delta(b_j) with left factor in S, for each term
        b_i (x) b_j of each Delta(b_r): 20,592 products over 6,084 terms.
        The dual table comes without row term lists, and the validation
        builds none."""
        c = dualize_algebra(oq_truncation(3, 13, "box", (12, 12)).algebra)
        assert sum(map(len, c.comul)) == 6084
        mul = algebra_module._dual_table(c.comul)
        assert len(mul) == 144 and all(len(row) == 144 and all(type(cell) is tuple for cell in row)
                                        for row in mul)
        with mock.patch.object(algebra_module, "_row_terms", wraps=algebra_module._row_terms) as rows:
            report, _, gens = coalgebra_module._validate_coalgebra(c)
        assert report.ok and gens == [1, 12] and rows.call_count == 0
        counted = tuple(tuple((i, j, CountedScalar(cf)) for i, j, cf in terms) for terms in c.comul)
        CountedScalar.products = 0
        assert algebra_module._light_certificate(c.field, counted, gens)
        assert CountedScalar.products == 20592


# ---------------------------------------------------------------------------
# the wedge recursion that the radical powers replaced, kept as an oracle


def oracle_coradical_filtration(c):
    """C_0 = coradical(c) and C_k = Delta^-1(C (x) C_(k-1) + C_0 (x) C), the
    preimage of a dense wedge on the tensor square, until C_k = c."""
    f = c.field
    n2 = c.dim * c.dim
    basis = [[f.one() if i == j else f.zero() for j in range(c.dim)] for i in range(c.dim)]

    def tensor(u, v):
        return [f.mul(a, b) for a in u for b in v]

    levels = [coradical(c)]
    while levels[-1].dim < c.dim:
        prev = levels[-1]
        wedge = echelon_rows(f, [tensor(e, v) for e in basis for v in prev.rows]
                             + [tensor(g, e) for g in levels[0].rows for e in basis])
        pivots = row_pivots(wedge)
        residuals = [reduce_against(wedge, pivots, c.delta_of_vector(e), f)[0] for e in basis]
        mat = Matrix(f, n2, c.dim, [residuals[r][k] for k in range(n2) for r in range(c.dim)])
        nxt = Subspace(c, rref_kernel(mat).kernel.transpose().row_lists())
        if nxt.dim <= prev.dim:
            raise InvalidInputError("coradical filtration failed to grow")
        levels.append(nxt)
    return levels


def filtration_rows(fn, c):
    """The rows of every level, or the class of the error raised."""
    try:
        return [lv.rows for lv in fn(c)]
    except FindualError as exc:
        return type(exc)


def named_coalgebras(field):
    """Named constructors and duals whose dimension stays below 31."""
    out = [triangular_coalgebra(field, n) for n in range(1, 6)]
    out += [divided_power_coalgebra(field, m) for m in range(1, 12)]
    out += [
        line_dist_coalgebra(field, {0: 3, 1: 2, 2: 1}),
        comatrix_coalgebra(field, 2),
        comatrix_coalgebra(field, 3),
        grouplike_coalgebra(field, 3),
        path_coalgebra(field, Quiver(3, [(1, 0), (2, 1)])),
        path_coalgebra(field, Quiver(5, [(1, 0), (2, 1), (3, 2), (4, 3)])),
        path_coalgebra(field, Quiver(4, [(0, 1), (0, 2), (3, 0)])),
        path_coalgebra(field, Quiver(2, [(1, 0), (1, 0)])),
    ]
    out += [dualize_algebra(triangular_algebra(field, n)) for n in range(2, 5)]
    out += [dualize_algebra(twisted_product(rho))
            for rho in twist_corpus(field, 3, 25) if check_twisting_map(rho).ok]
    return out


QPLANE_DUALS = [
    dualize_algebra(oq_truncation(n, p, kind, params).algebra)
    for n, p, kind, params in [
        (2, 5, "box", (2, 2)),
        (2, 5, "central_fiber", (1, 0)),
        (3, 13, "box", (2, 3)),
        (3, 13, "central_fiber", (1, 1)),
        (3, 13, "central_fiber", (0, 0)),
    ]
]


class TestFiltrationAgainstWedgeOracle:
    @pytest.mark.parametrize("field", [GF(31), QQ], ids=["gf31", "rationals"])
    def test_named_coalgebras(self, field):
        corpus = named_coalgebras(field)
        for c in corpus:
            want = oracle_coradical_filtration(c)
            assert filtration_rows(coradical_filtration, c) == [lv.rows for lv in want]
        assert len(corpus) > 25

    def test_quantum_plane_duals(self):
        for c in QPLANE_DUALS:
            assert filtration_rows(coradical_filtration, c) == [
                lv.rows for lv in oracle_coradical_filtration(c)]

    @pytest.mark.parametrize("c", [
        triangular_coalgebra(GF(5), 3),
        divided_power_coalgebra(GF(3), 4),
        comatrix_coalgebra(GF(3), 2),
        line_dist_coalgebra(GF(5), {0: 3, 1: 2}),
        path_coalgebra(GF(2), Quiver(2, [(1, 0)])),
    ], ids=["triangular3-gf5", "divided4-gf3", "comatrix2-gf3", "linedist-gf5", "a2-gf2"])
    def test_small_characteristic_refused_on_both_sides(self, c):
        assert c.dim >= c.field.p
        assert filtration_rows(coradical_filtration, c) is CharacteristicTooSmallError
        assert filtration_rows(oracle_coradical_filtration, c) is CharacteristicTooSmallError

    @settings(max_examples=150)
    @given(st.data())
    def test_random_coalgebras(self, data):
        perturbed = data.draw(st.booleans())
        c = data.draw(coalgebras(perturbed=perturbed))
        got = filtration_rows(coradical_filtration, c)
        assert got == filtration_rows(oracle_coradical_filtration, c)
        # a perturbation moves one comul entry, which need not break a law
        if perturbed and not validate_coalgebra(c).ok:
            assert got is InvalidInputError


# ---------------------------------------------------------------------------
# The brute-force grouplike search that compares Delta(x) and x (x) x one
# coordinate at a time, against the body it replaced, which built both dense
# dim^2 vectors for every x.


def oracle_grouplikes_bruteforce(c):
    f = c.field
    p = f.p
    out = []
    for code in range(1, p ** c.dim):
        vec = []
        x = code
        for _ in range(c.dim):
            vec.append(x % p)
            x //= p
        delta = c.delta_of_vector(vec)
        tensor = [f.mul(a, b) for a in vec for b in vec]
        if delta == tensor:
            out.append(tuple(vec))
    out.sort()
    return out


def small_named_coalgebras(field):
    """The named constructors and duals of dim <= 4 over `field`."""
    out = [c for c in named_coalgebras(field) if c.dim <= 4]
    out += [grouplike_coalgebra(field, n) for n in range(1, 5)]
    out += [line_dist_coalgebra(field, {0: 2, 1: 1}), path_coalgebra(field, Quiver(2, [(1, 0)]))]
    out += [dualize_algebra(a) for a in (cyclic_group_algebra(field, 4), diagonal_algebra(field, 3),
                                         matrix_algebra(field, 2), truncated_polynomial_algebra(field, 4))]
    out.append(dualize_algebra(oq_truncation(2, 5, "box", (2, 2)).algebra) if field.p == 5
               else comatrix_coalgebra(field, 2))
    return out


class TestGrouplikesBruteforce:
    @pytest.mark.parametrize("field", [GF(3), GF(5)], ids=["gf3", "gf5"])
    def test_named_coalgebras(self, field):
        corpus = small_named_coalgebras(field)
        assert len(corpus) > 20
        for c in corpus:
            assert grouplikes_bruteforce(c) == oracle_grouplikes_bruteforce(c)

    @settings(max_examples=80)
    @given(st.sampled_from([GF(3), GF(5)]).flatmap(
        lambda f: coalgebras(perturbed=True, field=f).filter(lambda c: c.dim <= 4)))
    def test_perturbed_comultiplications(self, c):
        assert grouplikes_bruteforce(c) == oracle_grouplikes_bruteforce(c)

    def test_dim_bound(self):
        """Dim 4 is enumerated and dim 5 refused."""
        four = grouplike_coalgebra(GF(3), 4)
        assert grouplikes_bruteforce(four) == oracle_grouplikes_bruteforce(four)
        with pytest.raises(BadParamsError, match="dimension 5 too large for brute force"):
            grouplikes_bruteforce(grouplike_coalgebra(GF(3), 5))


# ---------------------------------------------------------------------------
# Dualization stores the transposed table as it stands: both duals equal the
# ones the normalizing constructors build from the same transposition, and a
# certified algebra is not validated again.


def normalized_dual_coalgebra(a):
    comul = [[] for _ in range(a.dim)]
    for i, row in enumerate(a.mul):
        for j, cell in enumerate(row):
            for r, c in cell:
                comul[r].append((i, j, c))
    return FinDimCoalgebra(a.field, a.labels, comul, a.unit)


def normalized_dual_algebra(c):
    mul = [[[] for _ in range(c.dim)] for _ in range(c.dim)]
    for r, triples in enumerate(c.comul):
        for i, j, cf in triples:
            mul[i][j].append((r, cf))
    return FinDimAlgebra(c.field, c.labels, mul, c.counit)


def algebra_zoo(field):
    out = [matrix_algebra(field, d) for d in (1, 2, 3)]
    out += [triangular_algebra(field, n) for n in (2, 3, 4)]
    out += [truncated_polynomial_algebra(field, n) for n in (1, 3, 5)]
    out += [cyclic_group_algebra(field, m) for m in (2, 3, 4)]
    out += [diagonal_algebra(field, 3)]
    out += [twisted_product(rho) for rho in twist_corpus(field, 3, 25) if check_twisting_map(rho).ok]
    if field.characteristic():
        out += [oq_truncation(2, 5, "box", (3, 3)).algebra, oq_truncation(2, 5, "central_fiber", (2, 3)).algebra]
    return out


class TestNormalDuals:
    @pytest.mark.parametrize("field", [F5, QQ], ids=["gf5", "rationals"])
    def test_duals_match_normalizing_constructors(self, field):
        for a in algebra_zoo(field):
            got = dualize_algebra(a)
            want = normalized_dual_coalgebra(a)
            assert got == want and repr((got.comul, got.counit)) == repr((want.comul, want.counit))
        for c in named_coalgebras(field) + [dualize_algebra(a) for a in algebra_zoo(field)]:
            got = dualize_coalgebra(c)
            want = normalized_dual_algebra(c)
            assert got == want and repr((got.mul, got.unit)) == repr((want.mul, want.unit))

    @pytest.mark.parametrize("field", [F5, QQ], ids=["gf5", "rationals"])
    def test_dual_algebra_carries_the_validation_certificate(self, field):
        """The dual of a validated coalgebra is a valid algebra, certified
        with the generating set a validation of it would keep."""
        corpus = named_coalgebras(field) + [comatrix_coalgebra(field, 6), triangular_coalgebra(field, 8)]
        if field.characteristic():
            corpus.append(dualize_algebra(oq_truncation(4, 17, "box", (8, 8)).algebra))
        for c in corpus:
            dual = dualize_coalgebra(c)
            fresh = normalized_dual_algebra(c)
            assert validate_algebra(fresh).ok
            assert dual._gens is True or dual._gens == fresh._gens

    def test_capped_search_leaves_the_generators_to_first_use(self):
        """The search that stopped at comatrix-6's cap leaves its dual
        certified without S; the first use finds the uncapped S, once."""
        dual = dualize_coalgebra(comatrix_coalgebra(GF(31), 6))
        assert dual._gens is True
        with generating_set_spy() as search:
            assert algebra_module._generators(dual) == (0, 1, 2, 3, 4, 5, 6, 12, 18, 24, 30)
            assert algebra_module._generators(dual) == (0, 1, 2, 3, 4, 5, 6, 12, 18, 24, 30)
        assert search.call_count == 1

    def test_certified_algebras_are_not_validated_again(self):
        validated = triangular_algebra(GF(7), 3)
        assert validate_algebra(validated).ok
        t3 = triangular_algebra(F5, 3)
        certified = [
            validated,
            quotient_algebra(validated, radical(validated))[0],
            oq_truncation(3, 13, "box", (4, 5)).algebra,
            dualize_coalgebra(comatrix_coalgebra(F5, 3)),
        ]
        real = algebra_module._validate_algebra
        with mock.patch.object(coalgebra_module, "_validate_algebra", wraps=real) as spy:
            for a in certified:
                assert a._gens is not None
                assert dualize_algebra(a) == normalized_dual_coalgebra(a)
            assert spy.call_count == 0
            dualize_algebra(t3)
            assert spy.call_count == 1
        assert t3._gens is not None
