import hashlib
import io
import random
import sys

import pytest
from test_algebra import (
    assert_normal_table,
    census_representatives,
    oracle_center,
    oracle_one_dim_characters,
    oracle_radical_trace_form,
    uncertified_copy,
)

from findual import algebra as algebra_module, coalgebra as coalgebra_module, qplane
from findual.algebra import (
    FinDimAlgebra,
    Subspace,
    _generators,
    _radical_trace_form,
    center,
    ideal_closure,
    is_ideal,
    matrix_algebra,
    monogenic_algebra,
    quotient_algebra,
    radical,
    semisimple_profile,
    subspace_product,
    triangular_algebra,
    validate_algebra,
)
from findual.cli import cli_run
from findual.codec import census_to_csv, to_canonical_json
from findual.errors import (
    CharacteristicTooSmallError,
    GradingError,
    InvalidInputError,
    NotAnIdealError,
    NotAzumayaError,
    OrderUnavailableError,
)
from findual.kernel import GF, Matrix, Poly, echelon_rows, primitive_root_of_unity
from findual.qplane import (
    CensusReport,
    FiberRecord,
    PointInvariants,
    _exponent_table as exponent_table,
    _fiber_table as fiber_table,
    azumaya_census,
    azumaya_point_invariants,
    box_dual_tower,
    irrep,
    irrep_classify,
    oq_truncation,
    q_number,
    qtwist_decomposition,
    regular_point_jet_algebra,
)
from findual.twist import twisted_product, verify_twisted_duality

F5 = GF(5)
F7 = GF(7)


class TestQNumber:
    def test_q_one(self):
        assert q_number(3, F7.one(), F7) == 3

    def test_q_minus_one(self):
        assert q_number(2, F5.of(-1), F5) == 0

    def test_gf7(self):
        assert q_number(3, F7.of(2), F7) == 0  # 1 + 2 + 4 = 7


class TestTruncations:
    def test_box_22(self):
        t = oq_truncation(2, 5, "box", (2, 2))
        assert t.algebra.dim == 4
        assert t.q == 4
        # y * x = 4 * xy  (basis 1, y, x, xy)
        assert dict(t.algebra.mul[1][2]) == {3: 4}

    def test_central_fiber_11(self):
        t = oq_truncation(2, 5, "central_fiber", (1, 1))
        assert t.algebra.dim == 4
        # x * x = x^2 -> 1
        assert dict(t.algebra.mul[2][2]) == {0: 1}

    def test_central_fiber_00_equals_box(self):
        fiber = oq_truncation(2, 5, "central_fiber", (0, 0))
        box = oq_truncation(2, 5, "box", (2, 2))
        assert fiber.algebra == box.algebra

    def test_order_unavailable(self):
        with pytest.raises(OrderUnavailableError):
            oq_truncation(3, 5, "box", (3, 3))

    def test_box22_mod_y_is_truncated_line(self):
        from findual.algebra import quotient_algebra, truncated_polynomial_algebra

        t = oq_truncation(2, 5, "box", (2, 2))
        y = [F5.zero()] * 4
        y[1] = F5.one()
        q, proj = quotient_algebra(t.algebra, ideal_closure(t.algebra, [y]))
        expected = truncated_polynomial_algebra(F5, 2)
        assert q.mul == expected.mul and q.unit == expected.unit
        assert proj.is_valid()

    def test_ideal_closure_of_xy_in_box33(self):
        t = oq_truncation(2, 5, "box", (3, 3))
        xy = [F5.zero()] * 9
        xy[1 * 3 + 1] = F5.one()
        sp = ideal_closure(t.algebra, [xy])
        assert sp.dim == 4
        for i in range(1, 3):
            for j in range(1, 3):
                vec = [F5.zero()] * 9
                vec[i * 3 + j] = F5.one()
                assert sp.contains(vec)


class TestQTwist:
    def test_q_equal_one_gives_swap(self):
        rep = qtwist_decomposition(1, 5, 2, 2)
        assert rep.tau_q.is_zero()
        assert rep.identity_holds

    def test_n2_p5_entries(self):
        rep = qtwist_decomposition(2, 5, 2, 2)
        # rho(y (x) x) = 4 * (x (x) y): column y(x)x = 1*2+1, row x(x)y = 1*2+1
        assert rep.rho_q.matrix.get(3, 3) == 4
        assert rep.tau_q.get(3, 3) == 1  # [1*1]_q = 1
        assert rep.identity_holds

    def test_grading_gate(self):
        with pytest.raises(GradingError):
            qtwist_decomposition(2, 5, 3, 2)

    @pytest.mark.parametrize("a,b", [(2, 2), (4, 4), (2, 4)])
    def test_twisted_product_is_box(self, a, b):
        rep = qtwist_decomposition(2, 5, a, b)
        prod = twisted_product(rep.rho_q)
        box = oq_truncation(2, 5, "box", (a, b)).algebra
        assert prod.mul == box.mul
        assert prod.unit == box.unit

    @pytest.mark.parametrize("a,b", [(2, 2), (4, 4)])
    def test_duality_on_boxes(self, a, b):
        rep = qtwist_decomposition(2, 5, a, b)
        assert verify_twisted_duality(rep.rho_q).equal

    def test_identity_across_parameters(self):
        for n, p in [(2, 5), (4, 5), (2, 13), (3, 7)]:
            rep = qtwist_decomposition(n, p, n, 2 * n)
            assert rep.identity_holds


class TestIrreps:
    def test_generic_point(self):
        r = irrep(2, 5, 1, 1)
        assert r.dim == 2
        assert r.x_matrix == Matrix.from_int_rows(F5, [[1, 0], [0, 4]])
        assert r.y_matrix == Matrix.from_int_rows(F5, [[0, 1], [1, 0]])
        assert (r.y_matrix @ r.x_matrix) == (r.x_matrix @ r.y_matrix).scale(F5.of(4))
        assert r.irreducible

    def test_axis_points(self):
        r = irrep(2, 5, 2, 0)
        assert r.dim == 1
        assert r.x_matrix.entries == (2,)
        assert r.y_matrix.entries == (0,)
        origin = irrep(2, 5, 0, 0)
        assert origin.dim == 1

    def test_central_character(self):
        for alpha in range(1, 5):
            for beta in range(1, 5):
                r = irrep(2, 5, alpha, beta)
                xn = r.x_matrix @ r.x_matrix
                yn = r.y_matrix @ r.y_matrix
                assert xn == Matrix.identity(F5, 2).scale(F5.pow(alpha, 2))
                assert yn == Matrix.identity(F5, 2).scale(F5.pow(beta, 2))
                assert r.irreducible

    def test_classify_n2_p5(self):
        rep = irrep_classify(2, 5)
        assert rep.one_dim == 9
        assert rep.n_dim_classes == 4
        assert (1, 1) in rep.class_reps
        assert (4, 4) not in rep.class_reps  # same orbit as (1, 1)

    def test_classify_n1(self):
        rep = irrep_classify(1, 3)
        assert rep.one_dim == 5
        assert rep.n_dim_classes == 4


class TestCensus:
    def test_n2_p5(self):
        report = azumaya_census(2, 5)
        agg = report.aggregate
        assert agg["azumaya_fibers"] == 16
        assert agg["axis_fibers"] == 9
        assert agg["rational_axis_points"] == 9
        assert agg["rational_orbit_classes"] == 4
        assert agg["nonsplit_axis_factors"] == 4
        assert agg["azumaya_iff_off_axis"]
        for f in report.fibers:
            if f.azumaya:
                assert f.profile == (0, ((4, 1),))
        # PI degree: no fiber exceeds the n^2 matrix factor
        assert max(d for f in report.fibers for d, _ in f.profile.factors) == 4

    def test_n1_p3_commutative(self):
        report = azumaya_census(1, 3)
        for f in report.fibers:
            if GF(3).mul(f.c, f.d) != 0:
                assert f.azumaya
                assert f.profile == (0, ((1, 1),))

    def test_precondition(self):
        with pytest.raises(CharacteristicTooSmallError):
            azumaya_census(2, 3)  # 2 | 3 - 1 holds, so it is p <= n^2 = 4 that fails
        with pytest.raises(OrderUnavailableError):
            azumaya_census(3, 5)


def exhaustive_census(n, p):
    """The census without orbit classes: every fiber built, validated and
    profiled, and every axis fiber rebuilt to count its characters with the
    commutator-ideal oracle, not read off its profile."""
    field = GF(p)
    fibers = []
    for c in range(p):
        for d in range(p):
            prof = semisimple_profile(oq_truncation(n, p, "central_fiber", (c, d)).algebra)
            azumaya = prof.radical_dim == 0 and prof.factors == ((n * n, 1),)
            fibers.append(FiberRecord(c, d, azumaya, prof))
    rational_axis_points = 0
    nonsplit_axis_factors = 0
    for f in fibers:
        if field.mul(f.c, f.d) != field.zero():
            continue
        fiber_alg = oq_truncation(n, p, "central_fiber", (f.c, f.d)).algebra
        rational_axis_points += len(oracle_one_dim_characters(fiber_alg))
        nonsplit_axis_factors += sum(1 for _, cd in f.profile.factors if cd > 1)
    aggregate = {
        "azumaya_fibers": sum(1 for f in fibers if f.azumaya),
        "axis_fibers": sum(1 for f in fibers if field.mul(f.c, f.d) == field.zero()),
        "azumaya_iff_off_axis": all(
            f.azumaya == (field.mul(f.c, f.d) != field.zero()) for f in fibers
        ),
        "rational_axis_points": rational_axis_points,
        "rational_orbit_classes": irrep_classify(n, p).n_dim_classes,
        "nonsplit_axis_factors": nonsplit_axis_factors,
    }
    return CensusReport(n, p, tuple(fibers), aggregate)


class TestOrbitCensus:
    @pytest.mark.parametrize("n,p", [(2, 5), (2, 13), (3, 13), (3, 19), (4, 17)])
    def test_bytes_match_exhaustive(self, n, p):
        orbit = azumaya_census(n, p)
        oracle = exhaustive_census(n, p)
        assert to_canonical_json(orbit) == to_canonical_json(oracle)
        assert census_to_csv(orbit) == census_to_csv(oracle)

    @pytest.mark.parametrize("n,p", [(1, 3), (2, 5), (3, 13)])
    def test_one_profile_per_class(self, n, p, monkeypatch):
        calls = []
        graded_top = qplane._graded_top

        def spy(alg, *args):
            calls.append(alg.dim)
            return graded_top(alg, *args)

        monkeypatch.setattr(qplane, "_graded_top", spy)
        azumaya_census(n, p)
        # one per pair of mirror classes (alpha, beta), (beta, alpha)
        assert len(calls) == (n + 1) * (n + 2) // 2

    @pytest.mark.parametrize("n,p", [(1, 3), (2, 5), (3, 13)])
    def test_one_table_per_class(self, n, p, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args[3:])
            return fiber_table(*args)

        monkeypatch.setattr(qplane, "_fiber_table", spy)
        azumaya_census(n, p)
        assert len(calls) == (n + 1) * (n + 2) // 2

    @pytest.mark.parametrize("n,p", [(1, 3), (2, 5), (3, 13), (4, 17)])
    def test_census_validates_nothing(self, n, p, monkeypatch):
        calls = []

        def spy(alg):
            calls.append(alg.dim)
            return validate_algebra(alg)

        monkeypatch.setattr(qplane, "validate_algebra", spy)
        monkeypatch.setattr(algebra_module, "validate_algebra", spy)
        azumaya_census(n, p)
        assert calls == []

    def test_certificate_rejects_perturbed_fiber(self, monkeypatch):
        # On (n, p) = (2, 5) the exponent cell (x, y) = (2, 1) is (3, 0, 0, 0),
        # x * y = q^0 xy, and (y, y) = (1, 1) is (0, 0, 0, 1), y * y = d.  A
        # wrong target or overflow flag breaks the grading certificate; a wrong
        # q exponent keeps the grading and breaks the associativity proof, and
        # a wrong exponent on the unit's row breaks the unit law.
        cases = [
            ((2, 1), (2, 0, 0, 0), r"cell \(2, 1\) = \(2, 0, 0, 0\) is not Z\^2-graded"),
            ((1, 1), (0, 0, 1, 1), r"cell \(1, 1\) = \(0, 0, 1, 1\) is not Z\^2-graded"),
            ((2, 1), (3, 1, 0, 0), r"exponent table is not associative at triple"),
            ((0, 3), (3, 1, 0, 0), r"cells \(0, 3\) and \(3, 0\) break the unit law"),
        ]
        for (s, t), cell, message in cases:
            def perturbed(xmax, ymax, s=s, t=t, cell=cell):
                rows = [list(row) for row in exponent_table(xmax, ymax)]
                rows[s][t] = cell
                return tuple(tuple(row) for row in rows)

            monkeypatch.setattr(qplane, "_exponent_table", perturbed)
            with pytest.raises(InvalidInputError, match=message):
                azumaya_census(2, 5)

    @pytest.mark.parametrize("n,p", [(2, 5), (3, 13), (4, 17)])
    def test_mirror_certificate_rejects_asymmetric_table(self, n, p, monkeypatch):
        # q^(j1 i2 + i1 i2): the exponent is still bilinear, so the table stays
        # graded, unital and associative, but x x = q x^2 while y y = y^2, and
        # fiber(d, c) is no longer the opposite of fiber(c, d)
        def asymmetric(xmax, ymax):
            return tuple(
                tuple((r, e + (s // ymax) * (t // ymax), a, b) for t, (r, e, a, b) in enumerate(row))
                for s, row in enumerate(exponent_table(xmax, ymax))
            )

        table = asymmetric(n, n)
        qplane._certify_grading(table, n)
        qplane._certify_associative(table, n)
        monkeypatch.setattr(qplane, "_exponent_table", asymmetric)
        with pytest.raises(InvalidInputError, match="is not the mirror of cell"):
            azumaya_census(n, p)

    @pytest.mark.parametrize("n,p", [(2, 5), (3, 13)])
    @pytest.mark.parametrize("moved", ["zero-to-unit", "to-other-coset", "unit-to-zero"])
    def test_torus_certificate_rejects_wrong_representative(self, n, p, moved, monkeypatch):
        # A representative that names a fiber of another class: the next fiber
        # of its class is no torus image of it.  2 is not an n-th power mod p.
        def perturbed(field, *args):
            cls = orbit_class(field, *args)
            c, d = cls.c, cls.d
            if moved == "zero-to-unit" and c == 0 and d:
                return cls._replace(c=1)
            if moved == "to-other-coset" and c and d:
                return cls._replace(c=field.mul(2, c))
            if moved == "unit-to-zero" and c and d:
                return cls._replace(c=0)
            return cls

        orbit_class = qplane._orbit_class
        monkeypatch.setattr(qplane, "_orbit_class", perturbed)
        with pytest.raises(InvalidInputError, match="is not the torus image"):
            azumaya_census(n, p)

    def test_associativity_certificate_needs_spanning_words(self):
        # an ungraded table on which x x = x: the words in x and y miss x^2
        n = 3
        rows = [list(row) for row in exponent_table(n, n)]
        rows[n][n] = (n, 0, 0, 0)
        with pytest.raises(InvalidInputError, match=r"cell \(3, 3\) = \(3, 0, 0, 0\) does not reach"):
            qplane._certify_associative(tuple(tuple(row) for row in rows), n)

    @pytest.mark.parametrize("n,p", [(3, 13), (4, 17)])
    def test_mirror_classes_share_profiles(self, n, p):
        """For the first fiber (c, d) of each class, fiber(c, d) and fiber(d, c)
        built and validated by `oq_truncation` have the same profile."""
        field = GF(p)
        coset = [field.pow(z, (p - 1) // n) for z in range(p)]
        firsts = {}
        for c in range(p):
            for d in range(p):
                firsts.setdefault((coset[c], coset[d]), (c, d))
        assert len(firsts) == (n + 1) ** 2
        for c, d in firsts.values():
            fiber, mirror = (oq_truncation(n, p, "central_fiber", point).algebra
                             for point in ((c, d), (d, c)))
            assert semisimple_profile(fiber) == semisimple_profile(mirror)

    def test_aggregate_4_17(self):
        # Computed with the exhaustive census (every fiber profiled).
        assert azumaya_census(4, 17).aggregate == {
            "azumaya_fibers": 256, "axis_fibers": 33, "azumaya_iff_off_axis": True,
            "rational_axis_points": 33, "rational_orbit_classes": 16,
            "nonsplit_axis_factors": 32,
        }


class TestPointInvariants:
    def test_n2_p5(self):
        inv = azumaya_point_invariants(2, 5, 1, 1)
        assert inv.total_dim == 12
        assert inv.radical_dim == 8
        assert inv.radical_square_zero
        assert inv.top_profile == ((4, 1),)
        assert inv.center_dim == 3

    def test_n2_p13(self):
        inv = azumaya_point_invariants(2, 13, 1, 1)
        assert (inv.total_dim, inv.radical_dim, inv.top_profile, inv.center_dim) == (12, 8, ((4, 1),), 3)

    def test_axis_point_rejected(self):
        with pytest.raises(NotAzumayaError):
            azumaya_point_invariants(2, 5, 1, 0)

    def test_jet_algebra_validates(self):
        alg = regular_point_jet_algebra(2, 5, 2, 3)
        assert validate_algebra(alg).ok
        assert alg.dim == 12

    def test_all_azumaya_points_same_shape(self):
        for c in (1, 2):
            for d in (1, 3):
                inv = azumaya_point_invariants(2, 5, c, d)
                assert (inv.total_dim, inv.radical_dim, inv.center_dim) == (12, 8, 3)
                assert inv.top_profile == ((4, 1),)


class TestHigherOrder:
    """The same machinery at n = 3: PI degree and jet shapes scale as n^2."""

    def test_census_3_13(self):
        rep = azumaya_census(3, 13)
        agg = rep.aggregate
        assert agg["azumaya_fibers"] == 144
        assert agg["axis_fibers"] == 25
        assert agg["rational_axis_points"] == 25
        assert agg["rational_orbit_classes"] == 16  # (12/3)^2
        assert agg["azumaya_iff_off_axis"]
        assert max(d for f in rep.fibers for d, _ in f.profile.factors) == 9

    def test_point_3_13(self):
        inv = azumaya_point_invariants(3, 13, 2, 5)
        assert (inv.total_dim, inv.radical_dim, inv.radical_square_zero,
                inv.top_profile, inv.center_dim) == (27, 18, True, ((9, 1),), 3)


class TestBoxTower:
    def test_levels_and_inclusions(self):
        tower = box_dual_tower(2, 5, [1, 2, 3])
        assert [lv.dim for lv in tower.levels] == [4, 16, 36]
        for small, big in zip(tower.levels, tower.levels[1:]):
            assert big.labels[: small.dim] == small.labels

    @pytest.mark.parametrize("steps", [[1], [1, 2], [1, 2, 3], [1, 2, 3, 4]])
    def test_each_step_checked_once(self, monkeypatch, steps):
        checked = []
        step_check = coalgebra_module._check_tower_step

        def spy(small, big, inc):
            checked.append((small.dim, big.dim))
            return step_check(small, big, inc)

        monkeypatch.setattr(coalgebra_module, "_check_tower_step", spy)
        box_dual_tower(2, 5, steps)
        assert checked == [(4 * k * k, 4 * (k + 1) ** 2) for k in steps[:-1]]


# sha256 of to_canonical_json, recorded before the jet algebra and the box
# tower were built from `_fiber_table`
JET_DIGESTS = {
    (2, 5, 1, 1): "276573fda7c56fba111b893e9d8c7408189084c9df51f52fcc05505bed653be8",
    (2, 5, 1, 2): "32c0463346e63cc81b9d2e5e35734ce8a4ce1b1c2fb8d10f335db689edfad04a",
    (2, 5, 1, 3): "fdd23a1d14f93f5b830ef4ae541aafbddf0615daf1816e3248ec751c7eef7d1c",
    (2, 5, 1, 4): "093f3a5e5dc33de578e9a3c30e9ded39e34be9522a16a947c2866c12b51eef28",
    (2, 5, 2, 1): "84f7962e36e6c46ea63a9506ccece3581fbeec1309afe5689bff683a8a5ec7f8",
    (2, 5, 2, 2): "81d189ac861a6c9f04fcb50467b3ec6f562403641db042f67b96aa6cd651322e",
    (2, 5, 2, 3): "1a13a971b0622122faad032df057e82b0b7b933efde3dda3cf69d5fb73783251",
    (2, 5, 2, 4): "0e9750420bb3b6f74300f873c26f8d9f2d7b42dfc91a1e695644b43d93a94e00",
    (2, 5, 3, 1): "efb5160ed2df2af690e4b09e54a3a0160d3f6190eb23108b6a8de63e9ff2e115",
    (2, 5, 3, 2): "80c6192bffa75bab9136745f0a7994a30e5494542a37584e043f07fc49c2372d",
    (2, 5, 3, 3): "4f65ea3d177d241bc77798efc5664cfbef53b368fc7cd7871bd85f89e89ad1de",
    (2, 5, 3, 4): "ad9ae1dbb67a66d2f9607155b9577a97a65a7ae9d977d4b88f14185d03019ac4",
    (2, 5, 4, 1): "1c6462cd42d47b44d421609810db6291e50f045ede2d8b90cceea8ae90ac97d8",
    (2, 5, 4, 2): "c1b752d059789fc4340c84c3c80f6ed0bf7b943f62f3492879ea7a22d3e7867a",
    (2, 5, 4, 3): "89b82b4f93e5c2aa590f065ed378ba93b467d4a078bf71b440367a77d7ccba85",
    (2, 5, 4, 4): "ebd51b6cbd961f0eaeb151e291fde3c67e438eabdaac0d98b415bc7f85e6f5a4",
    (3, 13, 2, 5): "1c814e058200c717a72b9c368984abc8da7e83d20e86079d926a50156a62d11e",
    (4, 17, 9, 12): "0fc8ba8cccd729518bd99ed9db6621851b672ff8cbeba16ef15d8f9e3d655764",
    (5, 31, 26, 23): "94b9c9bd127bf348b5ffb94e3abfa55608cf448fa8a3de3222a033beba4cba3e",
}
TOWER_DIGESTS = {
    (2, 5, (1, 2, 3)): "5b8a90bdc8ea168052bdff7c58b0d04d11bcc0f12ee5d6434482dfd1ffeff7ca",
    (3, 7, (1, 2)): "8cdfa71626e4f97b7b10d213c6b9743e601b551bdad6f3234c019ac62305b623",
}


class TestPinnedTables:
    @pytest.mark.parametrize("point", sorted(JET_DIGESTS))
    def test_jet_algebra_bytes(self, point):
        text = to_canonical_json(regular_point_jet_algebra(*point))
        assert hashlib.sha256(text.encode()).hexdigest() == JET_DIGESTS[point]

    @pytest.mark.parametrize("args", sorted(TOWER_DIGESTS))
    def test_box_tower_bytes(self, args):
        n, p, steps = args
        text = to_canonical_json(box_dual_tower(n, p, list(steps)))
        assert hashlib.sha256(text.encode()).hexdigest() == TOWER_DIGESTS[args]

    def test_qtwist_components_are_truncated_polynomials(self):
        rep = qtwist_decomposition(2, 5, 4, 2)
        assert rep.rho_q.a == monogenic_algebra(F5, Poly.from_ints(F5, [0, 0, 0, 0, 1]), var="x")
        assert rep.rho_q.b == monogenic_algebra(F5, Poly.from_ints(F5, [0, 0, 1]), var="y")


# sha256 of the census canonical JSON and CSV (the `qplane-census` stdout
# bytes), recorded when every non-representative fiber's table was still
# built and compared entrywise with its representative's.
CENSUS_DIGESTS = {
    (5, 31): ("508f04a41354c47fc4937f00f47ba5969620b74069e2f38f86c396af84638f19",
              "119ab94a303b269f7724aff542615ee6475cb235676f1e9d68f7c518dc587591"),
    (6, 37): ("5b968ab2dae804b4f7d9ba501f84b28ca01a2629943075acd7f8b1fada6f1c3b",
              "511f60e9c6f366580d1fe22afbe3dd9a2b911db7bb2d92f2adc5240060b44689"),
    (4, 101): ("a05934c6a69f536c4617ce75d7c7b53d5e9fd1a6f1765ecb057eb67055a79c26",
               "3628979ba73df73d9207e96462558cf30ed12bb1d015a9d2b9b926e354eeffa8"),
}


@pytest.mark.parametrize("n,p", sorted(CENSUS_DIGESTS))
def test_census_bytes_pinned(n, p):
    report = azumaya_census(n, p)
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (to_canonical_json(report), census_to_csv(report)))
    assert digests == CENSUS_DIGESTS[n, p]


class TestFiberTableExponentBound:
    """`_fiber_table` reads the largest q exponent off the last cell."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 5), (5, 4)] + [(n, n) for n in range(1, 7)], ids=str)
    def test_last_cell_holds_the_largest_exponent(self, shape):
        table = exponent_table(*shape)
        assert table[-1][-1][1] == max(e for row in table for _, e, _, _ in row)


# ---------------------------------------------------------------------------
# Certified builder tables: the builders that emit normal tables construct
# through `_from_normal_table`, and the jet algebra rests on the exponent-table
# certificate instead of a validation.

JET_POINTS = [(1, 5, 2, 3), (2, 5, 1, 1), (3, 13, 2, 5), (4, 17, 9, 12)]


def jet_xy(n):
    """Jet indices of y and x, which generate the jet algebra; at n = 1,
    where x = c + u is no basis element, those of u and v."""
    return (3, 3 * n) if n > 1 else (1, 2)


def jet_uv(jet):
    """(u, v) in a jet algebra: the span of the basis vectors of the jet
    indices 3r + 1 and 3r + 2."""
    return Subspace(jet, [[int(k == t) for k in range(jet.dim)] for t in range(jet.dim) if t % 3])


def private_builds(monkeypatch):
    """(builder, algebra) for each algebra built through `_from_normal_table`
    from here on, the builder named by the calling function."""
    built = []
    real = algebra_module._from_normal_table

    def spy(*args):
        built.append((sys._getframe(1).f_code.co_name, real(*args)))
        return built[-1][1]

    monkeypatch.setattr(algebra_module, "_from_normal_table", spy)
    monkeypatch.setattr(qplane, "_from_normal_table", spy)
    return built


def oracle_jet_table(n, p, c, d):
    """R/(R m^2) from first principles: x^i1 y^j1 w1 * x^i2 y^j2 w2 is
    q^(j1 i2) x^(i1+i2) y^(j1+j2) w1 w2, with x^n = c + u, y^n = d + v and
    (u, v)^2 = 0, as coefficients of (1, u, v) at each monomial."""
    q = primitive_root_of_unity(GF(p), n)
    basis = [(i, j, w) for i in range(n) for j in range(n) for w in range(3)]
    table = []
    for i1, j1, w1 in basis:
        row = []
        for i2, j2, w2 in basis:
            jets, i, j = [0, 0, 0], i1 + i2, j1 + j2
            if not (w1 and w2):
                jets[w1 or w2] = pow(q, j1 * i2, p)
            if i >= n:
                jets, i = [c * jets[0], c * jets[1] + jets[0], c * jets[2]], i - n
            if j >= n:
                jets, j = [d * jets[0], d * jets[1], d * jets[2] + jets[0]], j - n
            row.append(tuple((3 * (i * n + j) + w, x % p) for w, x in enumerate(jets) if x % p))
        table.append(tuple(row))
    return tuple(table)


def perturbed_jet(jet, n, c, d, both_only):
    """The jet table with k0 / c in place of k0 / d on v: in every cell
    whose product overflows y^n, or only where it overflows x^n as well."""
    p = jet.field.p
    mul = [list(row) for row in jet.mul]
    for s, row in enumerate(exponent_table(n, n)):
        for t, (r, _, a, b) in enumerate(row):
            if b and (a or not both_only):
                mul[3 * s][3 * t] = tuple((k, x * d * pow(c, -1, p) % p if k == 3 * r + 2 else x)
                                          for k, x in mul[3 * s][3 * t])
    return FinDimAlgebra(jet.field, jet.labels, mul, jet.unit)


class TestCertifiedBuilders:
    def test_census_tables_are_normal(self, monkeypatch):
        """The census builds its 10 representatives and no quotient: an
        axis top is read off one minimal polynomial, and an off-axis fiber
        is its own top."""
        built = private_builds(monkeypatch)
        azumaya_census(3, 13)
        assert [name for name, _ in built] == ["_monomial_algebra"] * 10
        for _, alg in built:
            assert_normal_table(alg)

    @pytest.mark.parametrize("point", JET_POINTS, ids=str)
    def test_jet_tables_are_normal(self, point, monkeypatch):
        """The point builds the jet and fiber(c, d), its top, and no quotient."""
        built = private_builds(monkeypatch)
        azumaya_point_invariants(*point)
        assert [name for name, _ in built] == ["_jet_algebra", "_monomial_algebra"]
        for _, alg in built:
            assert_normal_table(alg)

    def test_box_tower_tables_are_normal(self, monkeypatch):
        built = private_builds(monkeypatch)
        box_dual_tower(2, 5, [1, 2, 3])
        assert [(name, alg.dim) for name, alg in built] == [("box_dual_tower", 4), ("box_dual_tower", 16),
                                                            ("box_dual_tower", 36)]
        for _, alg in built:
            assert_normal_table(alg)

    @pytest.mark.parametrize("point", JET_POINTS, ids=str)
    def test_jet_is_the_base_change_and_validates(self, point):
        jet = regular_point_jet_algebra(*point)
        assert jet.mul == oracle_jet_table(*point)
        assert validate_algebra(uncertified_copy(jet)).ok

    def test_point_invariants_validate_nothing(self, monkeypatch):
        calls = []

        def spy(alg):
            calls.append(alg.dim)
            return validate_algebra(alg)

        monkeypatch.setattr(qplane, "validate_algebra", spy)
        monkeypatch.setattr(algebra_module, "validate_algebra", spy)
        for point in JET_POINTS:
            azumaya_point_invariants(*point)
        assert calls == []

    @pytest.mark.parametrize("point", JET_POINTS, ids=str)
    def test_certified_generators_match_full_basis(self, point):
        """center and is_ideal over S = {x, y} equal the full-basis path,
        on the radical, its square, the unit, the lines through the first
        12 basis vectors and random subspaces (mostly not ideals)."""
        jet = regular_point_jet_algebra(*point)
        plain = uncertified_copy(jet)
        assert _generators(plain) == range(jet.dim)
        assert center(jet).rows == center(plain).rows
        rad = _radical_trace_form(jet)
        rng = random.Random(point[1])
        rows = [rad.rows, subspace_product(jet, rad, rad).rows, [jet.unit]]
        rows += [[[int(k == t) for k in range(jet.dim)]] for t in range(min(jet.dim, 12))]
        rows += [[[rng.randrange(3) for _ in range(jet.dim)] for _ in range(rng.randint(1, 3))] for _ in range(4)]
        verdicts = [is_ideal(jet, Subspace(jet, r)) for r in rows]
        assert verdicts == [is_ideal(plain, Subspace(plain, r)) for r in rows]
        assert verdicts[:2] == [True, True] and False in verdicts

    def test_generators_at_n_1(self):
        """At n = 1 the jet algebra is k[u, v]/(u, v)^2: S = {u, v}, and
        span(1 + u) is no ideal, since u (1 + u) = u."""
        jet = regular_point_jet_algebra(1, 5, 2, 3)
        assert jet.labels == ("x^0y^0", "x^0y^0u", "x^0y^0v")
        assert _generators(jet) == (1, 2)
        assert not is_ideal(jet, Subspace(jet, [[1, 1, 0]]))
        assert is_ideal(jet, Subspace(jet, [[0, 1, 0], [0, 0, 1]]))

    @pytest.mark.parametrize("point", [(2, 5, 1, 2), (3, 13, 2, 5), (4, 17, 9, 12)], ids=str)
    def test_perturbed_lift_is_caught(self, point):
        """k0 / c on v in every cell only rescales v by d / c, an
        isomorphic algebra: the base-change oracle and the pinned bytes catch
        it.  k0 / c on v only where x^n overflows as well breaks
        associativity, and validation catches it."""
        n, p, c, d = point
        jet = regular_point_jet_algebra(*point)
        everywhere = perturbed_jet(jet, n, c, d, both_only=False)
        assert everywhere.mul != oracle_jet_table(*point)
        assert hashlib.sha256(to_canonical_json(everywhere).encode()).hexdigest() != JET_DIGESTS.get(point)
        assert validate_algebra(everywhere).ok
        assert not validate_algebra(perturbed_jet(jet, n, c, d, both_only=True)).ok


# ---------------------------------------------------------------------------
# Graded kernels: the radical and the centers read off the Z/n x Z/n grading,
# one block per component, against the generic kernels.


def recorded_center_rows(monkeypatch):
    """The (algebra, center rows) pairs qplane hands `_simple_factors`."""
    seen = []
    real = qplane._simple_factors

    def spy(semi, rows):
        seen.append((semi, rows))
        return real(semi, rows)

    monkeypatch.setattr(qplane, "_simple_factors", spy)
    return seen


class TestGradedKernels:
    @pytest.mark.parametrize("n,p", [(3, 13), (4, 17), (5, 31), (6, 37), (7, 71)])
    def test_census_representatives(self, n, p, monkeypatch):
        reps = census_representatives(n, p)
        seen = recorded_center_rows(monkeypatch)
        degree, gens = range(n * n), qplane._xy(n)
        profiles = []
        for alg in reps:
            rad, factors = qplane._graded_top(alg, n)
            assert rad == radical(alg)
            # only a top with both generators, A itself off the axes, has
            # its center taken; an axis top is read off a minimal polynomial
            if rad.dim:
                assert seen == []
            else:
                (top, rows), = seen
                seen.clear()
                assert top is alg and Subspace(top, rows) == center(top)
            assert qplane._graded_center(alg, n, degree, gens) == center(alg)
            profiles.append(semisimple_profile(alg))
            assert (rad.dim, factors) == profiles[-1]
        # off the axes J = 0; on them A/J is k at (0, 0) and k[t]/(t^n - d)
        # at d != 0, with several factors on some axis
        assert len(reps) == (n + 1) * (n + 2) // 2
        assert {prof.radical_dim for prof in profiles} == {0, n * n - n, n * n - 1}
        assert max(len(prof.factors) for prof in profiles) > 1

    @pytest.mark.parametrize("point", JET_POINTS + [(5, 31, 26, 23)], ids=str)
    def test_jets(self, point, monkeypatch):
        """The graded radical of the jet is (u, v), and the top the point
        profiles is fiber(c, d), equal to the generic quotient jet / J."""
        n = point[0]
        jet = regular_point_jet_algebra(*point)
        degree, gens = [r for r in range(n * n) for _ in range(3)], jet_xy(n)
        assert _generators(jet) == gens
        rad = qplane._graded_radical(jet, n, degree)
        assert rad == _radical_trace_form(jet) == jet_uv(jet)
        seen = recorded_center_rows(monkeypatch)
        inv = azumaya_point_invariants(*point)
        (top, rows), = seen
        assert top == quotient_algebra(jet, rad)[0]
        assert Subspace(top, rows) == center(top)
        assert qplane._graded_center(jet, n, degree, gens) == center(jet)
        assert inv == qplane.measure_point_invariants(jet)

    @pytest.mark.parametrize("case", [(3, 13), (4, 17), (5, 31), (6, 37), (4, 17, 3, 5), (5, 31, 26, 23)], ids=str)
    def test_merged_block_rows_are_the_rref(self, case, monkeypatch):
        """The graded radical's and center's rows, each component's kernel
        in RREF merged in pivot order, equal `echelon_rows` of the same
        vectors; no elimination runs over more than one component."""
        n = case[0]
        if len(case) == 2:
            algs, degree, gens = census_representatives(*case), range(n * n), qplane._xy(n)
        else:
            algs = [regular_point_jet_algebra(*case)]
            degree, gens = [r for r in range(n * n) for _ in range(3)], jet_xy(n)
        blocks, widths = [], set()
        block_kernel, echelon = algebra_module._block_kernel, algebra_module.echelon_rows

        def kernel_spy(*args):
            blocks.append(block_kernel(*args))
            return blocks[-1]

        def echelon_spy(field, rows):
            rows = list(rows)
            widths.update(map(len, rows))
            return echelon(field, rows)

        monkeypatch.setattr(algebra_module, "_block_kernel", kernel_spy)
        monkeypatch.setattr(algebra_module, "echelon_rows", echelon_spy)
        for alg in algs:
            for build in (lambda: qplane._graded_radical(alg, n, degree),
                          lambda: qplane._graded_center(alg, n, degree, gens)):
                blocks.clear()
                rows = build().rows
                assert len(blocks) > 1
                assert rows == tuple(echelon_rows(alg.field, [row for block in blocks for row in block]))
        assert widths <= {1, 2, 3}

    @pytest.mark.parametrize("case", ["census (3, 13)", "jet (2, 5, 1, 1)"])
    def test_per_scalar_oracles(self, case, monkeypatch):
        """The graded radical and centers against the Gram and dense
        commutator oracles, which share no code with any grading."""
        seen = recorded_center_rows(monkeypatch)
        if case.startswith("census"):
            n, algs = 3, census_representatives(3, 13)
            degree, gens = range(n * n), qplane._xy(n)
            rads, tops = [], []
            for alg in algs:
                seen.clear()
                rads.append(qplane._graded_top(alg, n)[0])
                # the center rows of the top, taken off the axes only
                tops.append(seen[0] if seen else None)
            assert [top is None for top in tops] == [rad.dim > 0 for rad in rads]
            assert tops.count(None) == n + 1
        else:
            n, algs = 2, [regular_point_jet_algebra(2, 5, 1, 1)]
            degree, gens = [r for r in range(n * n) for _ in range(3)], jet_xy(n)
            rads = [qplane._graded_radical(algs[0], n, degree)]
            azumaya_point_invariants(2, 5, 1, 1)  # profiles the top, fiber(1, 1)
            tops = list(seen)
        assert len(tops) == len(algs)
        for alg, rad, top in zip(algs, rads, tops):
            assert rad == oracle_radical_trace_form(alg)
            if top is not None:
                assert Subspace(*top) == oracle_center(top[0])
            assert algebra_module._graded_center(alg, n, degree, gens) == oracle_center(alg)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matrix_gradings(self, d):
        """E_ij in degree (i - j mod d, 0) grades M_d and the upper-triangular
        matrices by Z/d x Z/d.  Their degree-0 parts hold the E_ii, whose
        traces are not 0, and a degree-0 block is d x d."""
        f = GF(31)
        full = [(i, j) for i in range(d) for j in range(d)]
        for alg, cells in [(matrix_algebra(f, d), full), (triangular_algebra(f, d), [(i, j) for i, j in full if i <= j])]:
            degree = [(i - j) % d * d for i, j in cells]
            assert qplane._graded_radical(alg, d, degree) == radical(alg)
            assert qplane._graded_center(alg, d, degree, range(alg.dim)) == center(alg)


def spied_orbit_classes(monkeypatch):
    """((c, d), names) per representative the census profiles: the names of
    the calls it makes to is_ideal, quotient_algebra, _graded_center and
    _simple_factors, in order."""
    calls = []
    for name in ("is_ideal", "quotient_algebra", "_graded_center", "_simple_factors"):
        def spy(*args, name=name, real=getattr(qplane, name)):
            calls[-1][1].append(name)
            return real(*args)

        monkeypatch.setattr(qplane, name, spy)
    real_orbit_class = qplane._orbit_class

    def orbit_class(field, fiber, n, c, d):
        calls.append(((c, d), []))
        return real_orbit_class(field, fiber, n, c, d)

    monkeypatch.setattr(qplane, "_orbit_class", orbit_class)
    return calls


class TestAxisTops:
    """On the axis c = 0, x lies in J and A/J = k[t]/(mu), mu the minimal
    polynomial of the surviving generator: the census profiles it with one
    ideal check, and no quotient table, center or idempotent."""

    @pytest.mark.parametrize("n,p", [(3, 13), (4, 17), (5, 31)])
    def test_axis_representatives_take_no_quotient(self, n, p, monkeypatch):
        calls = spied_orbit_classes(monkeypatch)
        azumaya_census(n, p)
        axis = [names for (c, _), names in calls if c == 0]
        assert len(axis) == n + 1 and all(names == ["is_ideal"] for names in axis)
        off_axis = [names for (c, d), names in calls if c * d % p]
        assert len(axis) + len(off_axis) == len(calls) == (n + 1) * (n + 2) // 2
        assert all(names == ["_graded_center", "_simple_factors"] for names in off_axis)

    @pytest.mark.parametrize("plant,dim", [("low-degree", 1), ("non-squarefree", 3)])
    def test_planted_minimal_polynomial_raises(self, plant, dim, monkeypatch):
        """A minimal polynomial of degree below dim A/J (mu / t: caught at
        fiber(0, 0), whose top is k), or one of the right degree with a
        repeated factor ((t - 1)^deg mu: caught at fiber(0, 1), whose top
        is k[t]/(t^3 - 1)), is refused, in the library and as exit 3."""
        real = qplane._minimal_polynomial

        def planted(*args):
            mu = real(*args)
            if plant == "low-degree":
                return Poly(mu.field, mu.coeffs[1:])
            power = Poly.constant(mu.field, 1)
            for _ in range(mu.degree()):
                power = power * Poly.from_ints(mu.field, [-1, 1])
            return power

        monkeypatch.setattr(qplane, "_minimal_polynomial", planted)
        with pytest.raises(InvalidInputError, match=rf"a fiber top of dim {dim} is not k\[t\]/\(mu\)"):
            azumaya_census(3, 13)
        assert cli_run(["qplane-census", "--n", "3", "--p", "13"], stdout=(out := io.StringIO())) == 3
        assert out.getvalue().startswith(f"error: a fiber top of dim {dim} is not k[t]/(mu)")

    def test_planted_non_ideal_raises(self, monkeypatch):
        monkeypatch.setattr(qplane, "is_ideal", lambda alg, space: False)
        with pytest.raises(NotAnIdealError):
            azumaya_census(3, 13)

    def test_planted_radical_holding_neither_generator_raises(self, monkeypatch):
        """Where x and y both survive, J = 0; a planted J = (xy), which
        holds neither, is refused rather than profiled."""
        n, (y, x) = 3, qplane._xy(3)
        alg = census_representatives(n, 13)[-1]
        xy = [0] * alg.dim
        xy[x + y] = 1
        monkeypatch.setattr(qplane, "_graded_radical", lambda alg, n, degree: Subspace(alg, [xy]))
        with pytest.raises(InvalidInputError, match="a fiber radical of dim 1 holds neither x nor y"):
            qplane._graded_top(alg, n)


class TestPointTop:
    """`azumaya_point_invariants` checks that the jet's radical is (u, v) and
    takes the profile of its top, fiber(c, d), from the census's
    `_orbit_class`, on one certified exponent table."""

    @pytest.mark.parametrize("point", JET_POINTS + [(5, 31, 26, 23)], ids=str)
    def test_no_quotient(self, point, monkeypatch):
        calls = []

        def spy(alg, ideal):
            calls.append((alg.dim, ideal.dim))
            return quotient_algebra(alg, ideal)

        monkeypatch.setattr(qplane, "quotient_algebra", spy)
        monkeypatch.setattr(algebra_module, "quotient_algebra", spy)
        azumaya_point_invariants(*point)
        assert calls == []

    @pytest.mark.parametrize("point", JET_POINTS, ids=str)
    def test_certificates_run_once(self, point, monkeypatch):
        calls = []
        for name in ("_certify_grading", "_certify_associative"):
            def spy(table, n, name=name, real=getattr(qplane, name)):
                calls.append(name)
                return real(table, n)

            monkeypatch.setattr(qplane, name, spy)
        azumaya_point_invariants(*point)
        assert sorted(calls) == ["_certify_associative", "_certify_grading"]

    @pytest.mark.parametrize("point", JET_POINTS, ids=str)
    def test_fiber_table_built_once(self, point, monkeypatch):
        """The jet and its top share one fiber(c, d) table."""
        calls = []

        def spy(field, q, table, c, d, real=qplane._fiber_table):
            calls.append((c, d))
            return real(field, q, table, c, d)

        monkeypatch.setattr(qplane, "_fiber_table", spy)
        azumaya_point_invariants(*point)
        assert calls == [(point[2] % point[1], point[3] % point[1])]

    @pytest.mark.parametrize("point", [(2, 5, 1, 1), (3, 13, 2, 5)], ids=str)
    @pytest.mark.parametrize("change", ["tail", "missing", "extra"])
    def test_radical_other_than_uv_rejected(self, point, change, monkeypatch):
        """A jet radical with the pivots of (u, v) but a row that is no basis
        vector, one without v at x^(n-1) y^(n-1), or one holding 1 is
        refused; the fibers' radicals are left as they are."""
        perturbed_radical(monkeypatch, change)
        n, _, c, d = point
        with pytest.raises(InvalidInputError, match=rf"the jet radical at \({c}, {d}\) is not \(u, v\)"):
            azumaya_point_invariants(*point)
        argv = ["qplane-point", "--n", str(n), "--p", str(point[1]), "--c", str(c), "--d", str(d)]
        assert cli_run(argv, stdout=(out := io.StringIO())) == 3
        assert out.getvalue() == f"error: the jet radical at ({c}, {d}) is not (u, v)\n"

    @pytest.mark.parametrize("point", JET_POINTS, ids=str)
    def test_fiber_radical_must_be_zero(self, point, monkeypatch):
        real = qplane._orbit_class

        def radical_one(*args):
            cls = real(*args)
            return cls._replace(profile=cls.profile._replace(radical_dim=1))

        monkeypatch.setattr(qplane, "_orbit_class", radical_one)
        with pytest.raises(InvalidInputError, match=rf"fiber \({point[2]}, {point[3]}\) is not semisimple"):
            azumaya_point_invariants(*point)

    def test_n_1(self, monkeypatch):
        """At n = 1 the jet is k[u, v]/(u, v)^2 and its top, fiber(2, 3), is
        k: `_xy(1)` is empty, and the center of k is k."""
        seen = recorded_center_rows(monkeypatch)
        assert qplane._xy(1) == ()
        assert azumaya_point_invariants(1, 5, 2, 3) == PointInvariants(3, 2, True, ((1, 1),), 3)
        (top, rows), = seen
        assert (top.labels, top.mul, top.unit, rows) == (("x^0y^0",), ((((0, 1),),),), (1,), ((1,),))


def perturbed_radical(monkeypatch, change):
    """Make `_graded_radical` return, on a jet algebra only, (u, v) changed:
    "tail" adds b_3 to the row of u at 1, "missing" drops the last row and
    "extra" adds the unit's basis vector."""
    real = qplane._graded_radical

    def spy(alg, n, degree):
        rad = real(alg, n, degree)
        if alg.dim != 3 * n * n:
            return rad
        rows = [list(row) for row in rad.rows]
        if change == "tail":
            rows[0][3] = 1
        elif change == "missing":
            rows.pop()
        else:
            rows.append([int(k == 0) for k in range(alg.dim)])
        return Subspace(alg, rows)

    monkeypatch.setattr(qplane, "_graded_radical", spy)


class TestGradedPathIsTaken:
    def test_no_generic_kernel(self, monkeypatch):
        """The census and the point invariants call no generic radical,
        center or profile, and still return their pinned results."""
        def refuse(*args):
            raise AssertionError("generic kernel called")

        for module in (algebra_module, qplane):
            for name in ("radical", "center", "semisimple_profile", "_radical_trace_form"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        report = azumaya_census(4, 17)
        digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                        for text in (to_canonical_json(report), census_to_csv(report)))
        assert digests == ("e54be5f6ddc594e6d0494edd991f6ac967a717ee6170ee0be0faa72ac17a9335",
                           "3e690a0c7db84688b8b39a42664f48e62d940a34decf02653a0963e07a1577c5")
        assert azumaya_point_invariants(4, 17, 9, 12) == PointInvariants(48, 32, True, ((16, 1),), 3)
