import inspect
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_algebra import algebras

from findual.algebra import (
    Character,
    FinDimAlgebra,
    cyclic_group_algebra,
    monogenic_algebra,
    truncated_polynomial_algebra,
    validate_algebra,
)
from findual.coalgebra import (
    FinDimCoalgebra,
    divided_power_coalgebra,
    dualize_algebra,
    grouplike_coalgebra,
    grouplikes,
    triangular_coalgebra,
    validate_coalgebra,
)
from findual.errors import (
    BadParamsError,
    InvalidInputError,
    InvalidTwistError,
    NotAModuleAlgebraError,
    NotAnAutomorphismError,
)
from findual import twist as twist_module
from findual.codec import to_canonical_json
from findual.kernel import GF, QQ, Matrix, Poly
from findual.qplane import qtwist_decomposition
from findual.twist import (
    Bialgebra,
    CotwistingMap,
    DualityReport,
    TwistingMap,
    check_cotwisting_map,
    check_twisting_map,
    cotensor_swap,
    crossed_coalgebra,
    dual_bialgebra,
    dual_cotwist,
    grouplike_bialgebra,
    ore_twist,
    primitive_bialgebra_components,
    raw_crossed_coalgebra,
    raw_twisted_algebra,
    scaling_automorphism,
    smash_twist,
    solve_cotwist,
    tensor_swap,
    twist_corpus,
    twisted_product,
    validate_bialgebra,
    verify_crossed_bialgebra_duality,
    verify_twisted_duality,
)

F5 = GF(5)


def sign_automorphism(a):
    return scaling_automorphism(a, a.field.of(-1))


def sweedler_ore_twist():
    # rho(t^i (x) x^j) = (-1)^(ij) x^j (x) t^i on A = GF(5)[x]/(x^2-1), B = GF(5)[t]/(t^2)
    a = monogenic_algebra(F5, Poly.from_ints(F5, [-1, 0, 1]), var="x")
    return ore_twist(a, sign_automorphism(a), 2)


class TestCheckTwisting:
    def test_swap_passes(self):
        for a, b in [
            (truncated_polynomial_algebra(F5, 2), cyclic_group_algebra(F5, 3)),
            (cyclic_group_algebra(F5, 2), truncated_polynomial_algebra(F5, 3)),
        ]:
            assert check_twisting_map(tensor_swap(a, b)).ok

    def test_ore_style_passes(self):
        assert check_twisting_map(sweedler_ore_twist()).ok

    def test_perturbed_swap_fails_with_witness(self):
        a = cyclic_group_algebra(F5, 2)
        b = truncated_polynomial_algebra(F5, 2)
        rho = tensor_swap(a, b)
        ent = list(rho.matrix.entries)
        n = 4
        # perturb the (x (x) g) column away from unit rows/columns
        ent[(1 * 2 + 1) * n + (1 * 2 + 1)] = F5.of(3)
        bad = TwistingMap(a, b, Matrix(F5, n, n, ent))
        rep = check_twisting_map(bad)
        assert rep.normal
        assert not rep.multiplicative
        assert rep.witnesses


class TestTwistedProduct:
    def test_swap_gives_tensor_algebra(self):
        a = cyclic_group_algebra(F5, 2)
        b = truncated_polynomial_algebra(F5, 3)
        prod = twisted_product(tensor_swap(a, b))
        f = F5
        for i1 in range(a.dim):
            for j1 in range(b.dim):
                for i2 in range(a.dim):
                    for j2 in range(b.dim):
                        expected = {}
                        for w, ca in a.mul[i1][i2]:
                            for z, cb in b.mul[j1][j2]:
                                expected[w * b.dim + z] = f.mul(ca, cb)
                        got = dict(prod.mul[i1 * b.dim + j1][i2 * b.dim + j2])
                        assert got == expected

    def test_ore_product_relations(self):
        prod = twisted_product(sweedler_ore_twist())
        # basis: 1#1, 1#t, x#1, x#t
        assert prod.dim == 4
        assert validate_algebra(prod).ok
        # t * x = -x t
        assert dict(prod.mul[1][2]) == {3: 4}
        # x * x = 1
        assert dict(prod.mul[2][2]) == {0: 1}
        # t * t = 0
        assert dict(prod.mul[1][1]) == {}

    def test_invalid_twist_refused(self):
        a = cyclic_group_algebra(F5, 2)
        b = truncated_polynomial_algebra(F5, 2)
        rho = tensor_swap(a, b)
        ent = list(rho.matrix.entries)
        ent[(1 * 2 + 1) * 4 + (1 * 2 + 1)] = F5.of(2)
        bad = TwistingMap(a, b, Matrix(F5, 4, 4, ent))
        with pytest.raises(InvalidTwistError):
            twisted_product(bad)


class TestCotwisting:
    def test_swap_maps_to_swap(self):
        a = cyclic_group_algebra(F5, 2)
        b = truncated_polynomial_algebra(F5, 2)
        phi = dual_cotwist(tensor_swap(a, b))
        expected = cotensor_swap(dualize_algebra(a), dualize_algebra(b))
        assert phi.matrix == expected.matrix

    @pytest.mark.parametrize("field", [F5, QQ], ids=["gf5", "rationals"])
    def test_swap_sends_each_basis_pair_to_its_swap(self, field):
        # column c_i (x) d_j at i * dim(D) + j; row d_j (x) c_i at j * dim(C) + i
        zoo = [triangular_coalgebra(field, 2), grouplike_coalgebra(field, 3),
               divided_power_coalgebra(field, 2)]
        for c in zoo:
            for d in zoo:
                m = cotensor_swap(c, d).matrix
                want = [[int(row == j * c.dim + i) for i in range(c.dim) for j in range(d.dim)]
                        for row in range(m.rows)]
                assert m == Matrix.from_rows(field, want)

    def test_dual_of_passing_twist_passes(self):
        phi = dual_cotwist(sweedler_ore_twist())
        assert check_cotwisting_map(phi).ok

    def test_perturbed_swap_conormal_fails(self):
        c = divided_power_coalgebra(F5, 2)
        d = divided_power_coalgebra(F5, 2)
        phi = cotensor_swap(c, d)
        ent = list(phi.matrix.entries)
        ent[0 * 4 + 0] = F5.of(2)  # break behaviour on c_0 (x) d_0
        bad = CotwistingMap(c, d, Matrix(F5, 4, 4, ent))
        rep = check_cotwisting_map(bad)
        assert not rep.conormal

    def test_crossed_swap_is_tensor_coalgebra(self):
        c = divided_power_coalgebra(F5, 2)
        cd = crossed_coalgebra(cotensor_swap(c, c))
        assert validate_coalgebra(cd).ok
        # distributions on a first-order neighborhood in the plane:
        # Delta(eps1 (x) eps1) has the four expected terms
        terms = dict(((i, j), v) for i, j, v in cd.comul[1 * 2 + 1])
        assert terms == {(0, 3): 1, (1, 2): 1, (2, 1): 1, (3, 0): 1}


class TestTwistedDuality:
    def test_swap(self):
        a = cyclic_group_algebra(F5, 2)
        b = truncated_polynomial_algebra(F5, 3)
        assert verify_twisted_duality(tensor_swap(a, b)).equal

    def test_ore_instance(self):
        assert verify_twisted_duality(sweedler_ore_twist()).equal

    def test_corpus_duality(self):
        corpus = twist_corpus(F5, seed=7, trials=60)
        passing = [rho for rho in corpus if check_twisting_map(rho).ok]
        assert passing, "corpus should contain passing twists"
        for rho in passing:
            assert verify_twisted_duality(rho).equal


def two_check_duality(rho):
    """The duality comparison that checks rho twice: once for the product
    and once for the transposed cotwist."""
    product_dual = dualize_algebra(twisted_product(rho))
    crossed = crossed_coalgebra(dual_cotwist(rho))
    if product_dual == crossed:
        return DualityReport(True, None)
    for r in range(product_dual.dim):
        if product_dual.comul[r] != crossed.comul[r]:
            return DualityReport(False, ("comul", r))
    return DualityReport(False, ("counit",))


def duality_outcome(fn, rho):
    try:
        return fn(rho)
    except InvalidTwistError as exc:
        return type(exc)


def duality_cases():
    """The swaps of the seed-5 corpus, every candidate of a short corpus
    (some are not twisting maps), and rho_q on box(2, 2) and box(4, 4)."""
    swaps = [tensor_swap(rho.a, rho.b) for rho in twist_corpus(F5, seed=5, trials=100)]
    return swaps + twist_corpus(F5, seed=5, trials=20) + [
        qtwist_decomposition(2, 5, a, b).rho_q for a, b in ((2, 2), (4, 4))
    ]


class TestOneTwistCheckPerDuality:
    def test_reports_match_two_checks(self):
        for rho in duality_cases():
            assert duality_outcome(verify_twisted_duality, rho) == duality_outcome(two_check_duality, rho)

    def test_one_check_per_call(self):
        rho = qtwist_decomposition(2, 5, 4, 4).rho_q
        with mock.patch.object(twist_module, "check_twisting_map", wraps=check_twisting_map) as spy:
            assert verify_twisted_duality(rho).equal
        assert spy.call_count == 1

    def test_cotwist_is_still_checked(self):
        rho = sweedler_ore_twist()
        with mock.patch.object(twist_module, "check_cotwisting_map", wraps=check_cotwisting_map) as spy:
            assert verify_twisted_duality(rho).equal
        assert spy.call_count == 1


class TestOreTwist:
    def test_identity_gives_swap(self):
        a = cyclic_group_algebra(F5, 2)
        theta = scaling_automorphism(a, F5.one())
        rho = ore_twist(a, theta, 3)
        assert rho.matrix == tensor_swap(a, rho.b).matrix

    def test_order_four_automorphism(self):
        a = monogenic_algebra(F5, Poly.from_ints(F5, [-1, 0, 0, 0, 1]), var="x")
        theta = scaling_automorphism(a, F5.of(2))  # 2 has order 4 mod 5
        rho = ore_twist(a, theta, 4)
        assert check_twisting_map(rho).ok

    def test_non_automorphism_rejected(self):
        a = cyclic_group_algebra(F5, 2)
        with pytest.raises(NotAnAutomorphismError):
            scaling_automorphism(a, F5.of(2))  # (2g)^2 = 4 != 1

    def test_always_passes_check(self):
        for m, order in [(2, 2), (3, 2), (2, 5), (4, 3)]:
            a = truncated_polynomial_algebra(F5, m, var="x")
            theta = scaling_automorphism(a, F5.of(3))
            assert check_twisting_map(ore_twist(a, theta, order)).ok

    def test_scaling_takes_algebra_and_scale(self):
        # the generator is always t, the basis element at index 1
        assert list(inspect.signature(scaling_automorphism).parameters) == ["a", "scale"]


class TestMixedFields:
    @pytest.mark.parametrize("other", [GF(7), QQ], ids=["gf7", "rationals"])
    def test_twisting_map_rejected(self, other):
        a = truncated_polynomial_algebra(F5, 2)
        b = truncated_polynomial_algebra(other, 2)
        with pytest.raises(BadParamsError):
            TwistingMap(a, b, Matrix.identity(F5, 4))

    @pytest.mark.parametrize("other", [GF(7), QQ], ids=["gf7", "rationals"])
    def test_cotwisting_map_rejected(self, other):
        c = divided_power_coalgebra(F5, 2)
        d = divided_power_coalgebra(other, 2)
        with pytest.raises(BadParamsError):
            CotwistingMap(c, d, Matrix.identity(F5, 4))

    @pytest.mark.parametrize("other", [GF(7), QQ], ids=["gf7", "rationals"])
    def test_twisting_matrix_over_other_field_rejected(self, other):
        a = truncated_polynomial_algebra(F5, 2)
        with pytest.raises(BadParamsError):
            TwistingMap(a, a, Matrix.identity(other, 4))

    @pytest.mark.parametrize("other", [GF(7), QQ], ids=["gf7", "rationals"])
    def test_cotwisting_matrix_over_other_field_rejected(self, other):
        c = divided_power_coalgebra(F5, 2)
        with pytest.raises(BadParamsError):
            CotwistingMap(c, c, Matrix.identity(other, 4))

    @pytest.mark.parametrize("other", [GF(7), QQ], ids=["gf7", "rationals"])
    def test_antipode_over_other_field_rejected(self, other):
        h = grouplike_bialgebra(F5, 2)
        with pytest.raises(BadParamsError):
            Bialgebra(h.alg, h.coalg, Matrix.identity(other, 2))


def raised(matrix, p=5):
    """The matrix with every nonzero GF(p) entry c written as c + p."""
    return Matrix(matrix.field, matrix.rows, matrix.cols, [x + p if x else x for x in matrix.entries])


class TestCanonicalScalars:
    """The map and character constructors store canonical scalars, as the
    algebra and coalgebra constructors do."""

    def test_raised_swap_equals_swap(self):
        a = truncated_polynomial_algebra(F5, 2)
        swap = tensor_swap(a, a)
        rho = TwistingMap(a, a, raised(swap.matrix))
        assert rho == swap
        assert rho.matrix.entries == swap.matrix.entries
        assert hash(rho.matrix) == hash(swap.matrix)
        assert to_canonical_json(rho) == to_canonical_json(swap)

    def test_raised_cotwist_equals_coswap(self):
        c = divided_power_coalgebra(F5, 2)
        coswap = cotensor_swap(c, c)
        phi = CotwistingMap(c, c, raised(coswap.matrix))
        assert phi == coswap
        assert to_canonical_json(phi) == to_canonical_json(coswap)

    def test_zero_written_as_p_has_no_sparse_entry(self):
        a = truncated_polynomial_algebra(F5, 2)
        entries = list(tensor_swap(a, a).matrix.entries)
        entries[1] = 5
        rho = TwistingMap(a, a, Matrix(F5, 4, 4, entries))
        assert rho == tensor_swap(a, a)
        assert all(c for col in rho._cols for _, c in col)

    def test_integral_rational_entry_is_an_int(self):
        a = truncated_polynomial_algebra(QQ, 2)
        entries = [Fraction(x) for x in tensor_swap(a, a).matrix.entries]
        entries[5] = Fraction(2)
        rho = TwistingMap(a, a, Matrix(QQ, 4, 4, entries))
        assert rho.matrix.entries[5] == 2
        assert all(type(x) is int for x in rho.matrix.entries)
        c = divided_power_coalgebra(QQ, 2)
        phi = CotwistingMap(c, c, Matrix(QQ, 4, 4, [Fraction(2)] + [0] * 15))
        assert phi.matrix.entries[0] == 2 and type(phi.matrix.entries[0]) is int

    def test_character_values(self):
        assert Character(truncated_polynomial_algebra(F5, 2), [6, 5]).values == (1, 0)
        values = Character(truncated_polynomial_algebra(QQ, 2), [Fraction(2), Fraction(1, 2)]).values
        assert values == (2, Fraction(1, 2)) and type(values[0]) is int


class TestSmash:
    def test_trivial_action_gives_swap(self):
        h = grouplike_bialgebra(F5, 2)
        a = truncated_polynomial_algebra(F5, 2, var="x")
        cols = []
        for j in range(h.dim):
            for i in range(a.dim):
                col = [F5.zero()] * a.dim
                col[i] = h.coalg.counit[j]
                cols.append(col)
        action = Matrix(F5, a.dim, h.dim * a.dim,
                        [cols[c][r] for r in range(a.dim) for c in range(len(cols))])
        rho = smash_twist(h, a, action)
        assert rho.matrix == tensor_swap(a, h.alg).matrix

    def test_sign_action(self):
        h = grouplike_bialgebra(F5, 2)
        a = truncated_polynomial_algebra(F5, 2, var="x")
        # g . x = -x, g . 1 = 1
        cols = {
            (0, 0): [1, 0], (0, 1): [0, 1],   # identity acts trivially
            (1, 0): [1, 0], (1, 1): [0, 4],   # g negates x
        }
        action = Matrix(F5, 2, 4, [cols[(c // 2, c % 2)][r] for r in range(2) for c in range(4)])
        rho = smash_twist(h, a, action)
        # rho(g (x) x) = -x (x) g: column j=1,i=1 -> row (1*2+1) with -1
        assert rho.matrix.get(3, 3) == 4
        prod = twisted_product(rho)
        assert validate_algebra(prod).ok
        # basis 1#1, 1#g, x#1, x#g: (1#g)(x#1) = -(x#g)
        assert dict(prod.mul[1][2]) == {3: 4}

    def test_bad_action_rejected(self):
        h = grouplike_bialgebra(F5, 2)
        a = truncated_polynomial_algebra(F5, 2, var="x")
        cols = {
            (0, 0): [1, 0], (0, 1): [0, 1],
            (1, 0): [1, 0], (1, 1): [0, 2],  # g . x = 2x: g^2 = 1 forces 4x = x, fails
        }
        action = Matrix(F5, 2, 4, [cols[(c // 2, c % 2)][r] for r in range(2) for c in range(4)])
        with pytest.raises(NotAModuleAlgebraError):
            smash_twist(h, a, action)


class TestBialgebra:
    def test_grouplike_bialgebra_valid(self):
        rep = validate_bialgebra(grouplike_bialgebra(F5, 2))
        assert rep.ok
        assert rep.antipode_valid

    def test_primitive_on_truncation_fails(self):
        h = primitive_bialgebra_components(F5, 2)
        rep = validate_bialgebra(h)
        assert not rep.ok
        assert not rep.comul_multiplicative

    def test_dual_of_group_bialgebra(self):
        h = grouplike_bialgebra(F5, 2)
        hd = dual_bialgebra(h)
        assert validate_bialgebra(hd).ok
        assert len(grouplikes(hd.coalg)) == 2

    def test_double_dual_identity(self):
        h = grouplike_bialgebra(F5, 4)
        hdd = dual_bialgebra(dual_bialgebra(h))
        assert hdd.alg == h.alg and hdd.coalg == h.coalg
        assert hdd.antipode == h.antipode

    def test_unchecked_comul_law_is_not_reported(self):
        h = grouplike_bialgebra(F5, 2)
        comul = list(h.coalg.comul)
        comul[1] = [(1, 1, F5.of(2))]  # Delta(g) = 2 g (x) g breaks the counit law
        bad = Bialgebra(h.alg, FinDimCoalgebra(F5, h.labels, comul, h.coalg.counit), h.antipode)
        rep = validate_bialgebra(bad)
        assert not rep.components_valid
        assert rep.comul_multiplicative is None
        assert not rep.ok


def sweedler_instance():
    """The 4-dimensional crossed product: k[Z/2] # k[x]/(x^2) over GF(5)."""
    a = grouplike_bialgebra(F5, 2)
    rho = ore_twist(a.alg, sign_automorphism(a.alg), 2)
    b = primitive_bialgebra_components(F5, 2, var="t")
    assert b.alg == rho.b
    f = F5
    labels = [f"{x}#{y}" for x in a.labels for y in b.labels]
    # Delta(t) = t (x) g + 1 (x) t; Delta(g) = g (x) g; basis 1#1, 1#t, g#1, g#t
    target = FinDimCoalgebra(
        f,
        labels,
        [
            [(0, 0, 1)],
            [(0, 1, 1), (1, 2, 1)],
            [(2, 2, 1)],
            [(2, 3, 1), (3, 0, 1)],
        ],
        [1, 0, 1, 0],
    )
    phi = solve_cotwist(a.coalg, b.coalg, target)
    return a, b, rho, phi


class TestCrossedBialgebra:
    def test_tensor_of_group_bialgebras(self):
        a = grouplike_bialgebra(F5, 2)
        b = grouplike_bialgebra(F5, 2)
        rho = tensor_swap(a.alg, b.alg)
        phi = cotensor_swap(a.coalg, b.coalg)
        rep = verify_crossed_bialgebra_duality(a, b, rho, phi)
        assert rep.is_bialgebra and rep.duality_holds

    def test_sweedler_instance(self):
        a, b, rho, phi = sweedler_instance()
        assert check_cotwisting_map(phi).ok
        rep = verify_crossed_bialgebra_duality(a, b, rho, phi)
        assert rep.is_bialgebra and rep.duality_holds

    def test_sweedler_dual_is_bialgebra(self):
        from findual.twist import assemble_crossed_bialgebra

        a, b, rho, phi = sweedler_instance()
        assembled = assemble_crossed_bialgebra(rho, phi)
        assert validate_bialgebra(assembled).ok
        hd = dual_bialgebra(assembled)
        assert validate_bialgebra(hd).ok


class TestSmashDuality:
    def test_smash_product_dualizes_as_crossed_product(self):
        # (A # H)* equals A* #^rho* H* entrywise for the sign action
        h = grouplike_bialgebra(F5, 2)
        a = truncated_polynomial_algebra(F5, 2, var="x")
        cols = {
            (0, 0): [1, 0], (0, 1): [0, 1],
            (1, 0): [1, 0], (1, 1): [0, 4],
        }
        action = Matrix(F5, 2, 4, [cols[(c // 2, c % 2)][r] for r in range(2) for c in range(4)])
        rho = smash_twist(h, a, action)
        assert verify_twisted_duality(rho).equal

    def test_ore_duality_higher_order(self):
        # finite shadow of the Ore-extension dual for an order-4 automorphism
        from findual.algebra import monogenic_algebra

        a = monogenic_algebra(F5, Poly.from_ints(F5, [-1, 0, 0, 0, 1]), var="x")
        rho = ore_twist(a, scaling_automorphism(a, F5.of(2)), 4)
        assert verify_twisted_duality(rho).equal


class TestSolveCotwist:
    def test_unreachable_target_rejected(self):
        # with the grouplike factor FIRST, Delta(t) = t (x) 1 + g (x) t cannot be
        # realized by any Delta_phi: the first slot of Delta_phi(1 (x) t) is
        # forced to have trivial A-part
        from findual.errors import BadParamsError

        a = grouplike_bialgebra(F5, 2)
        b = primitive_bialgebra_components(F5, 2, var="t")
        labels = [f"{x}#{y}" for x in a.labels for y in b.labels]
        target = FinDimCoalgebra(
            F5,
            labels,
            [
                [(0, 0, 1)],
                [(1, 0, 1), (2, 1, 1)],  # t (x) 1 + g (x) t
                [(2, 2, 1)],
                [(3, 2, 1), (0, 3, 1)],
            ],
            [1, 0, 1, 0],
        )
        with pytest.raises(BadParamsError):
            solve_cotwist(a.coalg, b.coalg, target)


class TestCorpusEquivalence:
    def test_check_iff_direct_laws(self):
        corpus = twist_corpus(F5, seed=11, trials=120)
        passes = fails = 0
        for rho in corpus:
            rep = check_twisting_map(rho)
            raw = raw_twisted_algebra(rho)
            direct = validate_algebra(raw)
            assert rep.ok == direct.ok, f"discrepancy for {rho!r}: {rep} vs {direct}"
            passes += rep.ok
            fails += not rep.ok
        assert passes and fails

    def test_axiom_duality(self):
        corpus = twist_corpus(F5, seed=13, trials=60)
        for rho in corpus:
            phi = CotwistingMap(
                dualize_algebra(rho.a), dualize_algebra(rho.b), rho.matrix.transpose()
            )
            trep = check_twisting_map(rho)
            crep = check_cotwisting_map(phi)
            assert trep.normal == crep.conormal
            assert trep.multiplicative == crep.comultiplicative


# ---------------------------------------------------------------------------
# twist_corpus builds each Ore twist once per call; the body that built one
# for every draw is kept as the oracle.


def oracle_twist_corpus(field, seed, trials, ore=ore_twist):
    rng = random.Random(seed)
    pool = twist_module._corpus_pool(field)
    out = []
    for _ in range(trials):
        a = rng.choice(pool)
        b = rng.choice(pool)
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
            base = rng.choice(pool[:3])
            theta = scaling_automorphism(base, field.of(scale))
            out.append(ore(base, theta, order))
            continue
        rho = tensor_swap(a, b)
        n = a.dim * b.dim
        f = field
        unit_rows = {i * b.dim + j for i in range(a.dim) for j in range(b.dim)
                     if a.unit[i] != f.zero() or b.unit[j] != f.zero()}
        unit_cols = {j * a.dim + i for j in range(b.dim) for i in range(a.dim)
                     if b.unit[j] != f.zero() or a.unit[i] != f.zero()}
        legal_rows = [r for r in range(n) if r not in unit_rows]
        legal_cols = [c for c in range(n) if c not in unit_cols]
        ent = list(rho.matrix.entries)
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


class TestCorpusOreTwistsBuiltOnce:
    @pytest.mark.parametrize("field,seed,trials", [(F5, 5, 500), (F5, 7, 500), (GF(7), 5, 300),
                                                   (QQ, 5, 200), (F5, 5, 100)],
                             ids=["gf5-seed5", "gf5-seed7", "gf7", "rationals", "gf5-prefix"])
    def test_matches_per_draw_oracle(self, field, seed, trials):
        got = twist_corpus(field, seed, trials)
        want = oracle_twist_corpus(field, seed, trials)
        assert len(got) == len(want)
        for rho, expect in zip(got, want):
            assert rho == expect

    def test_each_ore_twist_is_built_once(self):
        draws = []

        def counting(*args):
            draws.append(args)
            return ore_twist(*args)

        oracle_twist_corpus(F5, 5, 500, ore=counting)
        with mock.patch.object(twist_module, "ore_twist", side_effect=ore_twist) as spy:
            corpus = twist_corpus(F5, 5, 500)
        # pool[:3] x 4 scales x 2 orders over GF(5)
        assert spy.call_count <= 24 < len(draws)
        # repeated Ore draws share one object; every other map is its own
        assert len({id(rho) for rho in corpus}) == len(corpus) - len(draws) + spy.call_count


# ---------------------------------------------------------------------------
# The twisted product emits its table in normal form and stores it as it
# stands; the table builder it replaced, which left each cell in insertion
# order with its zero sums, is kept as the oracle and normalized by the
# public constructor.


def oracle_unsorted_twisted_mul_table(rho):
    a, b = rho.a, rho.b
    da, db = a.dim, b.dim
    n = da * db
    acc = {}
    for i1 in range(da):
        for j1 in range(db):
            left = i1 * db + j1
            for i2 in range(da):
                for flat, c in rho.image_of(j1, i2):
                    x, y = divmod(flat, db)
                    for w, c2 in a.mul[i1][x]:
                        cc = c * c2
                        for j2 in range(db):
                            for z, c3 in b.mul[y][j2]:
                                key = (left, i2 * db + j2, w * db + z)
                                acc[key] = acc.get(key, 0) + cc * c3
    mul = [[[] for _ in range(n)] for _ in range(n)]
    for (left, right, out), v in zip(acc, a.field.canonical(acc.values())):
        mul[left][right].append((out, v))
    return mul


NORMAL_TABLE_CORPORA = [(F5, 5, 500), (QQ, 5, 200), (GF(7), 5, 300)]
NORMAL_TABLE_IDS = ["gf5", "rationals", "gf7"]


def assert_normal_twisted_table(rho):
    raw = raw_twisted_algebra(rho)
    want = FinDimAlgebra(rho.a.field, raw.labels, oracle_unsorted_twisted_mul_table(rho), raw.unit)
    assert raw == want and repr((raw.mul, raw.unit)) == repr((want.mul, want.unit))
    assert raw._gens is None


class TestNormalTwistedTable:
    @pytest.mark.parametrize("field,seed,trials", NORMAL_TABLE_CORPORA, ids=NORMAL_TABLE_IDS)
    def test_table_matches_normalizing_constructor(self, field, seed, trials):
        for rho in twist_corpus(field, seed, trials):
            assert_normal_twisted_table(rho)

    def test_rho_q_table_matches_normalizing_constructor(self):
        # dim 64, with cells of several terms over GF(17)
        rho = qtwist_decomposition(4, 17, 8, 8).rho_q
        assert rho.a.dim * rho.b.dim == 64
        assert_normal_twisted_table(rho)

    @pytest.mark.parametrize("field,seed,trials", NORMAL_TABLE_CORPORA, ids=NORMAL_TABLE_IDS)
    def test_failing_maps_give_undualizable_products(self, field, seed, trials):
        """The raw product is never taken as certified: where rho fails its
        check, dualizing the product still validates it and refuses it."""
        fails = 0
        for rho in twist_corpus(field, seed, trials):
            if not check_twisting_map(rho).ok:
                fails += 1
                with pytest.raises(InvalidInputError):
                    dualize_algebra(raw_twisted_algebra(rho))
        assert fails > trials // 10

    def test_sparse_columns_read_every_entry(self):
        for rho in twist_corpus(F5, 7, 60) + twist_corpus(QQ, 7, 20):
            m = rho.matrix
            for col in range(m.cols):
                j, i = divmod(col, rho.a.dim)
                want = tuple((r, m.get(r, col)) for r in range(m.rows) if m.get(r, col) != m.field.zero())
                assert rho.image_of(j, i) == want
            phi = CotwistingMap(dualize_algebra(rho.a), dualize_algebra(rho.b), m.transpose())
            t = phi.matrix
            for col in range(t.cols):
                i, j = divmod(col, phi.d.dim)
                want = tuple((r, t.get(r, col)) for r in range(t.rows) if t.get(r, col) != t.field.zero())
                assert phi.image_of(i, j) == want


# ---------------------------------------------------------------------------
# the per-scalar law checks that the lazy lhs - rhs checks replaced, kept as
# oracles: each law is evaluated with f.add / f.mul per term and compared
# entrywise, and the first failure in loop order is the witness


def oracle_same_dict(f, lhs, rhs):
    zero = f.zero()
    return all(lhs.get(key, zero) == rhs.get(key, zero) for key in set(lhs) | set(rhs))


def oracle_check_twisting_map(rho):
    a, b = rho.a, rho.b
    f = a.field
    da, db = a.dim, b.dim
    zero = f.zero()

    def normal_failure():
        for i in range(da):
            out = [zero] * (da * db)
            for j, uj in enumerate(b.unit):
                for flat, c in rho.image_of(j, i):
                    out[flat] = f.add(out[flat], f.mul(uj, c))
            expected = [zero] * (da * db)
            for j, uj in enumerate(b.unit):
                expected[i * db + j] = uj
            if out != expected:
                return ("normal-left", (i,))
        for j in range(db):
            out = [zero] * (da * db)
            for i, ui in enumerate(a.unit):
                for flat, c in rho.image_of(j, i):
                    out[flat] = f.add(out[flat], f.mul(ui, c))
            expected = [zero] * (da * db)
            for i, ui in enumerate(a.unit):
                expected[i * db + j] = ui
            if out != expected:
                return ("normal-right", (j,))
        return None

    def multiplicative_failure():
        for j in range(db):
            for i1 in range(da):
                for i2 in range(da):
                    lhs = [zero] * (da * db)
                    for r, c in a.mul[i1][i2]:
                        for flat, c2 in rho.image_of(j, r):
                            lhs[flat] = f.add(lhs[flat], f.mul(c, c2))
                    rhs = [zero] * (da * db)
                    for flat, c in rho.image_of(j, i1):
                        x, y = divmod(flat, db)
                        for flat2, c2 in rho.image_of(y, i2):
                            u, v = divmod(flat2, db)
                            for w, c3 in a.mul[x][u]:
                                rhs[w * db + v] = f.add(rhs[w * db + v], f.mul(f.mul(c, c2), c3))
                    if lhs != rhs:
                        return ("multiplicative-A", (j, i1, i2))
        for j1 in range(db):
            for j2 in range(db):
                for i in range(da):
                    lhs = [zero] * (da * db)
                    for s, c in b.mul[j1][j2]:
                        for flat, c2 in rho.image_of(s, i):
                            lhs[flat] = f.add(lhs[flat], f.mul(c, c2))
                    rhs = [zero] * (da * db)
                    for flat, c in rho.image_of(j2, i):
                        x, y = divmod(flat, db)
                        for flat2, c2 in rho.image_of(j1, x):
                            u, v = divmod(flat2, db)
                            for w, c3 in b.mul[v][y]:
                                rhs[u * db + w] = f.add(rhs[u * db + w], f.mul(f.mul(c, c2), c3))
                    if lhs != rhs:
                        return ("multiplicative-B", (j1, j2, i))
        return None

    normal, mult = normal_failure(), multiplicative_failure()
    return (normal is None, mult is None, tuple(w for w in (normal, mult) if w))


def oracle_twisted_mul_table(rho):
    a, b = rho.a, rho.b
    f = a.field
    db = b.dim
    n = a.dim * db
    mul = [[[] for _ in range(n)] for _ in range(n)]
    for i1 in range(a.dim):
        for j1 in range(db):
            for i2 in range(a.dim):
                for j2 in range(db):
                    acc = {}
                    for flat, c in rho.image_of(j1, i2):
                        x, y = divmod(flat, db)
                        for w, c2 in a.mul[i1][x]:
                            for z, c3 in b.mul[y][j2]:
                                idx = w * db + z
                                acc[idx] = f.add(acc.get(idx, f.zero()), f.mul(f.mul(c, c2), c3))
                    mul[i1 * db + j1][i2 * db + j2] = sorted(acc.items())
    return mul


def oracle_check_cotwisting_map(phi):
    c, d = phi.c, phi.d
    f = c.field
    dc, dd = c.dim, d.dim
    zero = f.zero()

    def conormal_failure():
        for i in range(dc):
            for j in range(dd):
                left = [zero] * dc
                right = [zero] * dd
                for flat, cf in phi.image_of(i, j):
                    y, x = divmod(flat, dc)
                    left[x] = f.add(left[x], f.mul(cf, d.counit[y]))
                    right[y] = f.add(right[y], f.mul(cf, c.counit[x]))
                if left != [d.counit[j] if k == i else zero for k in range(dc)]:
                    return ("conormal-left", (i, j))
                if right != [c.counit[i] if k == j else zero for k in range(dd)]:
                    return ("conormal-right", (i, j))
        return None

    def comultiplicative_failure():
        for r in range(dc):
            for s in range(dd):
                lhs, rhs = {}, {}
                for flat, cf in phi.image_of(r, s):
                    y, x = divmod(flat, dc)
                    for u, v, cf2 in c.comul[x]:
                        lhs[(y, u, v)] = f.add(lhs.get((y, u, v), zero), f.mul(cf, cf2))
                for u1, u2, cf in c.comul[r]:
                    for flat, cf2 in phi.image_of(u2, s):
                        y, x = divmod(flat, dc)
                        for flat2, cf3 in phi.image_of(u1, y):
                            v, w = divmod(flat2, dc)
                            rhs[(v, w, x)] = f.add(rhs.get((v, w, x), zero), f.mul(f.mul(cf, cf2), cf3))
                if not oracle_same_dict(f, lhs, rhs):
                    return ("comultiplicative-C", (r, s))
        for r in range(dc):
            for s in range(dd):
                lhs, rhs = {}, {}
                for flat, cf in phi.image_of(r, s):
                    y, x = divmod(flat, dc)
                    for v1, v2, cf2 in d.comul[y]:
                        lhs[(v1, v2, x)] = f.add(lhs.get((v1, v2, x), zero), f.mul(cf, cf2))
                for w1, w2, cf in d.comul[s]:
                    for flat, cf2 in phi.image_of(r, w1):
                        y, x = divmod(flat, dc)
                        for flat2, cf3 in phi.image_of(x, w2):
                            v, u = divmod(flat2, dc)
                            rhs[(y, v, u)] = f.add(rhs.get((y, v, u), zero), f.mul(f.mul(cf, cf2), cf3))
                if not oracle_same_dict(f, lhs, rhs):
                    return ("comultiplicative-D", (r, s))
        return None

    conormal, comult = conormal_failure(), comultiplicative_failure()
    return (conormal is None, comult is None, tuple(w for w in (conormal, comult) if w))


def oracle_crossed_comul(phi):
    c, d = phi.c, phi.d
    f = c.field
    dc, dd = c.dim, d.dim
    comul = []
    for r in range(dc):
        for s in range(dd):
            acc = {}
            for i1, i2, cf1 in c.comul[r]:
                for j1, j2, cf2 in d.comul[s]:
                    for flat, cf3 in phi.image_of(i2, j1):
                        y, x = divmod(flat, dc)
                        key = (i1 * dd + y, x * dd + j2)
                        acc[key] = f.add(acc.get(key, f.zero()), f.mul(f.mul(cf1, cf2), cf3))
            comul.append(tuple((i, j, v) for (i, j), v in sorted(acc.items()) if v != f.zero()))
    return tuple(comul)


def oracle_validate_bialgebra(h):
    alg, coalg = h.alg, h.coalg
    f = alg.field
    n = alg.dim
    zero = f.zero()
    components = validate_algebra(alg).ok and validate_coalgebra(coalg).ok
    witnesses = [] if components else [("components", ())]
    comul_mult = True if components else None  # never evaluated on invalid components
    if components:
        for i, j in ((i, j) for i in range(n) for j in range(n)):
            lhs, rhs = {}, {}
            for r, c in alg.mul[i][j]:
                for x, y, cf in coalg.comul[r]:
                    lhs[(x, y)] = f.add(lhs.get((x, y), zero), f.mul(c, cf))
            for x1, y1, c1 in coalg.comul[i]:
                for x2, y2, c2 in coalg.comul[j]:
                    for w, cw in alg.mul[x1][x2]:
                        for z, cz in alg.mul[y1][y2]:
                            term = f.mul(f.mul(c1, c2), f.mul(cw, cz))
                            rhs[(w, z)] = f.add(rhs.get((w, z), zero), term)
            if not oracle_same_dict(f, lhs, rhs):
                comul_mult = False
                witnesses.append(("comul-multiplicative", (i, j)))
                break
    delta_unit = [zero] * (n * n)
    for r, ur in enumerate(alg.unit):
        for i, j, c in coalg.comul[r]:
            delta_unit[i * n + j] = f.add(delta_unit[i * n + j], f.mul(ur, c))
    comul_unital = delta_unit == [f.mul(x, y) for x in alg.unit for y in alg.unit]
    if not comul_unital:
        witnesses.append(("comul-unit", ()))

    def counit_of(vec):
        out = zero
        for e, x in zip(coalg.counit, vec):
            out = f.add(out, f.mul(e, x))
        return out

    counit_mult = True
    for i, j in ((i, j) for i in range(n) for j in range(n)):
        if counit_of(alg.basis_product(i, j)) != f.mul(coalg.counit[i], coalg.counit[j]):
            counit_mult = False
            witnesses.append(("counit-multiplicative", (i, j)))
            break
    counit_unital = counit_of(alg.unit) == f.one()
    if not counit_unital:
        witnesses.append(("counit-unit", ()))
    antipode_valid = None
    if h.antipode is not None:
        antipode_valid = True
        basis = [[f.one() if k == i else zero for k in range(n)] for i in range(n)]
        for r in range(n):
            left = [zero] * n
            right = [zero] * n
            for i, j, c in coalg.comul[r]:
                term = alg.multiply(h.antipode.apply(basis[i]), basis[j])
                left = [f.add(x, f.mul(c, y)) for x, y in zip(left, term)]
                term2 = alg.multiply(basis[i], h.antipode.apply(basis[j]))
                right = [f.add(x, f.mul(c, y)) for x, y in zip(right, term2)]
            target = [f.mul(coalg.counit[r], u) for u in alg.unit]
            if left != target or right != target:
                antipode_valid = False
                witnesses.append(("antipode", (r,)))
                break
    return (components, comul_mult, comul_unital, counit_mult, counit_unital,
            antipode_valid, tuple(witnesses))


def oracle_module_algebra_failure(h, a, action):
    """The first failing module-algebra axiom of smash_twist, or None."""
    f = a.field
    dh, da = h.dim, a.dim
    zero = f.zero()

    def act(j, i):
        return [action.get(r, j * da + i) for r in range(da)]

    def act_vec(j, vec):
        out = [zero] * da
        for i, vi in enumerate(vec):
            out = [f.add(x, f.mul(vi, y)) for x, y in zip(out, act(j, i))]
        return out

    def combo(pairs):
        out = [zero] * da
        for c, vec in pairs:
            out = [f.add(x, f.mul(c, y)) for x, y in zip(out, vec)]
        return out

    for i in range(da):
        if combo((uj, act(j, i)) for j, uj in enumerate(h.alg.unit)) != [
                f.one() if k == i else zero for k in range(da)]:
            return ("unit-action", (i,))
    for j1 in range(dh):
        for j2 in range(dh):
            for i in range(da):
                lhs = combo((c, act(s, i)) for s, c in h.alg.mul[j1][j2])
                if lhs != act_vec(j1, act(j2, i)):
                    return ("associativity", (j1, j2, i))
    for j in range(dh):
        for k1 in range(da):
            for k2 in range(da):
                lhs = combo((c, act(j, r)) for r, c in a.mul[k1][k2])
                rhs = combo((cf, a.multiply(act(j1, k1), act(j2, k2)))
                            for j1, j2, cf in h.coalg.comul[j])
                if lhs != rhs:
                    return ("module-algebra", (j, k1, k2))
    for j in range(dh):
        if act_vec(j, list(a.unit)) != [f.mul(h.coalg.counit[j], u) for u in a.unit]:
            return ("unit-preservation", (j,))
    return None


def oracle_smash_entries(h, a, action):
    f = a.field
    dh, da = h.dim, a.dim
    n = da * dh
    ent = [f.zero()] * (n * n)
    for j in range(dh):
        for i in range(da):
            for j1, j2, cf in h.coalg.comul[j]:
                for x in range(da):
                    k = (x * dh + j2) * n + j * da + i
                    ent[k] = f.add(ent[k], f.mul(cf, action.get(x, j1 * da + i)))
    return ent


ORACLE_FIELDS = [GF(2), GF(3), GF(5), GF(7), QQ]


@st.composite
def twisting_maps(draw):
    """A short seeded twist_corpus stream over a small field, or the swap of
    two algebras in random bases (structure constants other than 0 and 1)
    with one matrix entry optionally replaced."""
    if draw(st.booleans()):
        f = draw(st.sampled_from(ORACLE_FIELDS))
        return twist_corpus(f, seed=draw(st.integers(0, 10**6)), trials=draw(st.integers(1, 6)))
    a = draw(algebras().filter(lambda a: a.dim <= 4))
    b = draw(algebras(field=a.field).filter(lambda b: b.dim <= 4))
    f = a.field
    ent = list(tensor_swap(a, b).matrix.entries)
    if draw(st.booleans()):
        ent[draw(st.integers(0, len(ent) - 1))] = f.of(draw(st.integers(-3, 3)))
    n = a.dim * b.dim
    return [TwistingMap(a, b, Matrix(f, n, n, ent))]


@st.composite
def perturbed_cotwists(draw):
    """Transposes of twisting maps on the dual coalgebras, one entry of the
    matrix optionally replaced."""
    out = []
    for rho in draw(twisting_maps()):
        f = rho.a.field
        ent = list(rho.matrix.transpose().entries)
        if draw(st.booleans()):
            ent[draw(st.integers(0, len(ent) - 1))] = f.of(draw(st.integers(-3, 3)))
        n = rho.matrix.rows
        out.append(CotwistingMap(dualize_algebra(rho.a), dualize_algebra(rho.b),
                                 Matrix(f, n, n, ent)))
    return out


@st.composite
def bialgebra_candidates(draw):
    """The group bialgebra of Z/m with a perturbed antipode, counit or comul
    entry, or a truncated-polynomial or group algebra on the same labels paired
    with the dual of either, so that comultiplicativity is reached and can fail."""
    f = draw(st.sampled_from(ORACLE_FIELDS))
    m = draw(st.integers(1, 4))
    h = grouplike_bialgebra(f, m)
    scalar = st.integers(-3, 3).map(f.of)
    kind = draw(st.sampled_from(["antipode", "counit", "comul", "mixed"]))
    if kind == "counit":
        counit = list(h.coalg.counit)
        counit[draw(st.integers(0, m - 1))] = draw(scalar)
        return Bialgebra(h.alg, FinDimCoalgebra(f, h.labels, h.coalg.comul, counit), h.antipode)
    if kind == "mixed":
        algs = [truncated_polynomial_algebra(f, m, var="g"), cyclic_group_algebra(f, m, var="g")]
        coalg = dualize_algebra(draw(st.sampled_from(algs)))
        return Bialgebra(draw(st.sampled_from(algs)), coalg, h.antipode)
    if kind == "antipode":
        ent = list(h.antipode.entries)
        ent[draw(st.integers(0, m * m - 1))] = draw(scalar)
        return Bialgebra(h.alg, h.coalg, Matrix(f, m, m, ent))
    r, i, j = (draw(st.integers(0, m - 1)) for _ in range(3))
    comul = [[t for t in h.coalg.comul[k] if k != r or t[:2] != (i, j)] for k in range(m)]
    comul[r].append((i, j, draw(scalar)))
    return Bialgebra(h.alg, FinDimCoalgebra(f, h.labels, comul, h.coalg.counit), h.antipode)


@st.composite
def module_actions(draw):
    """The trivial action of the group bialgebra of Z/2 on a small algebra,
    with one entry of the action matrix usually replaced."""
    f = draw(st.sampled_from([GF(3), GF(5), GF(7), QQ]))
    h = grouplike_bialgebra(f, 2)
    a = draw(st.sampled_from([truncated_polynomial_algebra(f, 2), cyclic_group_algebra(f, 2),
                              truncated_polynomial_algebra(f, 3)]))
    da = a.dim
    ent = [f.one() if c % da == r else f.zero() for r in range(da) for c in range(2 * da)]
    if draw(st.integers(0, 9)):
        ent[draw(st.integers(0, len(ent) - 1))] = f.of(draw(st.integers(-2, 2)))
    return h, a, Matrix(f, da, 2 * da, ent)


class TestLawChecksAgainstOracles:
    @settings(max_examples=150)
    @given(twisting_maps())
    def test_twisting_reports_match_per_scalar_checks(self, corpus):
        for rho in corpus:
            assert tuple(check_twisting_map(rho)) == oracle_check_twisting_map(rho)

    @given(twisting_maps())
    def test_twisted_table_matches_per_scalar_table(self, corpus):
        for rho in corpus:
            raw = raw_twisted_algebra(rho)
            assert raw.mul == FinDimAlgebra(rho.a.field, raw.labels,
                                            oracle_twisted_mul_table(rho), raw.unit).mul

    @settings(max_examples=150)
    @given(perturbed_cotwists())
    def test_cotwisting_reports_match_per_scalar_checks(self, maps):
        for phi in maps:
            assert tuple(check_cotwisting_map(phi)) == oracle_check_cotwisting_map(phi)
            assert raw_crossed_coalgebra(phi).comul == oracle_crossed_comul(phi)

    @settings(max_examples=150)
    @given(bialgebra_candidates())
    def test_bialgebra_reports_match_per_scalar_checks(self, h):
        assert tuple(validate_bialgebra(h)) == oracle_validate_bialgebra(h)

    @settings(max_examples=150)
    @given(module_actions())
    def test_smash_twist_fails_on_the_same_axiom(self, case):
        h, a, action = case
        want = oracle_module_algebra_failure(h, a, action)
        if want is None:
            assert list(smash_twist(h, a, action).matrix.entries) == oracle_smash_entries(h, a, action)
        else:
            with pytest.raises(NotAModuleAlgebraError) as err:
                smash_twist(h, a, action)
            assert (err.value.axiom, err.value.witness) == want
