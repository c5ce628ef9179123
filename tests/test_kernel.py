import inspect
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import findual
from findual.errors import BadParamsError, OrderUnavailableError, ZeroPolynomialError
from findual.kernel import (
    GF,
    QQ,
    Matrix,
    Poly,
    PrimeField,
    echelon_rows,
    factor_over_field,
    in_row_span,
    is_prime,
    primitive_root_of_unity,
    reduce_against,
    row_pivots,
    rref_kernel,
)
from findual.kernel import fields as fields_module
from findual.kernel.fields import prime_factors
from findual.kernel.poly import _berlekamp_split, _factor_degrees, _squarefree_decomposition_gf


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        assert [n for n in range(20000) if is_prime(n)] == [
            n for n in range(20000) if trial_division_is_prime(n)]

    @pytest.mark.parametrize("n", [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
        318665857834031151167461,  # strong pseudoprime to the prime bases up to 37
    ])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(10007) and not is_prime(10007 * 10009)

    def test_modulus_bound(self):
        assert is_prime(3317044064679887385961813)  # the largest prime below the bound
        with pytest.raises(BadParamsError):
            GF(3317044064679887385961981)
        with pytest.raises(BadParamsError):
            GF(10**30 + 57)


def run_snippet(code, timeout):
    """stdout of `code` run in a fresh interpreter on this source tree."""
    src = os.path.dirname(os.path.dirname(findual.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": src},
    )
    return proc.stdout


class TestRationalScalarFromJson:
    @pytest.mark.parametrize("doc, value", [("3/2", Fraction(3, 2)), ("-4/2", -2), ("5/1", 5), ("-0/5", 0)])
    def test_reads_canonical_scalars(self, doc, value):
        got = QQ.scalar_from_json(doc)
        assert (got, type(got)) == (value, type(value))

    @pytest.mark.parametrize("doc", ["1/0", "-3/-0", "2/00"])
    def test_zero_denominator_is_named(self, doc):
        with pytest.raises(BadParamsError, match=f"zero denominator in {doc!r}"):
            QQ.scalar_from_json(doc)


class TestPrimitiveRoots:
    def test_gf5_order_2(self):
        assert primitive_root_of_unity(GF(5), 2) == 4

    def test_gf5_order_4_smallest(self):
        # 2, 4, 8=3, 16=1: order of 2 is exactly 4 and 2 is the least such residue
        assert primitive_root_of_unity(GF(5), 4) == 2

    def test_gf5_order_3_unavailable(self):
        with pytest.raises(OrderUnavailableError):
            primitive_root_of_unity(GF(5), 3)

    def test_rationals(self):
        assert primitive_root_of_unity(QQ, 1) == Fraction(1)
        assert primitive_root_of_unity(QQ, 2) == Fraction(-1)
        with pytest.raises(OrderUnavailableError):
            primitive_root_of_unity(QQ, 4)

    @pytest.mark.parametrize("p,n", [(5, 1), (5, 2), (5, 4), (13, 2), (13, 3), (13, 4), (13, 6), (13, 12), (7, 3)])
    def test_order_is_exact(self, p, n):
        f = GF(p)
        q = primitive_root_of_unity(f, n)
        assert f.pow(q, n) == 1
        for d in range(1, n):
            if n % d == 0:
                assert f.pow(q, d) != 1

    def test_matches_brute_force_below_300(self):
        # both scans are reached: e.g. (p, n) = (293, 2) takes the min over the
        # z^k and (293, 73) the scan over x
        for p in filter(is_prime, range(300)):
            divisors = [d for d in range(1, p) if (p - 1) % d == 0]
            order = {x: next(d for d in divisors if pow(x, d, p) == 1) for x in range(1, p)}
            for n in divisors:
                want = min(x for x in range(1, p) if order[x] == n)
                assert primitive_root_of_unity(GF(p), n) == want, (p, n)

    @pytest.mark.parametrize("bound", [None, 20])
    def test_search_refused_exactly_above_its_estimate(self, bound, monkeypatch):
        """Below the bound the root is the brute-force smallest element of
        order n; above it the search is refused.  The real bound refuses no
        (n, p) with p < 500, and the bound 20 splits them."""
        if bound is not None:
            monkeypatch.setattr(fields_module, "_ROOT_SEARCH_BOUND", bound)
        refused = 0
        for p in filter(is_prime, range(500)):
            divisors = [d for d in range(1, p) if (p - 1) % d == 0]
            order = {x: next(d for d in divisors if pow(x, d, p) == 1) for x in range(1, p)}
            for n in divisors:
                phi = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
                steps = (p - 1) // phi if n * phi > p - 1 else n
                if bound is not None and steps > bound:
                    refused += 1
                    with pytest.raises(BadParamsError, match=f"about {steps} steps"):
                        primitive_root_of_unity(GF(p), n)
                else:
                    assert primitive_root_of_unity(GF(p), n) == min(x for x in order if order[x] == n), (p, n)
        assert (refused > 0) == (bound is not None)

    def test_large_prime_order_2_returns_promptly(self):
        # the smallest element of order 2 is p - 1: a scan of [1, p) would not return
        src = os.path.dirname(os.path.dirname(findual.__file__))
        code = ("from findual.kernel import GF, primitive_root_of_unity\n"
                "print(primitive_root_of_unity(GF(1000000000039), 2))")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout == "1000000000038\n"

    def test_million_step_walk_returns_promptly(self):
        # n = 1000003 with (p - 1) / n = 999994: the walk over z, ..., z^n
        # takes one product a step, about 0.5 s; a modular power per k took 4.5 s
        src = os.path.dirname(os.path.dirname(findual.__file__))
        code = ("from findual.kernel import GF, primitive_root_of_unity\n"
                "print(primitive_root_of_unity(GF(999996999983), 1000003))")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=3,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout == "1002038\n"

    def test_large_order_returns_promptly(self):
        # n = (p - 1) / 2 = 7^2 * 67 * 1523: a scan of the divisors below n, or
        # a min over all n powers z^k, takes seconds; 2 is a non-square mod p
        # (p = 3 mod 8), so 3 is the smallest element of order n
        src = os.path.dirname(os.path.dirname(findual.__file__))
        code = ("from findual.kernel import GF, primitive_root_of_unity\n"
                "print(primitive_root_of_unity(GF(10000019), 5000009))")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=5,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout == "3\n"

    def test_huge_prime_order_returns_promptly(self):
        # n = (p - 1) / 2 is prime, so the elements of order n are the squares
        # other than 1; 2 is a non-square mod p (p = 3 mod 8) and 3 a square
        out = run_snippet("from findual.kernel import GF, primitive_root_of_unity\n"
                          "print(primitive_root_of_unity(GF(2000000000000001683), 1000000000000000841))",
                          timeout=5)
        assert out == "3\n"

    def test_order_with_two_40_bit_prime_factors_returns_promptly(self):
        # n = 549755813911 * 824633721803 and p = 2n + 1 is prime: 2^n = -1, and
        # 3^n = 1 with 3^(n/l) != 1 for both prime factors l, so 3 is the answer
        out = run_snippet("from findual.kernel import GF, primitive_root_of_unity\n"
                          "print(primitive_root_of_unity(GF(906694365816530822803067), "
                          "549755813911 * 824633721803))", timeout=5)
        assert out == "3\n"


def oracle_prime_factors(n):
    return [d for d in range(2, n + 1) if n % d == 0 and trial_division_is_prime(d)]


# primes on both sides of the trial-division bound, so products of them reach
# the rho stage with repeated, squared and cubed factors
SMALL_PRIMES = [n for n in range(2, 3000) if trial_division_is_prime(n)]


class TestPrimeFactors:
    def test_matches_brute_force_below_3000(self):
        assert all(prime_factors(n) == oracle_prime_factors(n) for n in range(1, 3000))

    @settings(max_examples=300)
    @given(st.integers(1, 10**5 - 1))
    def test_matches_brute_force_below_1e5(self, n):
        assert prime_factors(n) == oracle_prime_factors(n)

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=6))
    def test_known_factorizations(self, primes):
        n = 1
        for q in primes:
            n *= q
        assert prime_factors(n) == sorted(set(primes))

    @pytest.mark.parametrize("n,primes", [
        (1031 ** 2, [1031]), (1031 ** 3, [1031]), (1031 ** 2 * 1033, [1031, 1033]),
        (2 ** 5 * 1031 * 2999, [2, 1031, 2999]),
    ])
    def test_prime_powers_above_the_trial_bound(self, n, primes):
        assert prime_factors(n) == primes

    def test_huge_prime_returns_promptly(self):
        # 10^18 + 841 is prime: trial division up to its square root would not return
        out = run_snippet("from findual.kernel.fields import prime_factors\n"
                          "print(prime_factors(1000000000000000841))", timeout=5)
        assert out == "[1000000000000000841]\n"

    def test_two_40_bit_primes_return_promptly(self):
        out = run_snippet("from findual.kernel.fields import prime_factors\n"
                          "print(prime_factors(549755813911 * 824633721803))", timeout=5)
        assert out == "[549755813911, 824633721803]\n"


class TestFactor:
    def test_takes_only_the_polynomial(self):
        # the field is always the polynomial's own
        assert list(inspect.signature(factor_over_field).parameters) == ["f"]

    def test_t2_minus_1_gf5(self):
        f = Poly.from_ints(GF(5), [-1, 0, 1])
        fac = factor_over_field(f)
        assert fac.complete
        # canonical order: degree, then lexicographic coefficients (lowest first)
        assert [(g.coeffs, m) for g, m in fac.factors] == [((1, 1), 1), ((4, 1), 1)]

    def test_t2_plus_1_gf5(self):
        f = Poly.from_ints(GF(5), [1, 0, 1])
        fac = factor_over_field(f)
        # 2^2 = 4 = -1 mod 5, so roots 2 and 3
        assert sorted(tuple(g.coeffs) for g, _ in fac.factors) == [(2, 1), (3, 1)]

    def test_t2_minus_2_gf5_irreducible(self):
        f = Poly.from_ints(GF(5), [-2, 0, 1])
        fac = factor_over_field(f)
        assert fac.complete
        assert len(fac.factors) == 1
        g, m = fac.factors[0]
        assert g.degree() == 2 and m == 1

    def test_zero_poly(self):
        with pytest.raises(ZeroPolynomialError):
            factor_over_field(Poly(GF(5), []))

    def test_multiplicities(self):
        # (t-1)^2 (t-2)^3 over GF(7)
        f7 = GF(7)
        f = Poly.from_ints(f7, [-1, 1])
        g = Poly.from_ints(f7, [-2, 1])
        h = f * f * g * g * g
        fac = factor_over_field(h)
        assert dict((tuple(q.coeffs), m) for q, m in fac.factors) == {(6, 1): 2, (5, 1): 3}
        assert fac.product(f7) == h

    def test_frobenius_power(self):
        # t^5 - t = t(t-1)(t-2)(t-3)(t-4) over GF(5)
        f = Poly.from_ints(GF(5), [0, -1, 0, 0, 0, 1])
        fac = factor_over_field(f)
        assert len(fac.factors) == 5
        assert all(g.degree() == 1 for g, _ in fac.factors)

    def test_pth_power(self):
        # (t-1)^5 over GF(5) has zero derivative
        f5 = GF(5)
        lin = Poly.from_ints(f5, [-1, 1])
        f = lin
        for _ in range(4):
            f = f * lin
        fac = factor_over_field(f)
        assert fac.factors == ((lin, 5),)

    def test_rational_split(self):
        f = Poly.from_ints(QQ, [2, -3, 1])  # (t-1)(t-2)
        fac = factor_over_field(f)
        assert fac.complete
        assert len(fac.factors) == 2

    def test_rational_not_split(self):
        f = Poly.from_ints(QQ, [-2, 0, 1])  # t^2 - 2
        fac = factor_over_field(f)
        assert not fac.complete

    def test_rational_fractional_root(self):
        f = Poly.from_ints(QQ, [-1, 0, 2])  # 2t^2 - 1? no: 2t^2 - 1 has irrational roots
        fac = factor_over_field(f)
        assert not fac.complete
        g = Poly.from_ints(QQ, [-1, 2])  # 2t - 1, root 1/2
        fac = factor_over_field(g * g)
        assert fac.complete
        assert fac.factors[0][1] == 2
        assert fac.product(QQ) == g * g

    def test_rational_roots_beside_a_large_semiprime_return_promptly(self):
        # (3t - 1)(5t - 7)(t^2 - N), N a product of two 40-bit primes: the
        # roots 1/3 and 7/5 are found without factoring 7N
        out = run_snippet(
            "from findual.kernel import QQ, Poly, factor_over_field\n"
            "n = 549755813911 * 824633721803\n"
            "f = Poly.from_ints(QQ, [-1, 3]) * Poly.from_ints(QQ, [-7, 5]) * Poly.from_ints(QQ, [-n, 0, 1])\n"
            "fac = factor_over_field(f)\n"
            "print(fac.complete, [g.coeffs for g, _ in fac.factors])", timeout=5)
        assert out == "False [(Fraction(-7, 5), 1), (Fraction(-1, 3), 1), (-453347182908265411401533, 0, 1)]\n"

    def test_refinement_property(self):
        # factors of f*g refine the concatenated factors of f and g
        rng = random.Random(11)
        f5 = GF(5)
        for _ in range(25):
            f = Poly(f5, [rng.randrange(5) for _ in range(rng.randint(2, 5))])
            g = Poly(f5, [rng.randrange(5) for _ in range(rng.randint(2, 5))])
            if f.degree() < 1 or g.degree() < 1:
                continue
            combined = {}
            for q, m in factor_over_field(f).factors:
                combined[q] = combined.get(q, 0) + m
            for q, m in factor_over_field(g).factors:
                combined[q] = combined.get(q, 0) + m
            prod = factor_over_field(f * g)
            assert dict(prod.factors) == combined



def oracle_berlekamp_split(f, p):
    """The split by trial constants: gcd(g, v - c) for c = 0, ..., p - 1."""
    field = f.field
    n = f.degree()
    if n <= 1:
        return [f]
    tp = Poly.x(field).pow_mod(p, f)
    rows = []
    cur = Poly.constant(field, field.one())
    for i in range(n):
        rows.append(list(cur.coeffs) + [field.zero()] * (n - len(cur.coeffs)))
        cur = (cur * tp) % f
    for i in range(n):
        rows[i][i] = field.sub(rows[i][i], field.one())
    ker = rref_kernel(Matrix.from_rows(field, rows).transpose()).kernel
    kernel = [ker.col(c) for c in range(ker.cols)]
    if len(kernel) == 1:
        return [f]
    factors = [f]
    for vec in kernel[1:]:
        v = Poly(field, vec)
        if v.degree() < 1:
            continue
        next_factors = []
        for g in factors:
            if g.degree() <= 1:
                next_factors.append(g)
                continue
            pieces = []
            rest = g
            for c in range(p):
                if rest.degree() < 1:
                    break
                d = rest.gcd(v - Poly.constant(field, field.of(c)))
                if 1 <= d.degree() < rest.degree():
                    pieces.append(d)
                    rest = (rest // d).monic()
                elif d.degree() == rest.degree():
                    break
            pieces.append(rest)
            next_factors.extend(q for q in pieces if q.degree() >= 1)
        factors = next_factors
        if len(factors) == len(kernel):
            break
    return factors


SPLIT_PRIMES = [2, 3, 5, 7, 11, 13, 31, 157]


class TestBerlekampSplit:
    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(SPLIT_PRIMES), st.data())
    def test_matches_trial_constant_split(self, p, data):
        f = GF(p)
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=8))
        poly = Poly.from_ints(f, coeffs + [1])
        for g in _squarefree_decomposition_gf(poly, p):
            got = sorted(_berlekamp_split(g, p), key=Poly.sort_key)
            assert got == sorted(oracle_berlekamp_split(g, p), key=Poly.sort_key)

    def test_large_moduli_split_promptly(self):
        # trying every constant would take about p gcds: hours at p = 10^9 + 7
        out = run_snippet(
            "from findual import GF, Poly, dualize_algebra, factor_over_field, grouplikes,"
            " monogenic_algebra, one_dim_characters, semisimple_profile\n"
            "f = GF(10**9 + 7)\n"
            "a = monogenic_algebra(f, Poly.from_ints(f, [-5 * 10**8, 1]) * Poly.from_ints(f, [-7 * 10**8, 1]))\n"
            "print(semisimple_profile(a), len(one_dim_characters(a)), len(grouplikes(dualize_algebra(a))))\n"
            "P = 3317044064679887385961813\n"
            "g = Poly.from_ints(GF(P), [1])\n"
            "for r in (1, 2, 3, 7, 10**20, 12345678901234567, P // 2, P - 1):\n"
            "    g = g * Poly.from_ints(GF(P), [-r, 1])\n"
            "fac = factor_over_field(g)\n"
            "print(fac.complete, sorted(P - h.coeffs[0] for h, m in fac.factors if m == 1 and h.degree() == 1))\n",
            timeout=10)
        assert out == ("SemisimpleProfile(radical_dim=0, factors=((1, 1), (1, 1))) 2 2\n"
                       "True [1, 2, 3, 7, 12345678901234567, 100000000000000000000, "
                       "1658522032339943692980906, 3317044064679887385961812]\n")


@st.composite
def squarefree_products(draw):
    """A squarefree monic product of irreducibles over GF(p), with the
    degrees of its irreducible factors as `factor_over_field` finds them:
    the distinct monic irreducible factors of a product of random monic
    polynomials."""
    p = draw(st.sampled_from([2, 3, 5, 13, 10007, 10**9 + 7]))
    f = GF(p)
    product = Poly.constant(f, 1)
    for coeffs in draw(st.lists(st.lists(st.integers(0, p - 1), max_size=5), min_size=1, max_size=3)):
        product = product * Poly.from_ints(f, coeffs + [1])
    irreducibles = [g for g, _ in factor_over_field(product).factors]
    squarefree = Poly.constant(f, 1)
    for g in irreducibles:
        squarefree = squarefree * g
    return squarefree, sorted(g.degree() for g in irreducibles)


class TestFactorDegrees:
    @settings(max_examples=400, deadline=None)
    @given(squarefree_products())
    def test_matches_factor_over_field(self, case):
        poly, degrees = case
        assert _factor_degrees(poly) == degrees

    def test_named_polynomials(self):
        f = GF(17)
        # t^4 - d over GF(17), whose units are cyclic of order 16: d = 1 and
        # d = -1 split, d = 2, a square but no fourth power, gives two
        # quadratics, and d = 3, a non-square, stays irreducible
        assert _factor_degrees(Poly.from_ints(f, [-1, 0, 0, 0, 1])) == [1, 1, 1, 1]
        assert _factor_degrees(Poly.from_ints(f, [1, 0, 0, 0, 1])) == [1, 1, 1, 1]
        assert _factor_degrees(Poly.from_ints(f, [-2, 0, 0, 0, 1])) == [2, 2]
        assert _factor_degrees(Poly.from_ints(f, [-3, 0, 0, 0, 1])) == [4]
        assert _factor_degrees(Poly.from_ints(f, [-1, 1])) == [1]
        assert _factor_degrees(Poly.constant(f, 1)) == []


# Poly arithmetic computes with the plain + - * operators and reduces each
# output coefficient once; these per-scalar loops, each step a Field call,
# are the reference it must match.
def oracle_mul(f, a, b):
    out = [f.zero()] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(x, y))
    return Poly(f, out)


def oracle_divmod(f, a, b):
    rem, quo = list(a), [f.zero()] * max(len(a) - len(b) + 1, 0)
    inv = f.inv(b[-1])
    for k in range(len(quo) - 1, -1, -1):
        c = f.mul(rem[k + len(b) - 1], inv)
        quo[k] = c
        for i, y in enumerate(b):
            rem[k + i] = f.sub(rem[k + i], f.mul(c, y))
    return Poly(f, quo), Poly(f, rem)


def poly_coeffs(f):
    if f == QQ:
        return st.lists(st.fractions(max_denominator=4).map(f.of).filter(lambda c: abs(c) <= 4),
                        max_size=6)
    return st.lists(st.integers(0, f.p - 1), max_size=6)


class TestPolyArithmeticAgainstOracle:
    @settings(max_examples=200)
    @given(st.sampled_from([GF(2), GF(7), GF(10**9 + 7), QQ]).flatmap(
        lambda f: st.tuples(st.just(f), poly_coeffs(f), poly_coeffs(f), st.integers(0, 40))))
    def test_products_quotients_and_powers(self, case):
        f, a, b, n = case
        u, v = Poly(f, a), Poly(f, b)
        assert u * v == oracle_mul(f, u.coeffs, v.coeffs)
        assert u + v == Poly(f, [f.add(x, y) for x, y in zip(u.coeffs + (0,) * 6, v.coeffs + (0,) * 6)])
        assert u.derivative() == Poly(f, [f.mul(f.of(i), c) for i, c in enumerate(u.coeffs)][1:])
        if v.is_zero():
            return
        assert u.divmod(v) == oracle_divmod(f, u.coeffs, v.coeffs)
        assert u % v == oracle_divmod(f, u.coeffs, v.coeffs)[1]
        power = Poly(f, [f.one()]) % v
        for _ in range(n):
            power = oracle_divmod(f, oracle_mul(f, power.coeffs, u.coeffs).coeffs, v.coeffs)[1]
        assert u.pow_mod(n, v) == power


class TestRref:
    def test_identity(self):
        res = rref_kernel(Matrix.identity(GF(5), 3))
        assert res.rank == 3
        assert res.kernel.cols == 0

    def test_rank_one(self):
        m = Matrix.from_int_rows(QQ, [[1, 2], [2, 4]])
        res = rref_kernel(m)
        assert res.rank == 1
        assert res.kernel.cols == 1
        assert res.kernel.col(0) == (Fraction(-2), Fraction(1))

    def test_zero(self):
        res = rref_kernel(Matrix.zeros(GF(5), 2, 3))
        assert res.rank == 0
        assert res.kernel.cols == 3

    def test_rank_nullity(self):
        rng = random.Random(3)
        f = GF(7)
        for _ in range(30):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            m = Matrix(f, r, c, [rng.randrange(7) for _ in range(r * c)])
            res = rref_kernel(m)
            assert res.rank + res.kernel.cols == c
            # kernel columns actually annihilate
            for j in range(res.kernel.cols):
                assert all(x == 0 for x in m.apply(list(res.kernel.col(j))))

    def test_idempotent(self):
        rng = random.Random(4)
        f = GF(5)
        for _ in range(20):
            m = Matrix(f, 3, 4, [rng.randrange(5) for _ in range(12)])
            r1 = rref_kernel(m).rref
            assert rref_kernel(r1).rref == r1


class TestMatrixSlices:
    def test_col_and_transpose_follow_get(self):
        m = Matrix(GF(13), 3, 4, range(12))
        assert [m.col(j) for j in range(4)] == [
            tuple(m.get(i, j) for i in range(3)) for j in range(4)]
        t = m.transpose()
        assert (t.rows, t.cols) == (4, 3)
        assert all(t.get(j, i) == m.get(i, j) for i in range(3) for j in range(4))


# ---------------------------------------------------------------------------
# Property tests: the single GF(p)/Q row reduction against the per-scalar
# eliminations it replaced, kept here as oracles.


def oracle_row_reduce(rows, field):
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    zero = field.zero()
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((rr for rr in range(r, nrows) if rows[rr][c] != zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for rr in range(nrows):
            if rr != r and rows[rr][c] != zero:
                factor = rows[rr][c]
                rows[rr] = [field.sub(x, field.mul(factor, y)) for x, y in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def oracle_berlekamp_kernel(mat, field):
    """Solutions v of sum_i v_i * mat[i] = 0, by elimination on the transpose."""
    n = len(mat)
    work, pivots = oracle_row_reduce([[mat[i][j] for i in range(n)] for j in range(len(mat[0]))], field)
    basis = []
    for fcol in (c for c in range(n) if c not in pivots):
        vec = [field.zero()] * n
        vec[fcol] = field.one()
        for i, pc in enumerate(pivots):
            vec[pc] = field.neg(work[i][fcol])
        basis.append(vec)
    return basis


KERNEL_FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(10007), QQ]


@st.composite
def matrices(draw, square=False, min_size=1):
    f = draw(st.sampled_from(KERNEL_FIELDS))
    rows = draw(st.integers(min_size, 7))
    cols = rows if square else draw(st.integers(min_size, 7))
    # few distinct values, so that rank deficiency is common
    if isinstance(f, PrimeField):
        scalar = st.integers(0, min(f.p - 1, 4)).map(f.of)
    else:
        scalar = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3]))
    zero_heavy = st.one_of(st.just(f.zero()), scalar)
    entries = draw(st.lists(zero_heavy, min_size=rows * cols, max_size=rows * cols))
    return Matrix(f, rows, cols, entries)


class TestRowReductionAgainstOracle:
    @settings(max_examples=200)
    @given(matrices())
    def test_rref_and_pivots(self, m):
        rows, pivots = oracle_row_reduce(m.row_lists(), m.field)
        res = rref_kernel(m)
        assert res.pivots == tuple(pivots)
        assert res.rref == Matrix.from_rows(m.field, rows)

    @given(matrices(min_size=0))
    def test_rank_is_the_rref_rank(self, m):
        # empty shapes included: a 0 x c or r x 0 matrix has rank 0
        assert m.rank() == rref_kernel(m).rank
        assert m.is_invertible() == (m.rows == m.cols == rref_kernel(m).rank)

    @given(matrices())
    def test_echelon_rows_are_the_nonzero_rref_rows(self, m):
        rows, pivots = oracle_row_reduce(m.row_lists(), m.field)
        assert echelon_rows(m.field, m.row_lists()) == [tuple(r) for r in rows[:len(pivots)]]

    @given(matrices(square=True))
    def test_berlekamp_kernel_is_rref_kernel_of_transpose(self, m):
        mat = m.row_lists()
        ker = rref_kernel(m.transpose()).kernel
        assert [list(ker.col(c)) for c in range(ker.cols)] == oracle_berlekamp_kernel(mat, m.field)

    @given(matrices(), st.data())
    def test_reduce_against_matches_sequential_reduction(self, m, data):
        f = m.field
        rows = echelon_rows(f, m.row_lists())
        vec = data.draw(st.lists(st.sampled_from([f.zero(), f.one(), f.of(2), f.of(-3)]),
                                 min_size=m.cols, max_size=m.cols))
        residual, coords = reduce_against(rows, row_pivots(rows), vec, f)
        expect = list(vec)
        for row in rows:
            c = expect[next(j for j, x in enumerate(row) if x != f.zero())]
            expect = [f.sub(x, f.mul(c, y)) for x, y in zip(expect, row)]
        assert residual == expect
        assert in_row_span(rows, vec, f) == (not any(expect))
