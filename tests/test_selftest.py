"""Selftest criterion 6 (`irreps`): the intertwiner products computed on
ints against the direct per-t matrix products, and the criterion's matmul
count.
Criteria 2 and 3 (`twist-equivalence`, `twisted-duality`): the results of the
per-trial loops that check every trial's map, and one check per distinct map
or (A, B) pair."""

from array import array

import pytest

from findual import selftest
from findual.algebra import validate_algebra
from findual.kernel import Matrix
from findual.qplane import irrep, qtwist_decomposition
from findual.twist import (
    check_twisting_map,
    raw_twisted_algebra,
    tensor_swap,
    twist_corpus,
    verify_twisted_duality,
)

POINTS = [(a, b) for a in range(1, 5) for b in range(1, 5)]


def oracle_products(r, gl):
    """The direct definition: t X, t Y, X t and Y t for every t, their eight
    row-major entries packed little-endian into one word, as
    `selftest._products` packs them."""
    x, y = r.x_matrix, r.y_matrix

    def word(m1, m2):
        return int.from_bytes(bytes(m1.entries + m2.entries), "little")

    return (array("Q", [word(t @ x, t @ y) for t in gl]),
            array("Q", [word(x @ t, y @ t) for t in gl]))


@pytest.fixture(scope="module")
def products():
    gl = selftest._gl2_gf5()
    assert len(gl) == 480
    reps = {pt: irrep(2, 5, *pt) for pt in POINTS}
    return ({pt: selftest._products(r, gl) for pt, r in reps.items()},
            {pt: oracle_products(r, gl) for pt, r in reps.items()})


def test_products_match_oracle(products):
    fast, oracle = products
    for pt in POINTS:
        assert fast[pt] == oracle[pt], pt
        assert len(fast[pt][0]) == len(fast[pt][1]) == 480


def test_intertwined_verdicts_match_oracle(products):
    fast, oracle = products
    verdicts = []
    for k, pt1 in enumerate(POINTS):
        for pt2 in POINTS[k:]:
            found = selftest._intertwined(fast[pt1], fast[pt2])
            assert found == selftest._intertwined(oracle[pt1], oracle[pt2]), (pt1, pt2)
            verdicts.append(found)
    assert len(verdicts) == 136
    # 16 points in 4 classes of 4: 4 * (4 * 5 / 2) intertwined pairs
    assert sum(verdicts) == 40


def test_criterion_products_are_vector_lookups(monkeypatch):
    calls = [0]
    matmul = Matrix.__matmul__

    def spy(self, other):
        calls[0] += 1
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", spy)
    for pt in POINTS:
        irrep(2, 5, *pt)
    constructions = calls[0]
    calls[0] = 0
    assert selftest.criterion_6_irreps().passed
    # per representation: 4 for its relation and central-character checks
    # (YX, XY, X^2, Y^2); the search's products are computed on ints
    assert calls[0] <= constructions + 16 * 4


def oracle_criterion_2(seed, trials=500):
    """Criterion 2 as the plain per-trial loop: both checks on every map."""
    corpus = twist_corpus(selftest.F5, seed=seed, trials=trials)
    discrepancies = []
    passes = fails = 0
    for k, rho in enumerate(corpus):
        rep = check_twisting_map(rho)
        direct = validate_algebra(raw_twisted_algebra(rho))
        if rep.ok != direct.ok:
            discrepancies.append(k)
        passes += rep.ok
        fails += not rep.ok
    return selftest.CriterionResult(
        "twist-equivalence", "normal+multiplicative iff m_rho associative+unital",
        not discrepancies and passes > 0 and fails > 0,
        {"trials": trials, "seed": seed, "passes": passes, "fails": fails,
         "discrepancies": discrepancies},
    )


def oracle_criterion_3(seed, trials=100):
    """Criterion 3 as the plain per-trial loop: one duality check per swap."""
    failures = []
    corpus = twist_corpus(selftest.F5, seed=seed, trials=trials)
    swaps = 0
    for rho in corpus:
        sigma = tensor_swap(rho.a, rho.b)
        swaps += 1
        if not verify_twisted_duality(sigma).equal:
            failures.append(f"swap#{swaps}")
    if not verify_twisted_duality(selftest._sweedler_ore()).equal:
        failures.append("ore-sweedler")
    for a, b in ((2, 2), (4, 4)):
        rep = qtwist_decomposition(2, 5, a, b)
        if not rep.identity_holds:
            failures.append(f"qtwist-identity-box({a},{b})")
        if not verify_twisted_duality(rep.rho_q).equal:
            failures.append(f"rho_q-box({a},{b})")
    return selftest.CriterionResult(
        "twisted-duality", "finite-level twisted duality is entrywise equality",
        not failures, {"swaps": swaps, "failures": failures},
    )


@pytest.mark.parametrize("seed", [1, 5, 7, 9, 11])
def test_twist_criteria_match_per_trial_oracle(seed):
    assert selftest.criterion_2_twist_equivalence(seed=seed) == oracle_criterion_2(seed)
    assert selftest.criterion_3_twisted_duality(seed=seed) == oracle_criterion_3(seed)


def counting(monkeypatch, name):
    """Count the calls selftest makes to its imported `name`."""
    calls = [0]
    fn = getattr(selftest, name)

    def spy(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(selftest, name, spy)
    return calls


def test_criterion_2_checks_each_distinct_map_once(monkeypatch):
    distinct = len({(rho.a, rho.b, rho.matrix) for rho in twist_corpus(selftest.F5, seed=5, trials=500)})
    assert distinct < 500
    checks = counting(monkeypatch, "check_twisting_map")
    validations = counting(monkeypatch, "validate_algebra")
    result = selftest.criterion_2_twist_equivalence(seed=5)
    assert result.passed and result.details["passes"] + result.details["fails"] == 500
    assert checks[0] == validations[0] == distinct


def test_criterion_3_checks_each_distinct_swap_once(monkeypatch):
    distinct = len({(rho.a, rho.b) for rho in twist_corpus(selftest.F5, seed=5, trials=100)})
    assert distinct < 100
    verifications = counting(monkeypatch, "verify_twisted_duality")
    result = selftest.criterion_3_twisted_duality(seed=5)
    assert result.passed and result.details["swaps"] == 100
    # one per distinct swap, one for the Ore/Sweedler instance, two rho_q maps
    assert verifications[0] == distinct + 3
