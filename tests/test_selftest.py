"""Selftest criterion 6 (`irreps`): the vector-lookup intertwiner products
against the direct per-t matrix products, and the criterion's product count."""

from array import array

import pytest

from findual import selftest
from findual.kernel import Matrix
from findual.qplane import irrep

POINTS = [(a, b) for a in range(1, 5) for b in range(1, 5)]


def oracle_products(r, gl):
    """The direct definition: t X, t Y, X t and Y t for every t, packed as
    `selftest._products` packs them."""
    x, y = r.x_matrix, r.y_matrix
    return (array("Q", bytes(e for t in gl for e in (t @ x).entries + (t @ y).entries)),
            array("Q", bytes(e for t in gl for e in (x @ t).entries + (y @ t).entries)))


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
    # per representation: 100 vector products for the search, and 4 for its
    # relation and central-character checks (YX, XY, X^2, Y^2)
    assert calls[0] <= constructions + 16 * (100 + 4)
