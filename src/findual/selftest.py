"""Acceptance suite: every check the package is contractually required to
pass, each returning a structured result for the CLI pass matrix.

All comparisons are exact (tolerance zero).  Oracles are independent of the
code paths they check: brute-force grouplike enumeration, exhaustive
intertwiner search over GL_2(GF(5)), and a direct matrix-jet construction.
"""

from __future__ import annotations

import operator
from array import array
from typing import NamedTuple

from .algebra import (
    AlgebraHom,
    FinDimAlgebra,
    _from_normal_table,
    cyclic_group_algebra,
    diagonal_algebra,
    matrix_algebra,
    monogenic_algebra,
    one_dim_characters,
    quotient_algebra,
    radical,
    triangular_algebra,
    truncated_polynomial_algebra,
    validate_algebra,
)
from .coalgebra import (
    FinDimCoalgebra,
    Quiver,
    comatrix_coalgebra,
    coradical_preserved,
    divided_power_coalgebra,
    dualize_algebra,
    dualize_coalgebra,
    grouplike_coalgebra,
    grouplikes,
    grouplikes_bruteforce,
    line_dist_coalgebra,
    path_coalgebra,
    triangular_coalgebra,
)
from .kernel import GF, Matrix, Poly
from .qplane import (
    azumaya_census,
    azumaya_point_invariants,
    irrep,
    irrep_classify,
    measure_point_invariants,
    oq_truncation,
    qtwist_decomposition,
)
from .twist import (
    check_cotwisting_map,
    check_twisting_map,
    cotensor_swap,
    grouplike_bialgebra,
    ore_twist,
    primitive_bialgebra_components,
    raw_twisted_algebra,
    scaling_automorphism,
    solve_cotwist,
    tensor_swap,
    twist_corpus,
    verify_crossed_bialgebra_duality,
    verify_twisted_duality,
)

F5 = GF(5)


class CriterionResult(NamedTuple):
    key: str
    name: str
    passed: bool
    details: dict


def _named_algebras():
    out = []
    for d in (1, 2, 3):
        out.append((f"M_{d}(GF(5))", matrix_algebra(F5, d)))
    out.append(("T_2(GF(5))", triangular_algebra(F5, 2)))
    for n in (2, 3):
        out.append((f"T_{n}(GF(7))", triangular_algebra(GF(7), n)))
    for (a, b) in ((2, 2), (2, 4), (4, 4), (3, 3)):
        out.append((f"box({a},{b})", oq_truncation(2, 5, "box", (a, b)).algebra))
    for (c, d) in ((0, 0), (1, 1), (2, 3)):
        out.append(
            (f"fiber({c},{d})", oq_truncation(2, 5, "central_fiber", (c, d)).algebra)
        )
    return out


def _named_coalgebras():
    quivers = [
        ("A2", Quiver(2, [(1, 0)])),
        ("A3", Quiver(3, [(1, 0), (2, 1)])),
        ("A5", Quiver(5, [(1, 0), (2, 1), (3, 2), (4, 3)])),
        ("fork", Quiver(4, [(1, 0), (2, 0), (3, 1)])),
        ("double", Quiver(2, [(1, 0), (1, 0)])),
    ]
    out = []
    for d in (1, 2, 3):
        out.append((f"comatrix({d})", comatrix_coalgebra(F5, d)))
    for n in (2, 3):
        out.append((f"triangular({n})", triangular_coalgebra(F5, n)))
    for name, q in quivers:
        out.append((f"path({name})", path_coalgebra(F5, q)))
    for size in (1, 2, 3, 4, 5):
        out.append((f"grouplike({size})", grouplike_coalgebra(F5, size)))
    for m in (1, 2, 3, 4, 5):
        out.append((f"divided_power({m})", divided_power_coalgebra(F5, m)))
    out.append(("line_dist(2pts)", line_dist_coalgebra(F5, {0: 2, 1: 1})))
    out.append(("line_dist(3pts)", line_dist_coalgebra(F5, {0: 1, 1: 2, 3: 1})))
    return out


def criterion_1_round_trip() -> CriterionResult:
    """Dualization round trip is the identity on the whole constructor zoo."""
    failures = []
    count = 0
    for name, alg in _named_algebras():
        count += 1
        if dualize_coalgebra(dualize_algebra(alg)) != alg:
            failures.append(name)
    for name, coalg in _named_coalgebras():
        count += 1
        if dualize_algebra(dualize_coalgebra(coalg)) != coalg:
            failures.append(name)
    return CriterionResult(
        "round-trip", "dualization round trip on named constructors",
        not failures, {"checked": count, "failures": failures},
    )


def criterion_2_twist_equivalence(seed: int = 5, trials: int = 500) -> CriterionResult:
    """check_twisting_map passes iff the raw product m_rho is associative and
    unital, across the seeded corpus.  The corpus repeats maps (276 distinct
    values in 500 trials at seed 5), so both checks run once per distinct
    map, keyed by the value (a, b, matrix) they depend on alone; the counts
    and the discrepancy indices are per trial."""
    corpus = twist_corpus(F5, seed=seed, trials=trials)
    verdicts = {}  # (a, b, matrix) -> (check_twisting_map ok, validate_algebra ok)
    discrepancies = []
    passes = fails = 0
    for k, rho in enumerate(corpus):
        key = (rho.a, rho.b, rho.matrix)
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = (
                check_twisting_map(rho).ok, validate_algebra(raw_twisted_algebra(rho)).ok
            )
        ok, direct = verdict
        if ok != direct:
            discrepancies.append(k)
        passes += ok
        fails += not ok
    return CriterionResult(
        "twist-equivalence", "normal+multiplicative iff m_rho associative+unital",
        not discrepancies and passes > 0 and fails > 0,
        {"trials": trials, "seed": seed, "passes": passes, "fails": fails,
         "discrepancies": discrepancies},
    )


def _sweedler_ore():
    a = monogenic_algebra(F5, Poly.from_ints(F5, [-1, 0, 1]), var="x")
    return ore_twist(a, scaling_automorphism(a, F5.of(-1)), 2)


def criterion_3_twisted_duality(seed: int = 5, trials: int = 100) -> CriterionResult:
    """(A #_rho B)* = A* #^(rho*) B* entrywise for swaps, the Ore/Sweedler
    instance, and rho_q on box truncations.  The swap of each corpus map's
    (A, B) is checked once per distinct pair (43 in 100 trials at seed 5);
    swaps are counted, and failures labelled swap#k, per trial."""
    failures = []
    corpus = twist_corpus(F5, seed=seed, trials=trials)
    verdicts = {}  # (a, b) -> verify_twisted_duality(tensor_swap(a, b)).equal
    swaps = 0
    for rho in corpus:
        key = (rho.a, rho.b)
        equal = verdicts.get(key)
        if equal is None:
            equal = verdicts[key] = verify_twisted_duality(tensor_swap(*key)).equal
        swaps += 1
        if not equal:
            failures.append(f"swap#{swaps}")
    if not verify_twisted_duality(_sweedler_ore()).equal:
        failures.append("ore-sweedler")
    for a, b in ((2, 2), (4, 4)):
        rep = qtwist_decomposition(2, 5, a, b)
        if not rep.identity_holds:
            failures.append(f"qtwist-identity-box({a},{b})")
        if not verify_twisted_duality(rep.rho_q).equal:
            failures.append(f"rho_q-box({a},{b})")
    return CriterionResult(
        "twisted-duality", "finite-level twisted duality is entrywise equality",
        not failures, {"swaps": swaps, "failures": failures},
    )


def criterion_4_census() -> CriterionResult:
    """Quantum-plane census counts for (n, p) = (2, 5) and (2, 13)."""
    expected = {
        (2, 5): {"azumaya_fibers": 16, "axis_fibers": 9,
                 "rational_axis_points": 9, "rational_orbit_classes": 4,
                 "nonsplit_axis_factors": 4},
        (2, 13): {"azumaya_fibers": 144, "axis_fibers": 25,
                  "rational_axis_points": 25, "rational_orbit_classes": 36},
    }
    failures = []
    details = {}
    for (n, p), want in expected.items():
        report = azumaya_census(n, p)
        agg = report.aggregate
        details[f"({n},{p})"] = agg
        for key, val in want.items():
            if agg[key] != val:
                failures.append(f"({n},{p}).{key}={agg[key]}!={val}")
        if not agg["azumaya_iff_off_axis"]:
            failures.append(f"({n},{p}).identity")
        for f in report.fibers:
            if f.azumaya and f.profile != (0, ((n * n, 1),)):
                failures.append(f"({n},{p}).fiber({f.c},{f.d}).profile")
    return CriterionResult(
        "census", "Azumaya census for (2,5) and (2,13)",
        not failures, {"failures": failures, **details},
    )


def matrix_jet_oracle(n: int, p: int) -> FinDimAlgebra:
    """Independent direct construction of M_n(k[u,v]/(u,v)^2): matrix units
    tensored with the jet monomials {1, u, v}, no quantum-plane reduction.
    Each cell is () or one (index, 1) pair, so the table is normal as built
    and is stored without a second walk (`algebra._from_normal_table`)."""
    field = GF(p)
    jets = ((0, 0), (1, 0), (0, 1))
    dim = n * n * 3

    def index(i, j, w):
        return (i * n + j) * 3 + jets.index(w)

    one = field.one()
    mul = [[() for _ in range(dim)] for _ in range(dim)]
    for i1 in range(n):
        for j1 in range(n):
            for w1 in jets:
                left = index(i1, j1, w1)
                for i2 in range(n):
                    for j2 in range(n):
                        for w2 in jets:
                            right = index(i2, j2, w2)
                            if j1 != i2:
                                continue
                            wu, wv = w1[0] + w2[0], w1[1] + w2[1]
                            if wu + wv > 1:
                                continue
                            mul[left][right] = ((index(i1, j2, (wu, wv)), one),)
    unit = [field.zero()] * dim
    for i in range(n):
        unit[index(i, i, (0, 0))] = one
    labels = [f"E{i + 1}{j + 1}{'uv'[k - 1] if k else ''}"
              for i in range(n) for j in range(n) for k in range(3)]
    return _from_normal_table(field, labels, mul, unit, None)


def criterion_5_point_invariants() -> CriterionResult:
    """Jet invariants at an Azumaya point match the matrix-jet oracle."""
    inv = azumaya_point_invariants(2, 5, 1, 1)
    got = (inv.total_dim, inv.radical_dim, inv.radical_square_zero,
           inv.top_profile, inv.center_dim)
    want = (12, 8, True, ((4, 1),), 3)
    oracle = measure_point_invariants(matrix_jet_oracle(2, 5))
    oracle_tuple = (oracle.total_dim, oracle.radical_dim, oracle.radical_square_zero,
                    oracle.top_profile, oracle.center_dim)
    ok = got == want and oracle_tuple == want
    inv13 = azumaya_point_invariants(2, 13, 1, 1)
    got13 = (inv13.total_dim, inv13.radical_dim, inv13.radical_square_zero,
             inv13.top_profile, inv13.center_dim)
    ok = ok and got13 == want
    return CriterionResult(
        "point-invariants", "regular-point jet invariants match M_2(C/m^2)",
        ok, {"computed": got, "oracle": oracle_tuple, "p13": got13},
    )


def _gl2_gf5():
    field = F5
    mats = []
    for a in range(5):
        for b in range(5):
            for c in range(5):
                for d in range(5):
                    if (a * d - b * c) % 5 != 0:
                        mats.append(Matrix(field, 2, 2, [a, b, c, d]))
    return mats


def _products(r, gl):
    """(t X, t Y) and (X t, Y t) for each 2x2 t in gl: the eight entries of
    each pair, residues mod 5 in row-major order, packed little-endian into
    one 8-byte word of an array (as tuples, the products of all
    representations would hold about 1.8 MB).

    Row i of t X is row_i(t) X, and column j of X t is X col_j(t).  So the
    words are read off the products of X and Y with the 25 vectors of
    GF(5)^2, computed on plain ints from the matrices' four entries: with
    t = [[a, b], [c, d]], t X is the rows v X at v = (a, b), (c, d), and X t
    interleaves the columns X w at w = (a, c), (b, d).  Each vector's X and
    Y products are stored together, their entries at the bit offsets they
    take in a word, so a t's word is two of them or-ed, one shifted."""
    (x00, x01, x10, x11), (y00, y01, y10, y11) = r.x_matrix.entries, r.y_matrix.entries
    vectors = [(u, v) for u in range(5) for v in range(5)]  # (u, v) at index 5u + v
    # v X = (v0 x00 + v1 x10, v0 x01 + v1 x11) at bytes 0, 1 (and 4, 5 for Y)
    rows = [(u * x00 + v * x10) % 5 | (u * x01 + v * x11) % 5 << 8
            | (u * y00 + v * y10) % 5 << 32 | (u * y01 + v * y11) % 5 << 40 for u, v in vectors]
    # X w = (x00 w0 + x01 w1, x10 w0 + x11 w1) at bytes 0, 2 (and 4, 6 for Y)
    cols = [(x00 * u + x01 * v) % 5 | (x10 * u + x11 * v) % 5 << 16
            | (y00 * u + y01 * v) % 5 << 32 | (y10 * u + y11 * v) % 5 << 48 for u, v in vectors]
    ents = [t.entries for t in gl]
    return (array("Q", [rows[5 * a + b] | rows[5 * c + d] << 16 for a, b, c, d in ents]),
            array("Q", [cols[5 * a + c] | cols[5 * b + d] << 8 for a, b, c, d in ents]))


def _intertwined(prods1, prods2):
    """Whether some t has t X1 = X2 t and t Y1 = Y2 t, given the `_products`
    of both representations with the same matrices t."""
    return any(map(operator.eq, prods1[0], prods2[1]))


def criterion_6_irreps() -> CriterionResult:
    """Generic irreps satisfy YX = qXY with full matrix image; equivalence by
    central character agrees with exhaustive intertwiner search."""
    n, p = 2, 5
    field = GF(p)
    q = field.of(4)
    failures = []
    points = [(a, b) for a in range(1, p) for b in range(1, p)]
    reps = {}
    for alpha, beta in points:
        r = irrep(n, p, alpha, beta)
        reps[(alpha, beta)] = r
        if (r.y_matrix @ r.x_matrix) != (r.x_matrix @ r.y_matrix).scale(q):
            failures.append(f"relation({alpha},{beta})")
        if not r.irreducible:
            failures.append(f"image({alpha},{beta})")
        if r.x_matrix @ r.x_matrix != Matrix.identity(field, n).scale(field.pow(alpha, n)):
            failures.append(f"central-x({alpha},{beta})")
        if r.y_matrix @ r.y_matrix != Matrix.identity(field, n).scale(field.pow(beta, n)):
            failures.append(f"central-y({alpha},{beta})")
    gl = _gl2_gf5()
    if len(gl) != 480:
        failures.append(f"gl2-size={len(gl)}")
    prods = {pt: _products(r, gl) for pt, r in reps.items()}
    pairs = 0
    for k1, pt1 in enumerate(points):
        for pt2 in points[k1:]:
            pairs += 1
            same_class = (
                field.pow(pt1[0], n) == field.pow(pt2[0], n)
                and field.pow(pt1[1], n) == field.pow(pt2[1], n)
            )
            found = _intertwined(prods[pt1], prods[pt2])
            if found != same_class:
                failures.append(f"intertwiner{pt1}{pt2}")
    classes = irrep_classify(n, p)
    if classes.n_dim_classes != 4 or classes.one_dim != 9:
        failures.append("classification-counts")
    return CriterionResult(
        "irreps", "irrep relations and intertwiner-certified equivalence",
        not failures, {"points": len(points), "pairs": pairs, "failures": failures},
    )


def _coradical_positive_homs():
    out = []
    t2 = triangular_algebra(F5, 2)
    q, proj = quotient_algebra(t2, radical(t2))
    out.append(("T2->kxk", proj))
    g4 = cyclic_group_algebra(F5, 4)
    for k, ch in enumerate(one_dim_characters(g4)):
        out.append(
            (f"kZ4->k.{k}",
             AlgebraHom(g4, diagonal_algebra(F5, 1), Matrix(F5, 1, 4, ch.values)))
        )
    m2 = matrix_algebra(F5, 2)
    out.append(("M2->M2", AlgebraHom(m2, m2, Matrix.identity(F5, 4))))
    fiber = oq_truncation(2, 5, "central_fiber", (1, 0)).algebra
    fq, fproj = quotient_algebra(fiber, radical(fiber))
    out.append(("fiber(1,0)->top", fproj))
    d3 = diagonal_algebra(F5, 3)
    d2 = diagonal_algebra(F5, 2)
    ent = [1, 0, 0, 1, 0, 1]  # (a,b) -> (a,b,b)
    out.append(("kxk->k^3", AlgebraHom(d2, d3, Matrix(F5, 3, 2, ent))))
    return out


def criterion_7_coradical() -> CriterionResult:
    """Grouplikes agree with brute force on dim <= 4 over GF(5); the coradical
    is preserved exactly when it should be."""
    failures = []
    small = [
        ("comatrix(2)", comatrix_coalgebra(F5, 2)),
        ("triangular(2)", triangular_coalgebra(F5, 2)),
        ("grouplike(3)", grouplike_coalgebra(F5, 3)),
        ("grouplike(4)", grouplike_coalgebra(F5, 4)),
        ("divided_power(4)", divided_power_coalgebra(F5, 4)),
        ("line_dist", line_dist_coalgebra(F5, {0: 2, 1: 1})),
        ("dual kZ4", dualize_algebra(cyclic_group_algebra(F5, 4))),
        ("dual box(2,2)", dualize_algebra(oq_truncation(2, 5, "box", (2, 2)).algebra)),
        ("path(A2)", path_coalgebra(F5, Quiver(2, [(1, 0)]))),
    ]
    for name, coalg in small:
        if sorted(grouplikes(coalg)) != sorted(grouplikes_bruteforce(coalg)):
            failures.append(f"grouplikes:{name}")
    src = truncated_polynomial_algebra(F5, 3)
    tgt = matrix_algebra(F5, 2)
    cols = [list(tgt.unit), [0, 1, 0, 0], [0, 0, 0, 0]]
    counter = AlgebraHom(
        src, tgt, Matrix(F5, 4, 3, [cols[j][i] for i in range(4) for j in range(3)])
    )
    if not counter.is_valid():
        failures.append("counterexample-hom-invalid")
    if coradical_preserved(counter).preserved:
        failures.append("counterexample-not-detected")
    for name, hom in _coradical_positive_homs():
        if not hom.is_valid():
            failures.append(f"hom-invalid:{name}")
        elif not coradical_preserved(hom).preserved:
            failures.append(f"positive:{name}")
    return CriterionResult(
        "coradical", "grouplike census and coradical preservation",
        not failures, {"examples": len(small), "failures": failures},
    )


def sweedler_crossed_instance():
    """The 4-dimensional Sweedler-type crossed product over GF(5):
    k[Z/2] with grouplike g, k[t]/(t^2) with primitive t, relation tg = -gt,
    Delta(t) = t (x) g + 1 (x) t; phi is solved, never hand-entered."""
    a = grouplike_bialgebra(F5, 2)
    rho = ore_twist(a.alg, scaling_automorphism(a.alg, F5.of(-1)), 2)
    b = primitive_bialgebra_components(F5, 2, var="t")
    labels = [f"{x}#{y}" for x in a.labels for y in b.labels]
    target = FinDimCoalgebra(
        F5,
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


def criterion_8_crossed_bialgebra() -> CriterionResult:
    """The Sweedler instance assembles to a bialgebra whose dual is the
    crossed product of the dual components."""
    failures = []
    a, b, rho, phi = sweedler_crossed_instance()
    if not check_twisting_map(rho).ok:
        failures.append("rho")
    if not check_cotwisting_map(phi).ok:
        failures.append("phi")
    rep = verify_crossed_bialgebra_duality(a, b, rho, phi)
    if not rep.is_bialgebra:
        failures.append("not-a-bialgebra")
    if not rep.duality_holds:
        failures.append("duality")
    ga = grouplike_bialgebra(F5, 2)
    gb = grouplike_bialgebra(F5, 2)
    trivial = verify_crossed_bialgebra_duality(
        ga, gb, tensor_swap(ga.alg, gb.alg), cotensor_swap(ga.coalg, gb.coalg)
    )
    if not (trivial.is_bialgebra and trivial.duality_holds):
        failures.append("tensor-of-group-bialgebras")
    return CriterionResult(
        "crossed-bialgebra", "Sweedler crossed product bialgebra duality",
        not failures, {"failures": failures},
    )


SUITES = {
    "duality": ("round-trip",),
    "twists": ("twist-equivalence", "twisted-duality", "crossed-bialgebra"),
    "coradical": ("coradical",),
    "qplane": ("census", "point-invariants", "irreps"),
}

_CRITERIA = {
    "round-trip": criterion_1_round_trip,
    "twist-equivalence": criterion_2_twist_equivalence,
    "twisted-duality": criterion_3_twisted_duality,
    "census": criterion_4_census,
    "point-invariants": criterion_5_point_invariants,
    "irreps": criterion_6_irreps,
    "coradical": criterion_7_coradical,
    "crossed-bialgebra": criterion_8_crossed_bialgebra,
}

ALL_KEYS = tuple(_CRITERIA)


def run_criterion(key: str, seed: int = 5) -> CriterionResult:
    fn = _CRITERIA[key]
    if key in ("twist-equivalence", "twisted-duality"):
        return fn(seed=seed)
    return fn()


def run_suite(suite: str = "all", seed: int = 5):
    """Run a named suite, a single criterion key, or everything."""
    if suite == "all":
        keys = ALL_KEYS
    elif suite in SUITES:
        keys = SUITES[suite]
    elif suite in _CRITERIA:
        keys = (suite,)
    else:
        raise KeyError(f"unknown suite {suite!r}")
    return [run_criterion(k, seed=seed) for k in keys]
