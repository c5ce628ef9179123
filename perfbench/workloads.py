"""The benchmark's workloads: fixed job lists, seeded inputs and output checks.

A job is one `findual` CLI invocation or one public library call.  Its output
text is checked by an invariant that holds for every seed; for the default
seed it must also match the sha256 digest recorded in `digests.json`.

Why each workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import json
import os
import random
from typing import Callable, NamedTuple

DEFAULT_SEED = 5
NAMES = ("census", "selftest", "duality")


class Job(NamedTuple):
    """One unit of work, run in its own process.

    `call` returns the output text of a library call; CLI jobs leave it None
    and give `argv`.  `expect_rc` None means `check` decides the exit code.
    `check(rc, text, work_dir)` returns a description of what is wrong, or
    None.  `needs` names the input groups the job reads from the work dir.
    """

    name: str
    argv: tuple = ()
    call: Callable | None = None
    expect_rc: int | None = 0
    save_as: str | None = None
    check: Callable | None = None
    seeded: bool = False
    needs: tuple = ()


class Workload(NamedTuple):
    name: str
    seed: int
    jobs: tuple

    def prepare(self, work_dir):
        """Write the input files the jobs read."""
        needed = sorted({n for job in self.jobs for n in job.needs})
        for group in needed:
            _INPUTS[group](work_dir, self.seed)


def build(name: str, seed: int) -> Workload:
    jobs = {"census": _census_jobs, "selftest": _selftest_jobs, "duality": _duality_jobs}[name]
    return Workload(name, seed, tuple(jobs(seed)))


# ---------------------------------------------------------------------------
# census: the paper's headline study, dominated by algebra/linalg/fields.


def _census_jobs(seed):
    rng = random.Random(seed)
    points = [(n, p, rng.randrange(1, p), rng.randrange(1, p)) for n, p in ((4, 17), (5, 31))]
    jobs = [
        Job("census-3-13-json", ("qplane-census", "--n", "3", "--p", "13"),
            check=_census_json(13)),
        Job("census-3-19-csv", ("qplane-census", "--n", "3", "--p", "19", "--format", "csv"),
            check=_census_csv(19)),
        Job("census-4-17-json", ("qplane-census", "--n", "4", "--p", "17"),
            check=_census_json(17)),
    ]
    for n, p, c, d in points:
        argv = ("qplane-point", "--n", str(n), "--p", str(p), "--c", str(c), "--d", str(d))
        jobs.append(Job(f"point-{n}-{p}", argv, check=_point(n), seeded=True))
    return jobs


def _census_json(p):
    def check(rc, text, work_dir):
        agg = json.loads(text)["aggregate"]
        return _census_counts(p, agg["azumaya_fibers"], agg["axis_fibers"],
                              agg["azumaya_iff_off_axis"])
    return check


def _census_csv(p):
    def check(rc, text, work_dir):
        rows = [line.split(",") for line in text.splitlines()[1:]]
        if len(rows) != p * p:
            return f"{len(rows)} rows, expected {p * p}"
        azumaya = sum(row[4] == "1" for row in rows)
        axis = sum(int(row[2]) * int(row[3]) % p == 0 for row in rows)
        iff = all((row[4] == "1") == (int(row[2]) * int(row[3]) % p != 0) for row in rows)
        return _census_counts(p, azumaya, axis, iff)
    return check


def _census_counts(p, azumaya, axis, iff):
    if azumaya != (p - 1) ** 2:
        return f"azumaya_fibers {azumaya} != {(p - 1) ** 2}"
    if axis != 2 * p - 1:
        return f"axis_fibers {axis} != {2 * p - 1}"
    if iff is not True:
        return "azumaya_iff_off_axis is false"
    return None


def _point(n):
    # An Azumaya point's jet algebra matches the model M_n(k[u,v]/(u,v)^2).
    want = {"total_dim": 3 * n * n, "radical_dim": 2 * n * n, "radical_square_zero": True,
            "top_profile": [[n * n, 1]], "center_dim": 3}

    def check(rc, text, work_dir):
        got = json.loads(text)["results"]
        return None if got == want else f"point invariants {got} != {want}"
    return check


# ---------------------------------------------------------------------------
# selftest: the acceptance suite; thousands of tiny objects, call overhead.


def _selftest_jobs(seed):
    return [
        Job("selftest", ("selftest", "--seed", str(seed)), check=_all_pass, seeded=True),
        Job("verify-twists", ("verify", "--suite", "twists", "--seed", str(seed + 2)),
            check=_report_ok(True), seeded=True),
        Job("verify-coradical", ("verify", "--suite", "coradical"), check=_report_ok(True)),
    ]


def _all_pass(rc, text, work_dir):
    matrix = [line for line in text.splitlines() if not line.startswith("{")]
    if not matrix or not all(line.startswith("PASS ") for line in matrix):
        return "selftest matrix has a line that is not PASS"
    return _report_ok(True)(rc, text.splitlines()[-1], work_dir)


def _report_ok(want):
    def check(rc, text, work_dir):
        ok = json.loads(text)["summary"]["ok"]
        return None if ok is want else f"summary.ok is {ok}, expected {want}"
    return check


# ---------------------------------------------------------------------------
# duality: document round trips (codec, coalgebra, twist, Q arithmetic).

_CHAINS = (
    ("box8", ("--kind", "qplane-box", "--q-order", "4", "--p", "17", "--a", "8", "--b", "8"), 64),
    ("matrix6", ("--kind", "matrix-algebra", "--n", "6"), 36),
    ("comatrix6", ("--kind", "comatrix", "--n", "6"), 36),
    ("triangular8", ("--kind", "triangular", "--n", "8"), 36),
    ("divpow40", ("--kind", "divided-power", "--n", "40"), 40),
)
_CORPUS_SIZE = 5


def _duality_jobs(seed):
    rng = random.Random(seed)
    c, d = rng.randrange(1, 31), rng.randrange(1, 31)
    jobs = []
    for tag, args, dim in _CHAINS:
        jobs += [
            Job(f"{tag}-construct", ("construct", *args), save_as=f"{tag}.json",
                check=_document(dim)),
            Job(f"{tag}-dualize", ("dualize", "--in", f"{tag}.json"),
                save_as=f"{tag}.dual.json", check=_document(dim)),
            Job(f"{tag}-dualize-back", ("dualize", "--in", f"{tag}.dual.json"),
                check=_same_bytes_as(f"{tag}.json")),
        ]
    jobs += [
        Job("fiber-5-31", ("construct", "--kind", "qplane-fiber", "--q-order", "5", "--p", "31",
                           "--c", str(c), "--d", str(d)), check=_document(25), seeded=True),
        Job("box12-dual-dualize", ("dualize", "--in", "box12.dual.json"),
            check=_same_bytes_as("box12.json"), needs=("box12",)),
        Job("twist-check-rho-box8", ("twist-check", "--in", "rho_box8.json"),
            check=_report_ok(True), needs=("rho",)),
        Job("twist-check-rho-box12", ("twist-check", "--in", "rho_box12.json"),
            check=_report_ok(True), needs=("rho",)),
    ]
    for k in range(_CORPUS_SIZE):
        jobs.append(Job(f"twist-check-corpus-{k}", ("twist-check", "--in", f"corpus{k}.json"),
                        expect_rc=None, check=_corpus_verdict(k), seeded=True,
                        needs=("corpus",)))
    jobs += [
        Job("duality-rho-box8", call=_twisted_duality_box8, check=_lib_equals({"equal": True})),
        Job("coradical-triangular6-gf31", call=_coradical_triangular6,
            check=_coradical_dims([6, 11, 15, 18, 20, 21])),
        Job("profile-matrix5-q", call=_profile_matrix5,
            check=_lib_equals({"radical_dim": 0, "factors": [[25, 1]]})),
    ]
    return jobs


def _document(dim):
    def check(rc, text, work_dir):
        got = json.loads(text)["dim"]
        return None if got == dim else f"dim {got} != {dim}"
    return check


def _same_bytes_as(filename):
    def check(rc, text, work_dir):
        with open(os.path.join(work_dir, filename)) as fh:
            same = fh.read() == text
        return None if same else f"output differs from {filename}"
    return check


def _corpus_verdict(k):
    # The CLI verdict must agree with the direct check on m_rho, made at set-up.
    def check(rc, text, work_dir):
        with open(os.path.join(work_dir, "corpus.verdicts.json")) as fh:
            want = json.load(fh)[k]
        if rc != (0 if want else 1):
            return f"exit code {rc} disagrees with validate_algebra verdict {want}"
        return _report_ok(want)(rc, text, work_dir)
    return check


def _lib_equals(want):
    def check(rc, text, work_dir):
        got = json.loads(text)
        return None if got == want else f"{got} != {want}"
    return check


def _coradical_dims(dims):
    def check(rc, text, work_dir):
        got = [len(level) for level in json.loads(text)]
        return None if got == dims else f"filtration dims {got} != {dims}"
    return check


def _twisted_duality_box8():
    from findual import qtwist_decomposition, verify_twisted_duality

    rep = verify_twisted_duality(qtwist_decomposition(4, 17, 8, 8).rho_q)
    return json.dumps({"equal": rep.equal})


def _coradical_triangular6():
    from findual import GF, coradical_filtration, triangular_coalgebra

    levels = coradical_filtration(triangular_coalgebra(GF(31), 6))
    return json.dumps([[list(row) for row in level.rows] for level in levels])


def _profile_matrix5():
    from findual import QQ, matrix_algebra, semisimple_profile

    prof = semisimple_profile(matrix_algebra(QQ, 5))
    return json.dumps({"radical_dim": prof.radical_dim,
                       "factors": [list(pair) for pair in prof.factors]})


# ---------------------------------------------------------------------------
# inputs written at set-up (no CLI command builds them)


def _write(work_dir, filename, text):
    with open(os.path.join(work_dir, filename), "w") as fh:
        fh.write(text)


def _box12_inputs(work_dir, seed):
    from findual import dualize_algebra, oq_truncation, to_canonical_json

    box = oq_truncation(3, 13, "box", (12, 12)).algebra
    _write(work_dir, "box12.json", to_canonical_json(box))
    _write(work_dir, "box12.dual.json", to_canonical_json(dualize_algebra(box)))


def _rho_inputs(work_dir, seed):
    from findual import qtwist_decomposition, to_canonical_json

    for a in (8, 12):
        rho = qtwist_decomposition(4, 17, a, a).rho_q
        _write(work_dir, f"rho_box{a}.json", to_canonical_json(rho))


def _corpus_inputs(work_dir, seed):
    from findual import QQ, to_canonical_json, twist_corpus, validate_algebra
    from findual.twist import raw_twisted_algebra

    verdicts = []
    for k, rho in enumerate(twist_corpus(QQ, seed=seed, trials=_CORPUS_SIZE)):
        _write(work_dir, f"corpus{k}.json", to_canonical_json(rho))
        verdicts.append(validate_algebra(raw_twisted_algebra(rho)).ok)
    _write(work_dir, "corpus.verdicts.json", json.dumps(verdicts))


_INPUTS = {"box12": _box12_inputs, "rho": _rho_inputs, "corpus": _corpus_inputs}
