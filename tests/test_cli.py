import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import findual
from findual import cli as cli_module
from findual.cli import cli_run
from findual.codec import _MAX_TABLE_DIM, loads, to_canonical_json
from findual.coalgebra import comatrix_coalgebra, dualize_algebra
from findual.algebra import matrix_algebra
from findual.kernel import GF, QQ, Matrix
from findual.qplane import azumaya_census
from findual.twist import cotensor_swap, tensor_swap
from findual.algebra import truncated_polynomial_algebra

F5 = GF(5)


def run(argv):
    buf = io.StringIO()
    code = cli_run(argv, stdout=buf)
    return code, buf.getvalue()


def diamond_paths(n):
    """The paths of n diamonds in a row, junctions 3k and middles 3k + 1,
    3k + 2: the trivial ones, then by the kinds of their two ends, a path
    having two choices per diamond it crosses."""
    return (3 * n + 1
            + sum((n - d + 1) * 2 ** d for d in range(1, n + 1))  # junction to junction
            + sum((n - d) * 2 * 2 ** d for d in range(n))  # junction to middle
            + sum((n - e) * 2 * 2 ** e for e in range(n))  # middle to junction
            + sum((n - 1 - e) * 4 * 2 ** e for e in range(n - 1)))  # middle to middle


class TestConstruct:
    def test_comatrix(self):
        code, out = run(["construct", "--kind", "comatrix", "--n", "2", "--p", "5"])
        assert code == 0
        assert loads(out) == comatrix_coalgebra(F5, 2)

    def test_matrix_algebra_rationals(self):
        code, out = run(["construct", "--kind", "matrix-algebra", "--n", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["field"] == {"kind": "rationals"}

    def test_qplane_box(self):
        code, out = run(["construct", "--kind", "qplane-box", "--q-order", "2",
                         "--p", "5", "--a", "2", "--b", "2"])
        assert code == 0
        assert json.loads(out)["dim"] == 4

    def test_no_document_above_the_table_bound(self, tmp_path):
        """construct writes no document that dualize would refuse: the
        grouplike coalgebra of dim 1024 dualizes, and dim 1025 exits 3 at
        creation, naming the bound, with nothing written."""
        path = tmp_path / "g.json"
        code, _ = run(["construct", "--kind", "grouplike", "--n", str(_MAX_TABLE_DIM),
                       "--p", "5", "--out", str(path)])
        assert code == 0
        assert run(["dualize", "--in", str(path)])[0] == 0
        code, out = run(["construct", "--kind", "grouplike", "--n", str(_MAX_TABLE_DIM + 1)])
        assert (code, out) == (3, "error: document dim 1025 exceeds the table bound 1024\n")

    # each kind at a size that builds in milliseconds
    SMALL_KINDS = [
        ["comatrix", "--n", "3"],
        ["triangular", "--n", "4"],
        ["grouplike", "--n", "5"],
        ["divided-power", "--n", "6"],
        ["line-dist", "--points", "0:2,1:3,7"],
        ["path", "--vertices", "5", "--arrows", "1-0,2-1,2-0,2-0,4-3"],
        ["matrix-algebra", "--n", "3", "--p", "5"],
        ["triangular-algebra", "--n", "4"],
        ["poly-algebra", "--n", "7"],
        ["group-algebra", "--n", "6", "--p", "7"],
        ["qplane-box", "--q-order", "3", "--p", "13", "--a", "2", "--b", "5"],
        ["qplane-fiber", "--q-order", "3", "--p", "13", "--c", "2", "--d", "5"],
    ]

    @pytest.mark.parametrize("argv", SMALL_KINDS, ids=lambda argv: argv[0])
    def test_dim_read_off_the_parameters(self, argv, monkeypatch):
        """The dim construct bounds before it builds is the built document's."""
        seen = []
        monkeypatch.setattr(cli_module, "_bounded_dim", seen.append)
        code, out = run(["construct", "--kind", *argv])
        assert code == 0 and seen == [json.loads(out)["dim"]]

    # each kind at its first size over the table bound, and the dim read off
    # it; a path counts its paths, never listing them
    FIRST_OVER = [
        (["comatrix", "--n", "33"], 1089),
        (["triangular", "--n", "45"], 1035),
        (["grouplike", "--n", "1025"], 1025),
        (["divided-power", "--n", "1025"], 1025),
        (["line-dist", "--points", "0:1000,1:25"], 1025),
        (["line-dist", "--points", ",".join(str(k) for k in range(1025))], 1025),
        # a line of 44 vertices (990 paths) and 35 isolated vertices
        (["path", "--vertices", "79", "--arrows", ",".join(f"{k + 1}-{k}" for k in range(43))], 1025),
        # two vertices and 1,023 parallel arrows
        (["path", "--vertices", "2", "--arrows", ",".join(["1-0"] * 1023)], 1025),
        # 40 diamonds in a row: 2^40 paths from end to end alone
        (["path", "--vertices", "121", "--arrows",
          ",".join(f"{3 * k + m}-{3 * k + 3}" for k in range(40) for m in (1, 2)) + ","
          + ",".join(f"{3 * k}-{3 * k + m}" for k in range(40) for m in (1, 2))], diamond_paths(40)),
        (["matrix-algebra", "--n", "33", "--p", "5"], 1089),
        (["triangular-algebra", "--n", "45"], 1035),
        (["poly-algebra", "--n", "1025"], 1025),
        (["group-algebra", "--n", "1025", "--p", "5"], 1025),
        (["qplane-box", "--q-order", "3", "--p", "13", "--a", "41", "--b", "25"], 1025),
        (["qplane-fiber", "--q-order", "33", "--p", "67", "--c", "1", "--d", "1"], 1089),
    ]

    @pytest.mark.parametrize("argv,dim", FIRST_OVER, ids=[argv[0] for argv, _ in FIRST_OVER])
    def test_first_size_over_the_bound_refused_before_building(self, argv, dim, monkeypatch):
        """Exit 3, naming the bound, within a second; the constructor is
        never called."""
        _, flags, names, count = cli_module._KINDS[argv[0]]

        def unbuilt(*args):
            raise AssertionError("built above the table bound")

        monkeypatch.setitem(cli_module._KINDS, argv[0], (unbuilt, flags, names, count))
        start = time.perf_counter()
        code, out = run(["construct", "--kind", *argv])
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, f"error: document dim {dim} exceeds the table bound 1024\n")

    @pytest.mark.parametrize("argv,dim", [
        (["comatrix", "--n", "32"], 1024),
        (["triangular", "--n", "44"], 990),
        (["line-dist", "--points", ",".join(str(k) for k in range(1024))], 1024),
        (["path", "--vertices", "78", "--arrows", ",".join(f"{k + 1}-{k}" for k in range(43))], 1024),
        (["path", "--vertices", "2", "--arrows", ",".join(["1-0"] * 1022)], 1024),
        (["poly-algebra", "--n", "1024", "--p", "5"], 1024),
        (["group-algebra", "--n", "1024", "--p", "5"], 1024),
    ], ids=["comatrix", "triangular", "line-dist", "path-line", "path-parallel", "poly-algebra", "group-algebra"])
    def test_just_under_the_bound_runs(self, argv, dim):
        code, out = run(["construct", "--kind", *argv])
        assert code == 0 and json.loads(out)["dim"] == dim

    def test_huge_kinds_refused_under_a_memory_limit(self):
        """Argvs whose objects would take tens of GB exit 3 under a 1 GiB
        address-space limit, with no MemoryError."""
        argvs = [["matrix-algebra", "--n", "200", "--p", "5"], ["comatrix", "--n", "300"],
                 ["divided-power", "--n", "100000000"],
                 ["qplane-box", "--q-order", "3", "--p", "13", "--a", "3000", "--b", "3000"],
                 ["path", "--vertices", "100000000", "--arrows", "1-0"]]
        script = ("import io, resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                  "from findual.cli import cli_run\n"
                  f"for argv in {argvs!r}:\n"
                  "    print(cli_run(['construct', '--kind', *argv]))\n")
        src = os.path.dirname(os.path.dirname(findual.__file__))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=20,
                              env={**os.environ, "PYTHONPATH": src})
        dims = [40000, 90000, 100000000, 9000000, 100000001]
        assert (proc.stdout, proc.stderr) == (
            "".join(f"error: document dim {dim} exceeds the table bound 1024\n3\n" for dim in dims), "")

    def test_qplane_root_search_refused_promptly(self):
        # q-order near sqrt(p): the scan for the smallest root of that order
        # would take about (p - 1) / phi(n) = 5 * 10^8 steps
        src = os.path.dirname(os.path.dirname(findual.__file__))
        argv = ["construct", "--kind", "qplane-box", "--q-order", "2000000011",
                "--p", "1000000129500000683", "--a", "1", "--b", "1"]
        proc = subprocess.run(
            [sys.executable, "-m", "findual.cli", *argv],
            capture_output=True, text=True, timeout=5,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 3
        assert proc.stdout == ("error: finding the smallest element of order 2000000011 in "
                               "GF(1000000129500000683) would take about 500000062 steps, "
                               "more than 10000000\n")

    def test_path(self):
        code, out = run(["construct", "--kind", "path", "--p", "5",
                         "--vertices", "2", "--arrows", "1-0"])
        assert code == 0
        assert json.loads(out)["dim"] == 3

    def test_line_dist(self):
        code, out = run(["construct", "--kind", "line-dist", "--p", "5",
                         "--points", "0:2,1:1"])
        assert code == 0
        assert json.loads(out)["dim"] == 3

    def test_missing_flag_is_usage_error(self):
        code, _ = run(["construct", "--kind", "comatrix", "--p", "5"])
        assert code == 2

    def test_unknown_flag_rejected(self):
        code, _ = run(["construct", "--kind", "comatrix", "--n", "2", "--bogus", "1"])
        assert code == 2


# Mutants of the three structure constants [a, b, c, scalar] of a dim-2
# document (entries 0, 1 and 2)
ENTRY_MUTANTS = [
    ("not-a-list", lambda e: e.__setitem__(0, 7)),
    ("length-3", lambda e: e.__setitem__(0, e[0][:3])),
    ("float-index", lambda e: e[0].__setitem__(0, float(e[0][0]))),
    ("negative-index", lambda e: e[0].__setitem__(1, -1)),
    ("out-of-range-index", lambda e: e[0].__setitem__(2, 2)),
    ("bool-scalar", lambda e: e[0].__setitem__(3, True)),
    # the first bad entry in document order is named, whatever the faults
    ("bad-scalar-then-bad-shape", lambda e: (e[1].__setitem__(3, True), e.__setitem__(2, 7))),
    ("bad-index-then-bad-index", lambda e: (e[1].__setitem__(0, 2), e[2].__setitem__(0, -1))),
]
# Mutants of a dense scalar list: a unit, a counit or a map's matrix
SCALAR_LIST_MUTANTS = [
    ("bool-in-list", lambda v: v.__setitem__(0, True)),
    ("two-bad-in-list", lambda v: (v.__setitem__(0, 1.5), v.__setitem__(1, True))),
    ("short-list", lambda v: v.pop()),
]
_MALFORMED_KEYS = {"algebra": ("mul", "unit"), "coalgebra": ("comul", "counit"),
                   "twisting-map": ("mul", "matrix")}


def _malformed_cases(kind):
    """(field, mutate, key) for every entry and scalar-list mutant over GF(5)
    and Q; `mutate` edits the list doc[key]."""
    entries, scalars = _MALFORMED_KEYS[kind]
    return [(field, mutate, key) for field in (F5, QQ)
            for mutants, key in ((ENTRY_MUTANTS, entries), (SCALAR_LIST_MUTANTS, scalars))
            for _, mutate in mutants]


def _malformed_ids(kind):
    return [f"{name}-{field}" for field in ("gf5", "q")
            for name, _ in ENTRY_MUTANTS + SCALAR_LIST_MUTANTS]


# The stdout line of each malformed document (exit 2 for every one), keyed
# by document kind and test id; the messages name the first bad entry in
# document order
MALFORMED_LINES = {
    ("algebra", "zero-denominator"): "error: bad scalar '1/0': zero denominator in '1/0'\n",
    ("algebra", "string-modulus"): "error: key 'p' has wrong type\n",
    ("algebra", "float-scalar"): 'error: bad scalar 1.5: not a GF(5) scalar: 1.5\n',
    ("algebra", "non-rational-string"): "error: bad scalar 'abc': not a rational scalar: 'abc'\n",
    ("algebra", "repeated-triple"): 'error: mul triple [0, 0, 0] given twice\n',
    ("algebra", "bool-index"): 'error: mul index out of range or not an int: [True, 0, 0, 1]\n',
    ("algebra", "not-a-list-gf5"): 'error: mul entries must be [index, index, index, scalar]\n',
    ("algebra", "length-3-gf5"): 'error: mul entries must be [index, index, index, scalar]\n',
    ("algebra", "float-index-gf5"): 'error: mul index out of range or not an int: [0.0, 0, 0, 1]\n',
    ("algebra", "negative-index-gf5"): 'error: mul index out of range or not an int: [0, -1, 0, 1]\n',
    ("algebra", "out-of-range-index-gf5"): 'error: mul index out of range or not an int: [0, 0, 2, 1]\n',
    ("algebra", "bool-scalar-gf5"): 'error: bad scalar True: not a GF(5) scalar: True\n',
    ("algebra", "bad-scalar-then-bad-shape-gf5"): 'error: bad scalar True: not a GF(5) scalar: True\n',
    ("algebra", "bad-index-then-bad-index-gf5"): 'error: mul index out of range or not an int: [2, 1, 1, 1]\n',
    ("algebra", "bool-in-list-gf5"): 'error: bad scalar True: not a GF(5) scalar: True\n',
    ("algebra", "two-bad-in-list-gf5"): 'error: bad scalar 1.5: not a GF(5) scalar: 1.5\n',
    ("algebra", "short-list-gf5"): 'error: expected 2 scalars, got 1\n',
    ("algebra", "not-a-list-q"): 'error: mul entries must be [index, index, index, scalar]\n',
    ("algebra", "length-3-q"): 'error: mul entries must be [index, index, index, scalar]\n',
    ("algebra", "float-index-q"): "error: mul index out of range or not an int: [0.0, 0, 0, '1/1']\n",
    ("algebra", "negative-index-q"): "error: mul index out of range or not an int: [0, -1, 0, '1/1']\n",
    ("algebra", "out-of-range-index-q"): "error: mul index out of range or not an int: [0, 0, 2, '1/1']\n",
    ("algebra", "bool-scalar-q"): 'error: bad scalar True: not a rational scalar: True\n',
    ("algebra", "bad-scalar-then-bad-shape-q"): 'error: bad scalar True: not a rational scalar: True\n',
    ("algebra", "bad-index-then-bad-index-q"): "error: mul index out of range or not an int: [2, 1, 1, '1/1']\n",
    ("algebra", "bool-in-list-q"): 'error: bad scalar True: not a rational scalar: True\n',
    ("algebra", "two-bad-in-list-q"): 'error: bad scalar 1.5: not a rational scalar: 1.5\n',
    ("algebra", "short-list-q"): 'error: expected 2 scalars, got 1\n',
    ("coalgebra", "not-a-list-gf5"): 'error: comul entries must be [index, index, index, scalar]\n',
    ("coalgebra", "length-3-gf5"): 'error: comul entries must be [index, index, index, scalar]\n',
    ("coalgebra", "float-index-gf5"): 'error: comul index out of range or not an int: [0.0, 0, 0, 1]\n',
    ("coalgebra", "negative-index-gf5"): 'error: comul index out of range or not an int: [0, -1, 0, 1]\n',
    ("coalgebra", "out-of-range-index-gf5"): 'error: comul index out of range or not an int: [0, 0, 2, 1]\n',
    ("coalgebra", "bool-scalar-gf5"): 'error: bad scalar True: not a GF(5) scalar: True\n',
    ("coalgebra", "bad-scalar-then-bad-shape-gf5"): 'error: bad scalar True: not a GF(5) scalar: True\n',
    ("coalgebra", "bad-index-then-bad-index-gf5"): 'error: comul index out of range or not an int: [2, 0, 1, 1]\n',
    ("coalgebra", "bool-in-list-gf5"): 'error: bad scalar True: not a GF(5) scalar: True\n',
    ("coalgebra", "two-bad-in-list-gf5"): 'error: bad scalar 1.5: not a GF(5) scalar: 1.5\n',
    ("coalgebra", "short-list-gf5"): 'error: expected 2 scalars, got 1\n',
    ("coalgebra", "not-a-list-q"): 'error: comul entries must be [index, index, index, scalar]\n',
    ("coalgebra", "length-3-q"): 'error: comul entries must be [index, index, index, scalar]\n',
    ("coalgebra", "float-index-q"): "error: comul index out of range or not an int: [0.0, 0, 0, '1/1']\n",
    ("coalgebra", "negative-index-q"): "error: comul index out of range or not an int: [0, -1, 0, '1/1']\n",
    ("coalgebra", "out-of-range-index-q"): "error: comul index out of range or not an int: [0, 0, 2, '1/1']\n",
    ("coalgebra", "bool-scalar-q"): 'error: bad scalar True: not a rational scalar: True\n',
    ("coalgebra", "bad-scalar-then-bad-shape-q"): 'error: bad scalar True: not a rational scalar: True\n',
    ("coalgebra", "bad-index-then-bad-index-q"): "error: comul index out of range or not an int: [2, 0, 1, '1/1']\n",
    ("coalgebra", "bool-in-list-q"): 'error: bad scalar True: not a rational scalar: True\n',
    ("coalgebra", "two-bad-in-list-q"): 'error: bad scalar 1.5: not a rational scalar: 1.5\n',
    ("coalgebra", "short-list-q"): 'error: expected 2 scalars, got 1\n',
    ("twisting-map", "not-a-list-gf5"): 'error: mul entries must be [index, index, index, scalar]\n',
    ("twisting-map", "length-3-gf5"): 'error: mul entries must be [index, index, index, scalar]\n',
    ("twisting-map", "float-index-gf5"): 'error: mul index out of range or not an int: [0.0, 0, 0, 1]\n',
    ("twisting-map", "negative-index-gf5"): 'error: mul index out of range or not an int: [0, -1, 0, 1]\n',
    ("twisting-map", "out-of-range-index-gf5"): 'error: mul index out of range or not an int: [0, 0, 2, 1]\n',
    ("twisting-map", "bool-scalar-gf5"): 'error: bad scalar True: not a GF(5) scalar: True\n',
    ("twisting-map", "bad-scalar-then-bad-shape-gf5"): 'error: bad scalar True: not a GF(5) scalar: True\n',
    ("twisting-map", "bad-index-then-bad-index-gf5"): 'error: mul index out of range or not an int: [2, 1, 1, 1]\n',
    ("twisting-map", "bool-in-list-gf5"): 'error: bad scalar True: not a GF(5) scalar: True\n',
    ("twisting-map", "two-bad-in-list-gf5"): 'error: bad scalar 1.5: not a GF(5) scalar: 1.5\n',
    ("twisting-map", "short-list-gf5"): 'error: expected 16 scalars, got 15\n',
    ("twisting-map", "not-a-list-q"): 'error: mul entries must be [index, index, index, scalar]\n',
    ("twisting-map", "length-3-q"): 'error: mul entries must be [index, index, index, scalar]\n',
    ("twisting-map", "float-index-q"): "error: mul index out of range or not an int: [0.0, 0, 0, '1/1']\n",
    ("twisting-map", "negative-index-q"): "error: mul index out of range or not an int: [0, -1, 0, '1/1']\n",
    ("twisting-map", "out-of-range-index-q"): "error: mul index out of range or not an int: [0, 0, 2, '1/1']\n",
    ("twisting-map", "bool-scalar-q"): 'error: bad scalar True: not a rational scalar: True\n',
    ("twisting-map", "bad-scalar-then-bad-shape-q"): 'error: bad scalar True: not a rational scalar: True\n',
    ("twisting-map", "bad-index-then-bad-index-q"): "error: mul index out of range or not an int: [2, 1, 1, '1/1']\n",
    ("twisting-map", "bool-in-list-q"): 'error: bad scalar True: not a rational scalar: True\n',
    ("twisting-map", "two-bad-in-list-q"): 'error: bad scalar 1.5: not a rational scalar: 1.5\n',
    ("twisting-map", "short-list-q"): 'error: expected 16 scalars, got 15\n',
}


def table_document(kind, dim, labels=None):
    """An algebra, coalgebra or bialgebra document over GF(5) of dimension
    `dim` with empty structure constants and a zero unit and counit."""
    doc = {"type": kind, "field": {"kind": "prime-field", "p": 5}, "dim": dim,
           "labels": [f"b{k}" for k in range(dim)] if labels is None else labels}
    if kind != "coalgebra":
        doc.update(mul=[], unit=[0] * dim)
    if kind != "algebra":
        doc.update(comul=[], counit=[0] * dim)
    if kind == "bialgebra":
        doc["antipode"] = None
    return doc


class TestDualize:
    def test_algebra_to_coalgebra(self, tmp_path):
        path = tmp_path / "m2.json"
        path.write_text(to_canonical_json(matrix_algebra(F5, 2)))
        code, out = run(["dualize", "--in", str(path)])
        assert code == 0
        assert loads(out) == dualize_algebra(matrix_algebra(F5, 2))

    def test_round_trip_through_files(self, tmp_path):
        src = tmp_path / "in.json"
        mid = tmp_path / "mid.json"
        src.write_text(to_canonical_json(matrix_algebra(F5, 2)))
        code, _ = run(["dualize", "--in", str(src), "--out", str(mid)])
        assert code == 0
        code, out = run(["dualize", "--in", str(mid)])
        assert code == 0
        assert out == to_canonical_json(matrix_algebra(F5, 2))

    def test_bialgebra(self, tmp_path):
        from findual.twist import dual_bialgebra, grouplike_bialgebra

        h = grouplike_bialgebra(F5, 2)
        path = tmp_path / "h.json"
        path.write_text(to_canonical_json(h))
        code, out = run(["dualize", "--in", str(path)])
        assert code == 0
        assert loads(out) == dual_bialgebra(h)

    def test_missing_file(self):
        code, out = run(["dualize", "--in", "/nonexistent/file.json"])
        assert code == 2

    @pytest.mark.parametrize("kind", ["algebra", "coalgebra", "bialgebra"])
    def test_dim_above_the_table_bound(self, kind, tmp_path):
        """A header dim above the bound exits 3 and names the bound, before
        any dim^2 table is allocated."""
        dim = _MAX_TABLE_DIM + 1
        path = tmp_path / "big.json"
        path.write_text(json.dumps(table_document(kind, dim)))
        code, out = run(["dualize", "--in", str(path)])
        assert (code, out) == (3, f"error: document dim {dim} exceeds the table bound 1024\n")

    def test_huge_dim_refused_under_a_memory_limit(self, tmp_path):
        """dim 50,000 with an empty mul: its dense table would be 2.5 * 10^9
        cells.  Under a 1 GiB address-space limit the run exits 3, with no
        MemoryError."""
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(table_document("algebra", 50_000)))
        script = ("import resource\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                  "from findual.cli import main\n"
                  "main()\n")
        src = os.path.dirname(os.path.dirname(findual.__file__))
        proc = subprocess.run([sys.executable, "-c", script, "dualize", "--in", str(path)],
                              capture_output=True, text=True, timeout=20,
                              env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            3, "error: document dim 50000 exceeds the table bound 1024\n", "")

    def test_directory_as_input(self, tmp_path):
        code, out = run(["dualize", "--in", str(tmp_path)])
        assert code == 2
        assert out.startswith("error: ") and out.count("\n") == 1

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out = run(["dualize", "--in", str(path)])
        assert code == 2
        assert out.startswith("error: ") and out.count("\n") == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{{{{")
        code, _ = run(["dualize", "--in", str(path)])
        assert code == 2

    @pytest.mark.parametrize("field,mutate", [
        # a Q scalar with a zero denominator
        (QQ, lambda doc: doc["mul"][0].__setitem__(3, "1/0")),
        # the modulus given as a string
        (F5, lambda doc: doc["field"].__setitem__("p", "5")),
        # a float scalar
        (F5, lambda doc: doc["mul"][0].__setitem__(3, 1.5)),
        # a string that is not a rational
        (QQ, lambda doc: doc["mul"][0].__setitem__(3, "abc")),
        # one structure constant given twice
        (F5, lambda doc: doc["mul"].append(list(doc["mul"][0]))),
        # a JSON bool as an index
        (F5, lambda doc: doc["mul"][0].__setitem__(0, doc["mul"][0][0] == 0)),
    ] + [(field, lambda doc, mutate=mutate, key=key: mutate(doc[key]))
         for field, mutate, key in _malformed_cases("algebra")],
        ids=["zero-denominator", "string-modulus", "float-scalar", "non-rational-string",
             "repeated-triple", "bool-index"] + _malformed_ids("algebra"))
    def test_malformed_algebra_exits_2(self, tmp_path, field, mutate, request):
        doc = json.loads(to_canonical_json(truncated_polynomial_algebra(field, 2)))
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run(["dualize", "--in", str(path)])
        assert (code, out) == (2, MALFORMED_LINES["algebra", request.node.callspec.id])

    @pytest.mark.parametrize("field,mutate,key", _malformed_cases("coalgebra"), ids=_malformed_ids("coalgebra"))
    def test_malformed_coalgebra_exits_2(self, tmp_path, field, mutate, key, request):
        doc = json.loads(to_canonical_json(dualize_algebra(truncated_polynomial_algebra(field, 2))))
        mutate(doc[key])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run(["dualize", "--in", str(path)])
        assert (code, out) == (2, MALFORMED_LINES["coalgebra", request.node.callspec.id])

    @pytest.mark.parametrize("field,mutate,key", _malformed_cases("twisting-map"),
                             ids=_malformed_ids("twisting-map"))
    def test_malformed_twisting_map_exits_2(self, tmp_path, field, mutate, key, request):
        """The entry mutants edit the second component's table, which is
        decoded after the first."""
        a = truncated_polynomial_algebra(field, 2)
        doc = json.loads(to_canonical_json(tensor_swap(a, a)))
        mutate(doc["b"]["mul"] if key == "mul" else doc[key])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run(["twist-check", "--in", str(path)])
        assert (code, out) == (2, MALFORMED_LINES["twisting-map", request.node.callspec.id])

    def test_bool_dim_rejected(self, tmp_path):
        doc = json.loads(to_canonical_json(truncated_polynomial_algebra(F5, 1)))
        doc["dim"] = True  # bool is an int subclass and len(labels) == True
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        code, _ = run(["dualize", "--in", str(path)])
        assert code == 2


    @pytest.mark.parametrize("labels", [[None, "a"], [1.5, True], [[], {}]],
                             ids=["null", "float-bool", "list-dict"])
    @pytest.mark.parametrize("value", [truncated_polynomial_algebra(F5, 2),
                                       dualize_algebra(truncated_polynomial_algebra(F5, 2))],
                             ids=["algebra", "coalgebra"])
    def test_non_string_labels_exit_2(self, tmp_path, value, labels):
        doc = json.loads(to_canonical_json(value))
        doc["labels"] = labels
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(doc))
        code, out = run(["dualize", "--in", str(path)])
        assert code == 2
        assert out.startswith("error: ") and out.count("\n") == 1


class TestTwistCheck:
    def test_valid_swap(self, tmp_path):
        rho = tensor_swap(matrix_algebra(F5, 2), truncated_polynomial_algebra(F5, 2))
        path = tmp_path / "rho.json"
        path.write_text(to_canonical_json(rho))
        code, out = run(["twist-check", "--in", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["normal"] and doc["results"]["multiplicative"]

    @pytest.mark.parametrize("other", [GF(7), QQ], ids=["gf7", "rationals"])
    def test_components_over_different_fields_exit_2(self, tmp_path, other):
        doc = json.loads(to_canonical_json(
            tensor_swap(matrix_algebra(F5, 2), truncated_polynomial_algebra(F5, 2))))
        doc["b"] = json.loads(to_canonical_json(truncated_polynomial_algebra(other, 2)))
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(doc))
        code, out = run(["twist-check", "--in", str(path)])
        assert code == 2
        assert out.startswith("error: ")

    def test_failing_map_exits_one(self, tmp_path):
        from findual.algebra import cyclic_group_algebra

        a = cyclic_group_algebra(F5, 2)
        rho = tensor_swap(a, truncated_polynomial_algebra(F5, 2))
        doc = json.loads(to_canonical_json(rho))
        # rho(t (x) g) = 2 g (x) t breaks multiplicativity since g^2 = 1
        doc["matrix"][3 * 4 + 3] = 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run(["twist-check", "--in", str(path)])
        assert code == 1
        rep = json.loads(out)
        assert not rep["results"]["multiplicative"]
        assert rep["results"]["witnesses"]


class TestCensusCommands:
    def test_census_json(self, tmp_path):
        out_path = tmp_path / "census.json"
        code, _ = run(["qplane-census", "--n", "2", "--p", "5", "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["aggregate"]["azumaya_fibers"] == 16
        assert doc["aggregate"]["rational_axis_points"] == 9

    def test_census_csv(self):
        code, out = run(["qplane-census", "--n", "2", "--p", "5", "--format", "csv"])
        assert code == 0
        assert out.startswith("n,p,c,d,azumaya")

    def test_census_precondition_exit_3(self):
        code, _ = run(["qplane-census", "--n", "3", "--p", "5"])
        assert code == 3

    @pytest.mark.parametrize("n,p", [
        # n = (p - 1) / 2 is prime: factoring n by trial division would not return
        (1000000000000000841, 2000000000000001683),
        # n prime with p = k n + 1, k about n / 4: the elements of order n are
        # about one in k, so a search for the root of unity would not return
        (2000000011, 1000000129500000683),
    ])
    def test_census_refuses_p_at_most_n_squared_promptly(self, n, p):
        src = os.path.dirname(os.path.dirname(findual.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "findual.cli", "qplane-census", "--n", str(n), "--p", str(p)],
            capture_output=True, text=True, timeout=5,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 3
        assert proc.stdout == f"error: census needs p > n^2; got p = {p}, n = {n}\n"

    def test_census_fiber_bound_admits_every_timed_census(self):
        """The largest census timed at desk scale, (12, 157), and p = 199
        pass; p = 211, the next prime, is the first refused."""
        from findual.qplane import _MAX_CENSUS_FIBERS

        assert 157 ** 2 < 199 ** 2 <= _MAX_CENSUS_FIBERS < 211 ** 2

    @pytest.mark.parametrize("n", [2, 7])
    def test_census_first_p_over_the_fiber_bound_refused(self, n, monkeypatch):
        """p = 211 exits 3 naming the bound, before the root search."""
        from findual import qplane

        def unsearched(*args):
            raise AssertionError("root searched above the census bound")

        monkeypatch.setattr(qplane, "primitive_root_of_unity", unsearched)
        code, out = run(["qplane-census", "--n", str(n), "--p", "211"])
        assert (code, out) == (3, "error: census of p^2 = 44521 fibers exceeds the bound 40000; got p = 211\n")

    def test_census_order_checks_come_before_the_fiber_bound(self):
        """An order that does not divide p - 1, or whose square is at least
        p, is named as such above the bound too."""
        assert run(["qplane-census", "--n", "4", "--p", "211"]) == (3, "error: 4 does not divide 211 - 1\n")
        assert run(["qplane-census", "--n", "15", "--p", "211"]) == (
            3, "error: census needs p > n^2; got p = 211, n = 15\n")

    def test_census_just_under_the_fiber_bound_runs(self):
        code, out = run(["qplane-census", "--n", "2", "--p", "199", "--format", "csv"])
        lines = out.splitlines()
        assert code == 0 and len(lines) == 1 + 199 ** 2
        assert sum(line.split(",")[4] == "1" for line in lines[1:]) == 198 ** 2

    def test_point(self):
        code, out = run(["qplane-point", "--n", "2", "--p", "5", "--c", "1", "--d", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["total_dim"] == 12
        assert doc["results"]["radical_dim"] == 8

    def test_point_on_axis_exit_3(self):
        code, _ = run(["qplane-point", "--n", "2", "--p", "5", "--c", "1", "--d", "0"])
        assert code == 3

    @pytest.mark.parametrize("n,p,message", [
        ("0", "7", "order must be positive, got 0"),
        ("4", "12", "modulus 12 is not prime"),
        ("2000000011", "1000000129500000683", "jet algebra dim 3n^2 must be at most 432; got n = 2000000011"),
    ])
    def test_point_names_the_failed_precondition(self, n, p, message):
        code, out = run(["qplane-point", "--n", n, "--p", p, "--c", "1", "--d", "1"])
        assert (code, out) == (3, f"error: {message}\n")

    def test_point_refuses_large_jet_algebra_promptly(self):
        # n near sqrt(p): the search for the root of unity alone would not return
        src = os.path.dirname(os.path.dirname(findual.__file__))
        argv = ["qplane-point", "--n", "2000000011", "--p", "1000000129500000683", "--c", "1", "--d", "1"]
        proc = subprocess.run(
            [sys.executable, "-m", "findual.cli", *argv],
            capture_output=True, text=True, timeout=5,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 3
        assert proc.stdout.startswith("error: jet algebra dim 3n^2 must be at most 432")
        assert proc.stdout.count("\n") == 1


class TestVerify:
    def test_duality_suite(self):
        code, out = run(["verify", "--suite", "duality", "--seed", "7"])
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["ok"]
        assert doc["schema_version"] == 1
        assert doc["command"][0] == "verify"

    def test_deterministic_bytes(self):
        _, out1 = run(["verify", "--suite", "duality", "--seed", "7"])
        _, out2 = run(["verify", "--suite", "duality", "--seed", "7"])
        assert out1 == out2

    def test_single_criterion_as_suite(self):
        code, out = run(["verify", "--suite", "twisted-duality", "--seed", "7"])
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["key"] == "twisted-duality"
        assert doc["results"][0]["details"]["swaps"] > 0

    def test_census_bytes_deterministic(self):
        _, out1 = run(["qplane-census", "--n", "2", "--p", "5"])
        _, out2 = run(["qplane-census", "--n", "2", "--p", "5"])
        assert out1 == out2


class TestSelftest:
    def test_full_matrix(self):
        code, out = run(["selftest"])
        assert code == 0
        lines = out.splitlines()
        pass_lines = [ln for ln in lines if ln.startswith("PASS")]
        assert len(pass_lines) == 8
        doc = json.loads(lines[-1])
        assert doc["summary"]["ok"]


def _twist_check_documents():
    """The twist-check inputs whose report bytes are pinned below."""
    from findual.qplane import qtwist_decomposition
    from findual.twist import CotwistingMap, twist_corpus

    yield "rho-box8", qtwist_decomposition(4, 17, 8, 8).rho_q
    for k, rho in enumerate(twist_corpus(QQ, seed=7, trials=5)):
        yield f"corpus-{k}", rho
    f = GF(7)
    rho = twist_corpus(f, seed=3, trials=1)[0]
    ent = list(rho.matrix.transpose().entries)
    ent[5] = f.of(3)
    n = rho.matrix.rows
    yield "cotwist", CotwistingMap(dualize_algebra(rho.a), dualize_algebra(rho.b),
                                   Matrix(f, n, n, ent))
    a2 = truncated_polynomial_algebra(F5, 2)
    yield "cotwist-swap", cotensor_swap(dualize_algebra(a2), dualize_algebra(a2))
    yield "not-a-map", a2


_PASS = "26d4bf2ecacd806b56386f5f763e4903fb9dac4e46f19f34274d18461bb3335a"

# exit code and sha256 of the `twist-check --in doc.json` report, witnesses
# included: the law checks must reproduce these bytes exactly
TWIST_CHECK_DIGESTS = {
    "rho-box8": (0, _PASS),
    "corpus-0": (0, _PASS),
    "corpus-1": (1, "6624d260acc81440785e01a2167d04f41197cf9702db40129c30da9b87f3bc79"),
    "corpus-2": (0, _PASS),
    "corpus-3": (0, _PASS),
    "corpus-4": (1, "b0cd6a755ad08c4ebb37eac0ccb2476697e5741f23bc264032fc2434cfbc722d"),
    "cotwist": (1, "d8f2a377d1eef443eb5db56951ed0d8830a3c1f9708ce3ec36d8bc6ef060df57"),
    "cotwist-swap": (0, "89ec69b189e5621a4c400c93957a914c6defe1d003ecd9c2688ef77ed79078d2"),
    "not-a-map": (2, "53b8219b1ec8b902e2593e89fd84d6be4a3ded04f42114fae4145284085a5285"),
}


# sha256 of the stdout of the acceptance reports, all exit 0: every
# criterion's verdict and details must reproduce these bytes exactly (the
# twists and coradical suites are the benchmark's other selftest-workload runs)
ACCEPTANCE_DIGESTS = {
    ("selftest", "--seed", "5"): "c3f1d8ffe14c0b08ed2086c5537d0075f7e5a6b6c86f3ef70b50a0658e4e956c",
    ("verify", "--suite", "all", "--seed", "11"):
        "b3def9d0a69f01511fa7a97af671add0313fab38e9fced11222d65692adc2486",
    ("verify", "--suite", "twists", "--seed", "7"):
        "57eb925c2385700f2092587da1b57adfc445b273e36cc5fbd0058fdf52f80622",
    ("verify", "--suite", "coradical"):
        "08205a7245131a30698ef32756e1086f679857b24dcdedaa640365c8a6e1713e",
}


# sha256 of "error: modulus 4 is not prime\n"
_NOT_PRIME = "9b254b6b442fceda281e5deb97307268eef97bcac6bb77c1cbae32e719436ea3"

# exit code and stdout sha256 of the CLI runs whose dispatch cli.py owns:
# every `construct --kind` built, with each of its flags missing (an empty
# --points or --arrows counts as missing), over a non-prime --p with and
# without --n (the field is checked first), at --n 0, and one
# `qplane-point` report
CLI_SURFACE_DIGESTS = {
    "construct --kind comatrix --p 5 --n 2":
        (0, "f6d0d7f897820d821c666a1a5f034cda8a7e344dc673088237ed77a8a2858e0c"),
    "construct --kind comatrix --p 5":
        (2, "26497891130832be00dc29c357c688e287d2d67d248afa8b4f308f64a08cb81c"),
    "construct --kind comatrix --p 4 --n 2": (3, _NOT_PRIME),
    "construct --kind comatrix --p 4": (3, _NOT_PRIME),
    "construct --kind comatrix --n 0":
        (3, "4825a44a51e68bb8219f9ec18be530fd603641af30cb9d89ac420dd80e699b38"),
    "construct --kind triangular --p 5 --n 3":
        (0, "e1297d483d16a4d36299a45e0cf73a21fd9515daff68aca0f3f8bf7c557cfd69"),
    "construct --kind triangular --p 5":
        (2, "69df84085fa61190614d7a12ef6b91c454af254cdd05297dd774f943c6cc71d9"),
    "construct --kind triangular --p 4 --n 3": (3, _NOT_PRIME),
    "construct --kind triangular --p 4": (3, _NOT_PRIME),
    "construct --kind triangular --n 0":
        (3, "4a72bc152fbf0a078494ef76aff3a2605eed3aef7b4c415da188bb9e9736af5a"),
    "construct --kind grouplike --p 5 --n 2":
        (0, "be82fe048a5293208c8496395b5584d5d8b4db40287fd47fec1cdc87481ad585"),
    "construct --kind grouplike --p 5":
        (2, "a0bf29324b9d1a2f0d183f328a26dfa7da99a9d87fd9c710d2e75a370c8fdb53"),
    "construct --kind grouplike --p 4 --n 2": (3, _NOT_PRIME),
    "construct --kind grouplike --p 4": (3, _NOT_PRIME),
    "construct --kind grouplike --n 0":
        (3, "e437781c048226fe086a41f08a042e17af38ddc88da06afb8fdd74e5473f42b3"),
    "construct --kind divided-power --p 5 --n 3":
        (0, "f7f095854048cb37e063be55d01ce27736a94aa48c42f1fd6a126af2cf192a94"),
    "construct --kind divided-power --p 5":
        (2, "52a3a22a984fe96072c237a67c1fb2e4dadf07c412a9c5b6a7a2fa82be33574f"),
    "construct --kind divided-power --p 4 --n 3": (3, _NOT_PRIME),
    "construct --kind divided-power --p 4": (3, _NOT_PRIME),
    "construct --kind divided-power --n 0":
        (3, "56741b0188efd5ed30d264e31498a0d2ddd6c447142362cf2d4a9e569f3edc03"),
    "construct --kind line-dist --p 5 --points 0:2,1:1":
        (0, "774f35530e2a7c50a04b5d66b14eb7cfbf69101d05dbd5c0b371fcf0d468ae41"),
    "construct --kind line-dist --p 5":
        (2, "aff753348ddaef13f4a947713be38fdf8872dc7fcbe13852c1e1e92ad04d37c2"),
    "construct --kind line-dist --p 4 --points 0:2,1:1": (3, _NOT_PRIME),
    "construct --kind line-dist --p 4": (3, _NOT_PRIME),
    "construct --kind path --p 5 --vertices 2 --arrows 1-0":
        (0, "ff8dd8195599df65bf5a1ad31e86ef79d7c6cc3070aa78d3f068c25b32fa8492"),
    "construct --kind path --p 5 --arrows 1-0":
        (2, "f46159b9c385c9027ae245cb914265ae7e672211de069b54c93a387d04dbe4a5"),
    "construct --kind path --p 5 --vertices 2":
        (2, "f46159b9c385c9027ae245cb914265ae7e672211de069b54c93a387d04dbe4a5"),
    "construct --kind path --p 4 --vertices 2 --arrows 1-0": (3, _NOT_PRIME),
    "construct --kind path --p 4": (3, _NOT_PRIME),
    "construct --kind matrix-algebra --p 5 --n 2":
        (0, "e0364d2cb36a01e15b13ac910014e8e195921970ed6b573454afaf6a8bad5c12"),
    "construct --kind matrix-algebra --p 5":
        (2, "b6108ba8596f7488e093fd273d9937c6ecab4c228b32d3dee42faa053856947f"),
    "construct --kind matrix-algebra --p 4 --n 2": (3, _NOT_PRIME),
    "construct --kind matrix-algebra --p 4": (3, _NOT_PRIME),
    "construct --kind matrix-algebra --n 0":
        (3, "4825a44a51e68bb8219f9ec18be530fd603641af30cb9d89ac420dd80e699b38"),
    "construct --kind triangular-algebra --p 5 --n 2":
        (0, "48742456930a7bf7488b60252c20ae695cf5f27c70e253c611e83b12e6f2e668"),
    "construct --kind triangular-algebra --p 5":
        (2, "6a32a3e42489aa7ea45ddd05bfca8ce218485bfe3b3cf1bd73d6b9ec68e05947"),
    "construct --kind triangular-algebra --p 4 --n 2": (3, _NOT_PRIME),
    "construct --kind triangular-algebra --p 4": (3, _NOT_PRIME),
    "construct --kind triangular-algebra --n 0":
        (3, "4a72bc152fbf0a078494ef76aff3a2605eed3aef7b4c415da188bb9e9736af5a"),
    "construct --kind poly-algebra --p 5 --n 3":
        (0, "78182f46452de3e19f5db50196120d38ab2d3d1059aa4412fafb6bafc26c2a55"),
    "construct --kind poly-algebra --p 5":
        (2, "3a1d317abb25b1ca4c590b23019a19f30e3473a5ed4c549226fc46790ceec3bc"),
    "construct --kind poly-algebra --p 4 --n 3": (3, _NOT_PRIME),
    "construct --kind poly-algebra --p 4": (3, _NOT_PRIME),
    "construct --kind poly-algebra --n 0":
        (3, "e6d587525496e12230f58a00bc2ddc1efd5f589ca5e719d93bc197204f109e14"),
    "construct --kind group-algebra --p 5 --n 3":
        (0, "738ab75755eaf63ea81a21327e290087283e72d3a9bbefe33378fe44456b102c"),
    "construct --kind group-algebra --p 5":
        (2, "b18c215bd44ea9654aea16036b6b7949a48f287635a5ddc81edc5c8a57297b6d"),
    "construct --kind group-algebra --p 4 --n 3": (3, _NOT_PRIME),
    "construct --kind group-algebra --p 4": (3, _NOT_PRIME),
    "construct --kind group-algebra --n 0":
        (3, "a28afa04eff94b2995713e8bdd5f2edc3405cf9f9e46e20224ba94ce02d1cd6b"),
    "construct --kind line-dist --p 5 --points ''":
        (2, "aff753348ddaef13f4a947713be38fdf8872dc7fcbe13852c1e1e92ad04d37c2"),
    "construct --kind path --p 5 --vertices 2 --arrows ''":
        (2, "f46159b9c385c9027ae245cb914265ae7e672211de069b54c93a387d04dbe4a5"),
    "construct --kind qplane-box --q-order 2 --p 5 --a 2 --b 2":
        (0, "38fdeb20565f95eaaac0e138236d13771ba2e911401f941911f3d72f42b94c85"),
    "construct --kind qplane-box --p 5 --a 2 --b 2":
        (2, "ae23054674ed83cc39179e67b4969fab294f45fba4e086010869410e994aaa08"),
    "construct --kind qplane-box --q-order 2 --a 2 --b 2":
        (2, "ae23054674ed83cc39179e67b4969fab294f45fba4e086010869410e994aaa08"),
    "construct --kind qplane-box --q-order 2 --p 5 --b 2":
        (2, "d5ff13be39bf1479993833cb9c2ae40d6f671882ed85ce387694c50acc69c892"),
    "construct --kind qplane-box --q-order 2 --p 5 --a 2":
        (2, "d5ff13be39bf1479993833cb9c2ae40d6f671882ed85ce387694c50acc69c892"),
    "construct --kind qplane-fiber --q-order 2 --p 5 --c 1 --d 2":
        (0, "cc4eb3b785771ee66f6dee0e9281961895131bbce6a74fa2cb51da6517f26699"),
    "construct --kind qplane-fiber --p 5 --c 1 --d 2":
        (2, "ae23054674ed83cc39179e67b4969fab294f45fba4e086010869410e994aaa08"),
    "construct --kind qplane-fiber --q-order 2 --c 1 --d 2":
        (2, "ae23054674ed83cc39179e67b4969fab294f45fba4e086010869410e994aaa08"),
    "construct --kind qplane-fiber --q-order 2 --p 5 --d 2":
        (2, "7013aa4f5e520b44de712f5ed4aa808bc26942099faad5c289892e3b796ddad9"),
    "construct --kind qplane-fiber --q-order 2 --p 5 --c 1":
        (2, "7013aa4f5e520b44de712f5ed4aa808bc26942099faad5c289892e3b796ddad9"),
    "qplane-point --n 3 --p 13 --c 2 --d 5":
        (0, "57ec54214f408e59d67572e84ef4b5c06b133b3438968cf0071366fff3cd95e8"),
}


# stdout sha256 of `qplane-point` at n = 1, where the fiber is k, and at
# the largest n the jet bound admits, recorded while the point still took
# its top as the generic quotient of the jet algebra by its radical
POINT_DIGESTS = {
    "qplane-point --n 1 --p 5 --c 2 --d 3": "4a004d9f78efeab245d1d46811c7f0105a59e661299445c5561af637a8097410",
    "qplane-point --n 12 --p 157 --c 2 --d 3": "113dfc6cb90ca826eef84f623477533d2cecbc941b02befaaeb75b084f1c76fe",
}


class TestPointReportBytes:
    @pytest.mark.parametrize("argv", list(POINT_DIGESTS))
    def test_report_is_byte_identical(self, argv):
        code, out = run(shlex.split(argv))
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, POINT_DIGESTS[argv])


class TestAcceptanceReportBytes:
    @pytest.mark.parametrize("argv", list(ACCEPTANCE_DIGESTS), ids=["selftest-seed5", "verify-all-seed11", "verify-twists-seed7", "verify-coradical"])
    def test_report_is_byte_identical(self, argv):
        code, out = run(list(argv))
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, ACCEPTANCE_DIGESTS[argv])


class TestCliSurfaceBytes:
    @pytest.mark.parametrize("argv", list(CLI_SURFACE_DIGESTS))
    def test_bytes_and_exit_code(self, argv):
        code, out = run(shlex.split(argv))
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == CLI_SURFACE_DIGESTS[argv]


# sha256 of no output
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# exit code, stdout sha256 and stderr sha256 of the runs argparse answers
# (help, usage errors, invalid choices), at 80 columns: argparse writes help
# to sys.stdout and its errors to sys.stderr, so both are pinned.  verify
# and selftest have no required flag; theirs is a --seed with no value.
# The last two argvs name a command that does not run.
CLI_PARSE_DIGESTS = {
    "":
        (2, _EMPTY,
         "107427f212c8c8cb9d7f3d2f31bcdccebf1fcb3f1dcc9ec952405e644fbd8384"),
    "-h":
        (0, "88096326b18df5e075cb064df44f43ccb98d49707eebd56b111cf658d8d84665",
         _EMPTY),
    "--help":
        (0, "88096326b18df5e075cb064df44f43ccb98d49707eebd56b111cf658d8d84665",
         _EMPTY),
    "bogus":
        (2, _EMPTY,
         "10a217308ff965e58d1eb3cacca7c4fb87c61ace13708ac418211d28fd7643dd"),
    "--bogus":
        (2, _EMPTY,
         "107427f212c8c8cb9d7f3d2f31bcdccebf1fcb3f1dcc9ec952405e644fbd8384"),
    "construct --help":
        (0, "9f2eb4b2840c7e3e0e83b9c2e279de60e2710b06ba0752506065acabad92e447",
         _EMPTY),
    "dualize --help":
        (0, "3259d7d633ef60ccc38ce29d1c5d5cce938d74a0541f23aba35b2a3135bd3cf6",
         _EMPTY),
    "twist-check --help":
        (0, "20ee1e14d843b10a5059b5b623d513561e81df951379ae9dff19c3d446a53f3b",
         _EMPTY),
    "verify --help":
        (0, "1172ffbca8bfa69a6cf781d18bc1a1bb0c0b393ffa778e8e2fefc1208a83369c",
         _EMPTY),
    "qplane-census --help":
        (0, "c96f6e0e4e2ba964a7abd75c05f042e0afa983c7133eacef90aecf3854112fec",
         _EMPTY),
    "qplane-point --help":
        (0, "dff14a47cb31328b737f51d7ce82fa325aefc98fcbe77f315c524cd23fa82b75",
         _EMPTY),
    "selftest --help":
        (0, "00d9f571ffbe7730e728f980fb9455e75a1626520daefe5ba3d6992feaeb4e47",
         _EMPTY),
    "construct":
        (2, _EMPTY,
         "d69d53df80e5a1ae71ebd68d6c29ef1cba6ffb24b3dd969b3031581639251724"),
    "dualize":
        (2, _EMPTY,
         "bb7d7aa46f8197ba4072d4768035040276872f1a74cbfd59835026bb45205450"),
    "twist-check":
        (2, _EMPTY,
         "f0d995ea0fd3094f8ba8fc14e1586b718a497a7042bc6d5c3fe133ead20f0b44"),
    "verify --seed":
        (2, _EMPTY,
         "c42b5f7a4b147ee5d93940a7ac2df1426da43223dbbe36d1958c038df29212d0"),
    "qplane-census --n 3":
        (2, _EMPTY,
         "092ed4263d4623dae051763a1bb7cc31fe2dbea2063af933026336c11fbf3efd"),
    "qplane-point --n 3 --p 13 --c 2":
        (2, _EMPTY,
         "07f737efc0a7edf6ab6607f40edf7791bacef4dd73e1ec2dd1bf3d75d8a3ab7c"),
    "selftest --seed":
        (2, _EMPTY,
         "f0b6c48b6466fa74016da283be92a558176abced4db9276a4dc01d2eb7f49e46"),
    "selftest --bogus":
        (2, _EMPTY,
         "f758601a3fd09080ac7b450b50e93744048e7bde34980ebdc93b94db9be61422"),
    "construct --kind bogus":
        (2, _EMPTY,
         "20029e5cfffb5de69e2759426913b450720d784b470837177e12091355e5b9b4"),
    "qplane-census --n 3 --p 13 --format xml":
        (2, _EMPTY,
         "83aabf9f72c1981217b39ef9faa26923ed82b90ed3eded055423f3fe5f0ab7a3"),
    "verify --suite bogus":
        (2, _EMPTY,
         "acbd805b465737d2b759c0b9c871eb8669ce52c03b1d3670368d73c0e94a9ae6"),
    "construct --kind comatrix --n x":
        (2, _EMPTY,
         "d9895788787b5ed0631c0af2d1ad9c7d19ed330525935a27c468e8fb9ff6a058"),
    "construct --kind line-dist --points dualize":
        (2, "0f712a56001268a5434d49bc08adadc67e58a162ba2a915fddf8a070be0df094",
         _EMPTY),
    "-- dualize --in x":
        (2, _EMPTY,
         "229ea2d8fd25e2af00b0a6d5e88d28c627020616533fc392a7312022668b7b03"),
}


def run_streams(argv):
    """(exit code, stdout, stderr) of cli_run writing to the process's streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_run(argv)
    return code, out.getvalue(), err.getvalue()


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestCliParseBytes:
    @pytest.mark.parametrize("argv", list(CLI_PARSE_DIGESTS))
    def test_bytes_and_exit_code(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_streams(shlex.split(argv))
        assert (code, sha(out), sha(err)) == CLI_PARSE_DIGESTS[argv]

    @pytest.mark.parametrize("columns", ["40", "200"])
    @pytest.mark.parametrize("argv", list(CLI_PARSE_DIGESTS))
    def test_bytes_do_not_depend_on_columns(self, argv, columns, monkeypatch):
        # the pins above are taken at 80 columns; a narrower or wider
        # terminal must give the same bytes
        monkeypatch.setenv("COLUMNS", columns)
        code, out, err = run_streams(shlex.split(argv))
        assert (code, sha(out), sha(err)) == CLI_PARSE_DIGESTS[argv]

    @pytest.mark.parametrize("columns", ["80", None])
    @pytest.mark.parametrize("argv", ["--help", "dualize --help"])
    def test_module_entry_point(self, argv, columns):
        # main() and the __main__ guard, which no in-process run reaches;
        # with COLUMNS unset, argparse would ask the terminal for its width
        src = os.path.dirname(os.path.dirname(findual.__file__))
        env = {key: value for key, value in os.environ.items() if key != "COLUMNS"}
        if columns is not None:
            env["COLUMNS"] = columns
        proc = subprocess.run(
            [sys.executable, "-m", "findual.cli", *argv.split()],
            capture_output=True, text=True, timeout=60,
            env={**env, "PYTHONPATH": src},
        )
        assert (proc.returncode, sha(proc.stdout)) == CLI_PARSE_DIGESTS[argv][:2]


def parsers_built(monkeypatch, argv):
    """How many ArgumentParsers one cli_run(argv) constructs."""
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "__init__", spy)
        run_streams(argv)
    return len(built)


# the one CLI_PARSE_DIGESTS argv of the plain form: its value names a
# command, and the table path reads it as argparse does, as a value
_PLAIN_PARSE_ARGVS = {"construct --kind line-dist --points dualize"}


class TestParsersBuilt:
    """An argv of the plain form `command --flag value ...` builds no parser;
    any other builds the top-level parser and the subparser of each command
    named in argv, and no other: one parser for an argv naming no command."""

    @pytest.mark.parametrize("argv", list(CLI_PARSE_DIGESTS))
    def test_parse_runs(self, argv, monkeypatch):
        plain = argv in _PLAIN_PARSE_ARGVS
        argv = shlex.split(argv)
        assert (cli_module._table_args(argv) is not None) == plain
        want = 0 if plain else 1 + len(set(argv) & set(cli_module._HANDLERS))
        assert parsers_built(monkeypatch, argv) == want

    @pytest.mark.parametrize("argv", list(CLI_SURFACE_DIGESTS))
    def test_surface_runs(self, argv, monkeypatch):
        # an empty value leaves the plain form
        argv = shlex.split(argv)
        assert parsers_built(monkeypatch, argv) == (2 if "" in argv else 0)

    def test_every_command_named_at_once(self, monkeypatch):
        assert parsers_built(monkeypatch, ["--help", *cli_module._HANDLERS]) == 8


# the parts the argv streams below are drawn from: each command's flags,
# the abbreviations and near-misses argparse resolves or rejects, and values
# that pass or fail each flag's type and choices
_FLAGS = sorted({flag for flags in cli_module._ARGS.values() for flag, _ in flags})
_ODD_FLAGS = ["--ki", "--poi", "--q", "--su", "--se", "--fo", "--i", "--ou", "--bogus",
              "-h", "--help", "--", "-n", "--kind=comatrix", "--n=3", "--in=x.json", "--seed=7"]
_BAD_VALUES = ["", "-1", "-x", "--n", "-- x", "x", "2.5", "xml", "bogus"]
_VALUES = ["0", "2", "5", "13", "+3", " 4", "4_0", "all", "twists", "json", "csv", "comatrix",
           "qplane-box", "line-dist", "dualize", "construct", "x.json", "0:2,1:1", "a b", *_BAD_VALUES]
_ARGV_PARTS = st.lists(st.one_of(
    st.sampled_from(_FLAGS), st.sampled_from(_ODD_FLAGS), st.sampled_from(_VALUES),
    st.sampled_from(sorted(cli_module._ARGS)),
), max_size=8)


def _good_values(kwargs):
    if kwargs.get("type") is int:
        return ["0", "2", "5", "13", "+3", " 4", "4_0"]
    return kwargs.get("choices") or ["x.json", "0:2,1:1", "a b", "dualize", "1-0"]


@st.composite
def plainish_argvs(draw):
    """An argv of the plain form for one command, with each required flag
    and some of the others in any order, then broken up to twice: a pair
    dropped, a value made bad (empty, led by "-", not an int, out of its
    choices), a flag repeated, or an odd part inserted (an abbreviated or
    unknown flag, `--flag=value`, `--`, `-h`, a lone value)."""
    command = draw(st.sampled_from(sorted(cli_module._ARGS)))
    argv = [command]
    for flag, kwargs in draw(st.permutations(cli_module._ARGS[command])):
        if kwargs.get("required") or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(_good_values(kwargs)))]
    for _ in range(draw(st.integers(0, 2))):
        pair = 1 + 2 * draw(st.integers(0, len(argv) // 2))
        how = draw(st.sampled_from(["drop", "bad value", "repeat", "insert"]))
        if how == "drop":
            del argv[pair:pair + 2]
        elif how == "bad value" and pair + 1 < len(argv):
            argv[pair + 1] = draw(st.sampled_from(_BAD_VALUES))
        elif how == "repeat" and pair + 1 < len(argv):
            argv += argv[pair:pair + 2]
        else:
            argv.insert(draw(st.integers(0, len(argv))),
                        draw(st.sampled_from([*_ODD_FLAGS, *_VALUES])))
    return argv


def parse_args(argv):
    """argparse's Namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli_module._build_parser(argv).parse_args(argv)
        except SystemExit:
            return None


class TestTableArgsAgainstArgparse:
    """`_table_args` returns a Namespace only where argparse gives the same
    one."""

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(plainish_argvs(), _ARGV_PARTS))
    def test_namespace_is_argparse_namespace(self, argv):
        args = cli_module._table_args(argv)
        if args is not None:
            assert args == parse_args(argv)

    @pytest.mark.parametrize("command", list(cli_module._ARGS))
    def test_defaults(self, command):
        # every flag given, and every flag but the required ones left out
        full, least = [command], [command]
        for flag, kwargs in cli_module._ARGS[command]:
            value = "7" if kwargs.get("type") is int else kwargs.get("choices", ["x.json"])[-1]
            full += [flag, value]
            if kwargs.get("required"):
                least += [flag, value]
        for argv in (full, least):
            args = cli_module._table_args(argv)
            assert args is not None and args == parse_args(argv)

    @pytest.mark.parametrize("argv", [key for key in CLI_SURFACE_DIGESTS if "''" not in key])
    def test_surface_argvs_take_the_table(self, argv):
        args = cli_module._table_args(shlex.split(argv))
        assert args is not None and args == parse_args(shlex.split(argv))


class TestNonStringArgv:
    @pytest.mark.parametrize("argv, line", [
        (["selftest", "--seed", 5], "error: argv[2] is int, not str\n"),
        (["dualize", "--in", None], "error: argv[2] is NoneType, not str\n"),
    ])
    def test_exit_2_with_one_line(self, argv, line):
        code, out, err = run_streams(argv)
        assert (code, out, err) == (2, line, "")


class TestTwistCheckBytes:
    def test_reports_are_byte_identical(self, tmp_path, monkeypatch):
        # the report echoes argv, so the --in path is a fixed relative one
        monkeypatch.chdir(tmp_path)
        got = {}
        for name, value in _twist_check_documents():
            (tmp_path / "doc.json").write_text(to_canonical_json(value))
            code, out = run(["twist-check", "--in", "doc.json"])
            got[name] = (code, hashlib.sha256(out.encode()).hexdigest())
        assert got == TWIST_CHECK_DIGESTS


# exit code and stdout sha256 of construct, dualize and dualize-back over Q
# for the duality chains: Q scalar arithmetic must reproduce these bytes
_MATRIX6 = "893b2fde4d305a3ebe071d62a8f26406dc828116efb07addc8e89b8f0fad0230"
_COMATRIX6 = "733a492592cedeb47227557043ad3943d29e80dcf96632aafe651ff50c6e6f24"
_TRIANGULAR8 = "e9550496a6ad9fdcef0f13f023d1147173569ae6260a80221db9e07884f62f09"
_DIVPOW40 = "7ca36e282d94e54f1d25671a79a46171e09b8feaba2cea1d8bed901a223be785"
RATIONAL_CHAIN_DIGESTS = {
    "matrix-algebra --n 6": (_MATRIX6, _COMATRIX6, _MATRIX6),
    "comatrix --n 6": (_COMATRIX6, _MATRIX6, _COMATRIX6),
    "triangular --n 8":
        (_TRIANGULAR8, "7240bdd9c05acf186fb7490eb07562ecdfe466413b9a0bb27f26eec6ffe5b012", _TRIANGULAR8),
    "divided-power --n 40":
        (_DIVPOW40, "e6a0b0d7925fd25e5710402f47319721dba04dfbae53f9149d172b27397135cc", _DIVPOW40),
}


class TestRationalChainBytes:
    @pytest.mark.parametrize("kind", list(RATIONAL_CHAIN_DIGESTS))
    def test_construct_dualize_dualize(self, tmp_path, kind):
        got = []
        argv = ["construct", "--kind", *shlex.split(kind)]
        for step in range(3):
            code, out = run(argv)
            assert code == 0
            got.append(hashlib.sha256(out.encode()).hexdigest())
            (tmp_path / f"{step}.json").write_text(out)
            argv = ["dualize", "--in", str(tmp_path / f"{step}.json")]
        assert tuple(got) == RATIONAL_CHAIN_DIGESTS[kind]


class TestUnexpectedErrors:
    def test_internal_error_exits_4(self, monkeypatch, capsys):
        def broken(args, argv, stdout):
            raise RuntimeError("two\nlines")

        monkeypatch.setitem(cli_module._HANDLERS, "verify", broken)
        code, out = run(["verify", "--suite", "duality"])
        assert code == 4
        assert out == "error: internal: RuntimeError: two lines\n"
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and "RuntimeError: two" in err


class TestHostileDocuments:
    def test_repeated_comul_triple_exits_2(self, tmp_path):
        doc = json.loads(to_canonical_json(comatrix_coalgebra(F5, 2)))
        doc["comul"].append(list(doc["comul"][0]))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run(["dualize", "--in", str(path)])
        assert code == 2
        assert "given twice" in out

    def test_census_int_factor_exits_2(self, tmp_path):
        # a bare int where a [dim, center_dim] pair belongs is a schema error, not exit 4
        doc = json.loads(to_canonical_json(azumaya_census(2, 5)))
        doc["fibers"][0]["profile"]["factors"] = [1]
        path = tmp_path / "census.json"
        path.write_text(json.dumps(doc))
        code, out = run(["dualize", "--in", str(path)])
        assert (code, out) == (2, "error: profile factors must be [dim, center_dim] pairs of ints\n")

    def test_huge_modulus_exits_2_promptly(self, tmp_path):
        # primality of a 31-digit modulus by trial division would not return
        doc = json.loads(to_canonical_json(truncated_polynomial_algebra(F5, 2)))
        doc["field"]["p"] = 10**30 + 57
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        src = os.path.dirname(os.path.dirname(findual.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "findual.cli", "dualize", "--in", str(path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stdout.startswith("error: ")


# ---------------------------------------------------------------------------
# Mutation fuzz: hostile variants of every document type the CLI reads must
# exit 0-3 with a report or a one-line error, never 4 and never raise.


def _fuzz_documents():
    from findual.algebra import cyclic_group_algebra
    from findual.qplane import box_dual_tower
    from findual.twist import cotensor_swap

    a, b = truncated_polynomial_algebra(F5, 2), cyclic_group_algebra(F5, 2)
    return [
        a,
        matrix_algebra(QQ, 2),
        comatrix_coalgebra(F5, 2),
        dualize_algebra(truncated_polynomial_algebra(QQ, 3)),
        tensor_swap(a, b),
        cotensor_swap(dualize_algebra(a), dualize_algebra(b)),
        box_dual_tower(2, 5, [1, 2]),
    ]


# a scalar, index, label, field spec or list may become any of these
_HOSTILE = [None, True, False, 0, 1, -1, 7, 2**70, 1.5, "", "x", "1/0", "3/2", "-0/5",
            [], [0], [[]], {}, {"kind": "prime-field", "p": 4}, {"kind": "rationals"}]
_HOSTILE_AT_IMPORT = json.loads(json.dumps(_HOSTILE))


def _nodes(doc, path=()):
    """Every (path, value) in a JSON tree, the root included."""
    yield path, doc
    if isinstance(doc, dict):
        for k in sorted(doc):
            yield from _nodes(doc[k], path + (k,))
    elif isinstance(doc, list):
        for k, v in enumerate(doc):
            yield from _nodes(v, path + (k,))


def _mutant(rng, doc):
    """doc with one to three random nodes replaced, deleted or duplicated."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 3)):
        path, value = rng.choice(list(_nodes(doc))[1:])
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        key = path[-1]
        how = rng.randrange(4)
        if how == 0 and isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(value)))  # duplicate
        elif how == 1:
            del parent[key]
        elif how == 2 and isinstance(value, list) and value:
            value[rng.randrange(len(value))] = _hostile(rng)
        else:
            parent[key] = _hostile(rng)
    return doc


def _hostile(rng):
    """A copy of a random `_HOSTILE` value, so that later edits of the
    mutant leave `_HOSTILE` as it is."""
    return json.loads(json.dumps(rng.choice(_HOSTILE)))


class TestMutationFuzz:
    def test_mutants_exit_0_to_3(self, tmp_path):
        rng = random.Random(20261018)
        path = tmp_path / "doc.json"
        seen = set()
        for value in _fuzz_documents():
            base = json.loads(to_canonical_json(value))
            command = "twist-check" if base["type"].endswith("twisting-map") else "dualize"
            for _ in range(80):
                doc = _mutant(rng, base)
                path.write_text(json.dumps(doc))
                code, out = run([command, "--in", str(path)])
                assert code in (0, 1, 2, 3), (command, doc, out)
                assert code in (0, 1) or (out.startswith("error: ") and out.count("\n") == 1)
                seen.add(code)
        assert seen == {0, 1, 2, 3}
        assert _HOSTILE == _HOSTILE_AT_IMPORT
