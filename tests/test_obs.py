"""Tracing spans (`findual.obs`): stdout and exit codes are the same with
tracing on and off, the trace parses and its spans nest, and spans sit at
layer boundaries only, never in a per-fiber or per-cell loop."""

import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from collections import Counter

import pytest
from test_cli import CLI_SURFACE_DIGESTS

import findual
from findual import obs
from findual.algebra import matrix_algebra, truncated_polynomial_algebra, validate_algebra
from findual.cli import cli_run
from findual.codec import to_canonical_json
from findual.kernel import GF
from findual.twist import tensor_swap

F5 = GF(5)


@pytest.fixture
def traced(tmp_path):
    """Tracing switched on in process, to a file and the stats; the trace
    path, read back as records by `records`."""
    path = tmp_path / "trace.jsonl"
    before = obs._recorder
    obs._configure(str(path), True)
    try:
        yield path
    finally:
        obs._recorder = before


def records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def run(argv):
    buf = io.StringIO()
    code = cli_run(argv, stdout=buf)
    return code, buf.getvalue()


def assert_nested(recs):
    """Ids are unique, and each parent is an earlier record whose interval
    holds its child's."""
    by_id = {rec["id"]: rec for rec in recs}
    assert len(by_id) == len(recs)
    for rec in recs:
        assert set(rec) == {"id", "parent", "name", "attrs", "start", "ns"} and rec["ns"] >= 0
        if rec["parent"] is None:
            continue
        parent = by_id[rec["parent"]]
        assert parent["id"] < rec["id"]
        assert parent["start"] <= rec["start"] and rec["start"] + rec["ns"] <= parent["start"] + parent["ns"]


def test_off_hands_out_one_no_op(monkeypatch):
    """With neither variable set, `span` hands out one shared no-op."""
    monkeypatch.setattr(obs, "_recorder", obs._Recorder(None, True))
    obs._configure(None, False)
    assert obs._recorder is None
    first, second = obs.span("a", n=1), obs.span("b")
    assert first is second
    with first as s:
        s["ignored"] = 1


@pytest.mark.parametrize("argv", list(CLI_SURFACE_DIGESTS))
def test_surface_bytes_with_tracing_on(argv, traced, capsys):
    """Every pinned CLI surface argv gives its pinned stdout and exit code
    with tracing on; its run is one `cli.run` root with its exit code, and
    the stats name it on stderr."""
    code, out = run(shlex.split(argv))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == CLI_SURFACE_DIGESTS[argv]
    recs = records(traced) if traced.exists() else []
    roots = [rec for rec in recs if rec["parent"] is None]
    if code == 2 and not roots:
        return  # refused by the argument reader, before any command ran
    assert_nested(recs)
    (root,) = roots
    assert root["name"] == "cli.run" and root["attrs"]["command"] == shlex.split(argv)[0]
    assert root["attrs"].get("rc", code) == code
    assert "findual stats: cli.run count=1 " in capsys.readouterr().err


def test_census_spans(traced):
    """A census run: the dispatch, one span per orbit-class representative
    (15 at n = 4) with its (n, p, c, d) and where its top came from, and
    the codec with its bytes; none per fiber."""
    code, out = run(["qplane-census", "--n", "4", "--p", "17"])
    assert code == 0
    recs = records(traced)
    assert_nested(recs)
    assert Counter(rec["name"] for rec in recs) == {
        "cli.run": 1, "qplane.census": 1, "qplane.certify": 1, "qplane.certify_mirror": 1,
        "qplane.orbit_class": 15, "codec.to_canonical_json": 1}
    classes = [rec["attrs"] for rec in recs if rec["name"] == "qplane.orbit_class"]
    # axis classes (c = 0) read their top off mu; off-axis ones off the center
    assert all(cls["top"] == ("mu" if cls["c"] == 0 else "center") for cls in classes)
    assert sum(cls["c"] == 0 for cls in classes) == 5 and {(cls["n"], cls["p"]) for cls in classes} == {(4, 17)}
    (write,) = [rec for rec in recs if rec["name"] == "codec.to_canonical_json"]
    assert write["attrs"] == {"type": "CensusReport", "bytes": len(out)}


def test_census_and_certify_spans(traced):
    """The census span sits under the dispatch and holds the certification
    and every orbit class; its counts at (4, 17): 15 representatives built,
    10 classes that took their mirror's profile, and the other 274 of the
    289 fibers certified as torus images.  A point runs one certification."""
    assert run(["qplane-census", "--n", "4", "--p", "17"])[0] == 0
    assert run(["qplane-point", "--n", "3", "--p", "13", "--c", "2", "--d", "5"])[0] == 0
    recs = records(traced)
    by_id = {rec["id"]: rec for rec in recs}
    (census,) = [rec for rec in recs if rec["name"] == "qplane.census"]
    assert census["attrs"] == {"n": 4, "p": 17, "built": 15, "mirrored": 10, "torus": 274}
    assert by_id[census["parent"]]["name"] == "cli.run"
    certify = [rec for rec in recs if rec["name"] == "qplane.certify"]
    assert [(rec["attrs"], by_id[rec["parent"]]["name"]) for rec in certify] == [
        ({"n": 4}, "qplane.census"), ({"n": 3}, "cli.run")]
    classes = [rec["parent"] for rec in recs if rec["name"] == "qplane.orbit_class" and rec["attrs"]["n"] == 4]
    assert classes == [census["id"]] * 15


def test_point_and_validation_spans(traced, tmp_path):
    """The jet with its dim; a validation with the certificate that ran:
    Light's |S| = 2 on the box(8, 8) quantum plane, the full scan on the
    dim-4 M_2 that `dualize` reads."""
    assert run(["qplane-point", "--n", "3", "--p", "13", "--c", "2", "--d", "5"])[0] == 0
    assert run(["construct", "--kind", "qplane-box", "--q-order", "4", "--p", "17", "--a", "8", "--b", "8"])[0] == 0
    doc = tmp_path / "m2.json"
    assert run(["construct", "--kind", "matrix-algebra", "--p", "5", "--n", "2", "--out", str(doc)])[0] == 0
    assert run(["dualize", "--in", str(doc)])[0] == 0
    recs = records(traced)
    assert_nested(recs)
    attrs = [(rec["name"], rec["attrs"]) for rec in recs if rec["name"] != "cli.run"]
    assert ("qplane.jet_algebra", {"n": 3, "dim": 27}) in attrs
    validations = [a for name, a in attrs if name == "algebra.validate_algebra"]
    assert validations == [{"dim": 64, "certificate": "light", "S": 2}, {"dim": 4, "certificate": "scan", "S": None}]


def test_light_certified_spans(traced, tmp_path, monkeypatch):
    """Light's test inside a validation, from dim 16 on, with its steps on
    the transposed table, the search cap, S and the verdict: box(8, 8) is
    certified with S = {x, y}, M_6's search stops at its cap of 1 index,
    and M_2 opens no span.  The dualization's stdout is the same with
    tracing off."""
    assert run(["construct", "--kind", "qplane-box", "--q-order", "4", "--p", "17", "--a", "8", "--b", "8"])[0] == 0
    doc = tmp_path / "m6.json"
    doc.write_text(to_canonical_json(matrix_algebra(F5, 6)))
    argv = ["dualize", "--in", str(doc)]
    code, out = run(argv)
    assert code == 0
    assert validate_algebra(matrix_algebra(F5, 2)).ok
    recs = records(traced)
    assert_nested(recs)
    by_id = {rec["id"]: rec for rec in recs}
    light = [(by_id[rec["parent"]]["name"], rec["attrs"]) for rec in recs if rec["name"] == "algebra.light_certified"]
    assert light == [
        ("algebra.validate_algebra", {"dim": 64, "steps": 28800, "cap": 7, "S": [1, 8], "certified": True}),
        ("algebra.validate_algebra", {"dim": 36, "steps": 2592, "cap": 1, "S": None, "certified": False})]
    monkeypatch.setattr(obs, "_recorder", None)
    assert run(argv) == (0, out)


def test_dualize_and_twist_spans(traced, tmp_path):
    """The codec's read with its size, a dualization and the validation
    inside it, and a twist check with its dims and verdict."""
    doc, swap = tmp_path / "coalgebra.json", tmp_path / "swap.json"
    assert run(["construct", "--kind", "comatrix", "--p", "5", "--n", "2", "--out", str(doc)])[0] == 0
    assert run(["dualize", "--in", str(doc)])[0] == 0
    swap.write_text(to_canonical_json(tensor_swap(matrix_algebra(F5, 2), truncated_polynomial_algebra(F5, 3))))
    assert run(["twist-check", "--in", str(swap)])[0] == 0
    recs = records(traced)
    assert_nested(recs)
    attrs = {rec["name"]: rec["attrs"] for rec in recs}
    by_id = {rec["id"]: rec for rec in recs}
    (validation,) = [rec for rec in recs if rec["name"] == "coalgebra.validate_coalgebra"]
    # the parent is the innermost open span
    dualization = by_id[validation["parent"]]
    assert dualization["name"] == "coalgebra.dualize_coalgebra" and by_id[dualization["parent"]]["name"] == "cli.run"
    assert attrs["twist.check_twisting_map"] == {"dims": [4, 3], "ok": True}
    loads = [rec["attrs"]["chars"] for rec in recs if rec["name"] == "codec.loads"]
    assert loads == [len(doc.read_text()), len(swap.read_text())]


def test_failed_command_records_its_error(traced):
    assert run(["qplane-census", "--n", "3", "--p", "5"])[0] == 3
    (root,) = records(traced)
    assert root["attrs"] == {"command": "qplane-census", "error": "OrderUnavailableError"}


def test_unwritable_trace_leaves_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(obs, "_recorder", obs._Recorder(str(tmp_path / "missing" / "trace.jsonl"), False))
    code, out = run(["construct", "--kind", "comatrix", "--p", "5", "--n", "2"])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == CLI_SURFACE_DIGESTS[
        "construct --kind comatrix --p 5 --n 2"]
    assert "findual trace: cannot write" in capsys.readouterr().err


def test_environment_switches_tracing_on(tmp_path):
    """FINDUAL_TRACE and FINDUAL_STATS are read at import: a CLI process
    with them set writes the same stdout as one without, the trace file and
    the stats on stderr."""
    src = os.path.dirname(os.path.dirname(findual.__file__))
    argv = [sys.executable, "-m", "findual.cli", "qplane-census", "--n", "3", "--p", "13"]
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("FINDUAL_TRACE", None)
    env.pop("FINDUAL_STATS", None)
    plain = subprocess.run(argv, capture_output=True, text=True, timeout=30, env=env)
    path = tmp_path / "trace.jsonl"
    traced = subprocess.run(argv, capture_output=True, text=True, timeout=30,
                            env={**env, "FINDUAL_TRACE": str(path), "FINDUAL_STATS": "1"})
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout) == (0, run(argv[3:])[1])
    assert plain.stderr == ""
    assert "findual stats: qplane.orbit_class count=10 " in traced.stderr
    recs = records(path)
    assert_nested(recs)
    assert sum(rec["name"] == "qplane.orbit_class" for rec in recs) == 10
