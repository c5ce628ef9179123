"""Command-line surface.

Exit codes: 0 success / all checks pass; 1 a verification returned false
(report still emitted); 2 usage error or malformed input; 3 a documented
precondition was violated; 4 an unexpected internal error (one line on
stdout, the traceback on stderr).  All output bytes are deterministic for
fixed (argv, seed).
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .algebra import (
    FinDimAlgebra,
    cyclic_group_algebra,
    matrix_algebra,
    triangular_algebra,
    truncated_polynomial_algebra,
)
from .coalgebra import FinDimCoalgebra, construct_coalgebra, dualize_algebra, dualize_coalgebra
from .codec import SCHEMA_VERSION, census_to_csv, loads, to_canonical_json
from .errors import PreconditionError, SchemaMismatchError, UsageError
from .kernel import GF, QQ
from .qplane import _MAX_JET_DIM, azumaya_census, azumaya_point_invariants, oq_truncation
from .selftest import ALL_KEYS, SUITES, run_suite
from .twist import Bialgebra, CotwistingMap, TwistingMap, check_cotwisting_map, check_twisting_map


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="findual",
        description="exact algebra/coalgebra duality, twisted tensor products, "
                    "and quantum-plane censuses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="emit a named algebra or coalgebra as JSON")
    c.add_argument("--kind", required=True, choices=[
        "comatrix", "triangular", "grouplike", "divided-power", "line-dist", "path",
        "matrix-algebra", "triangular-algebra", "poly-algebra", "group-algebra",
        "qplane-box", "qplane-fiber",
    ])
    c.add_argument("--p", type=int, help="prime modulus; omit for the rationals")
    c.add_argument("--n", type=int, help="size parameter (dimension, order, ...)")
    c.add_argument("--q-order", type=int, help="root-of-unity order for qplane kinds; exit 3 when "
                   "its smallest root needs over 10^7 search steps (an order near sqrt(p))")
    c.add_argument("--a", type=int, help="x-truncation for qplane-box")
    c.add_argument("--b", type=int, help="y-truncation for qplane-box")
    c.add_argument("--c", type=int, help="x^n value for qplane-fiber")
    c.add_argument("--d", type=int, help="y^n value for qplane-fiber")
    c.add_argument("--points", help="line-dist points as 'pt:mult,pt:mult'")
    c.add_argument("--vertices", type=int, help="vertex count for path quivers")
    c.add_argument("--arrows", help="arrows as 'src-tgt,src-tgt'")
    c.add_argument("--out")

    d = sub.add_parser("dualize", help="dualize an algebra/coalgebra/bialgebra document")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--out")

    t = sub.add_parser("twist-check", help="check twisting/cotwisting axioms on a document")
    t.add_argument("--in", dest="infile", required=True)
    t.add_argument("--out")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", default="all", choices=["all", *SUITES, *ALL_KEYS])
    v.add_argument("--seed", type=int, default=5)
    v.add_argument("--out")

    qc = sub.add_parser("qplane-census", help="Azumaya census of central fibers")
    qc.add_argument("--n", type=int, required=True, help="root-of-unity order")
    qc.add_argument("--p", type=int, required=True)
    qc.add_argument("--format", default="json", choices=["json", "csv"])
    qc.add_argument("--out")

    qp = sub.add_parser("qplane-point", help="jet invariants at an Azumaya point")
    qp.add_argument("--n", type=int, required=True,
                    help=f"root-of-unity order; the jet algebra's dim 3n^2 must be at most {_MAX_JET_DIM}")
    qp.add_argument("--p", type=int, required=True)
    qp.add_argument("--c", type=int, required=True)
    qp.add_argument("--d", type=int, required=True)
    qp.add_argument("--out")

    st = sub.add_parser("selftest", help="run the full acceptance suite")
    st.add_argument("--seed", type=int, default=5)
    st.add_argument("--out")
    return parser


def _report(command, results, ok: bool) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": list(command),
        "results": results,
        "summary": {"ok": ok},
    }


def _emit(text: str, out_path, stdout) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        stdout.write(text)


def _field_from_args(args):
    if args.p is not None:
        return GF(args.p)
    return QQ


def _cmd_construct(args, argv, stdout) -> int:
    kind = args.kind
    if kind in ("qplane-box", "qplane-fiber"):
        if args.p is None or args.q_order is None:
            raise UsageError("qplane kinds need --p and --q-order")
        if kind == "qplane-box":
            if args.a is None or args.b is None:
                raise UsageError("qplane-box needs --a and --b")
            value = oq_truncation(args.q_order, args.p, "box", (args.a, args.b)).algebra
        else:
            if args.c is None or args.d is None:
                raise UsageError("qplane-fiber needs --c and --d")
            value = oq_truncation(
                args.q_order, args.p, "central_fiber", (args.c, args.d)
            ).algebra
    elif kind in ("matrix-algebra", "triangular-algebra", "poly-algebra", "group-algebra"):
        field = _field_from_args(args)
        if args.n is None:
            raise UsageError(f"{kind} needs --n")
        builder = {
            "matrix-algebra": matrix_algebra,
            "triangular-algebra": triangular_algebra,
            "poly-algebra": truncated_polynomial_algebra,
            "group-algebra": cyclic_group_algebra,
        }[kind]
        value = builder(field, args.n)
    else:
        field = _field_from_args(args)
        params = {}
        if kind in ("comatrix",):
            if args.n is None:
                raise UsageError("comatrix needs --n")
            params["d"] = args.n
        elif kind in ("triangular", "divided-power"):
            if args.n is None:
                raise UsageError(f"{kind} needs --n")
            params["n" if kind == "triangular" else "m"] = args.n
        elif kind == "grouplike":
            if args.n is None:
                raise UsageError("grouplike needs --n")
            params["points"] = args.n
        elif kind == "line-dist":
            if not args.points:
                raise UsageError("line-dist needs --points 'pt:mult,...'")
            pts = []
            for chunk in args.points.split(","):
                pt, _, mult = chunk.partition(":")
                pts.append((int(pt), int(mult or "1")))
            params["points"] = pts
        elif kind == "path":
            if args.vertices is None or not args.arrows:
                raise UsageError("path needs --vertices and --arrows")
            arrows = []
            for chunk in args.arrows.split(","):
                s, _, t = chunk.partition("-")
                arrows.append((int(s), int(t)))
            params["vertices"] = args.vertices
            params["arrows"] = arrows
        value = construct_coalgebra(kind, params, field)
    _emit(to_canonical_json(value), args.out, stdout)
    return 0


def _cmd_dualize(args, argv, stdout) -> int:
    with open(args.infile) as fh:
        text = fh.read()
    # the input document is freed before the dual is serialized
    _emit(to_canonical_json(_dual(loads(text))), args.out, stdout)
    return 0


def _dual(value):
    if isinstance(value, FinDimAlgebra):
        return dualize_algebra(value)
    if isinstance(value, FinDimCoalgebra):
        return dualize_coalgebra(value)
    if isinstance(value, Bialgebra):
        from .twist import dual_bialgebra

        return dual_bialgebra(value)
    raise SchemaMismatchError("dualize expects an algebra, coalgebra, or bialgebra")


def _cmd_twist_check(args, argv, stdout) -> int:
    with open(args.infile) as fh:
        value = loads(fh.read())
    if isinstance(value, TwistingMap):
        rep = check_twisting_map(value)
        results = {"normal": rep.normal, "multiplicative": rep.multiplicative,
                   "witnesses": [list(w) for w in _flatten_witnesses(rep.witnesses)]}
        ok = rep.ok
    elif isinstance(value, CotwistingMap):
        rep = check_cotwisting_map(value)
        results = {"conormal": rep.conormal, "comultiplicative": rep.comultiplicative,
                   "witnesses": [list(w) for w in _flatten_witnesses(rep.witnesses)]}
        ok = rep.ok
    else:
        raise SchemaMismatchError("twist-check expects a twisting or cotwisting map")
    _emit(to_canonical_json(_report(argv, results, ok)), args.out, stdout)
    return 0 if ok else 1


def _flatten_witnesses(witnesses):
    return [(name, *idx) for name, idx in witnesses]


def _results_doc(results):
    return [
        {"key": r.key, "name": r.name, "passed": r.passed, "details": r.details}
        for r in results
    ]


def _cmd_verify(args, argv, stdout) -> int:
    results = run_suite(args.suite, seed=args.seed)
    ok = all(r.passed for r in results)
    _emit(to_canonical_json(_report(argv, _results_doc(results), ok)), args.out, stdout)
    return 0 if ok else 1


def _cmd_census(args, argv, stdout) -> int:
    report = azumaya_census(args.n, args.p)
    if args.format == "csv":
        _emit(census_to_csv(report), args.out, stdout)
    else:
        _emit(to_canonical_json(report), args.out, stdout)
    return 0


def _cmd_point(args, argv, stdout) -> int:
    inv = azumaya_point_invariants(args.n, args.p, args.c, args.d)
    results = {
        "total_dim": inv.total_dim,
        "radical_dim": inv.radical_dim,
        "radical_square_zero": inv.radical_square_zero,
        "top_profile": [list(pair) for pair in inv.top_profile],
        "center_dim": inv.center_dim,
    }
    _emit(to_canonical_json(_report(argv, results, True)), args.out, stdout)
    return 0


def _cmd_selftest(args, argv, stdout) -> int:
    results = run_suite("all", seed=args.seed)
    ok = all(r.passed for r in results)
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.key}: {r.name}" for r in results]
    matrix = "\n".join(lines) + "\n"
    doc = to_canonical_json(_report(argv, _results_doc(results), ok))
    _emit(matrix + doc, args.out, stdout)
    return 0 if ok else 1


_HANDLERS = {
    "construct": _cmd_construct,
    "dualize": _cmd_dualize,
    "twist-check": _cmd_twist_check,
    "verify": _cmd_verify,
    "qplane-census": _cmd_census,
    "qplane-point": _cmd_point,
    "selftest": _cmd_selftest,
}


def cli_run(argv, stdout=None) -> int:
    """Run the CLI on an argv list; returns the exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _HANDLERS[args.command](args, argv, stdout)
    except (SchemaMismatchError, UsageError, OSError, ValueError) as exc:
        stdout.write(f"error: {exc}\n")
        return 2
    except PreconditionError as exc:
        stdout.write(f"error: {exc}\n")
        return 3
    except Exception as exc:
        message = " ".join(str(exc).split())
        stdout.write(f"error: internal: {type(exc).__name__}: {message}\n")
        traceback.print_exc(file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(cli_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
