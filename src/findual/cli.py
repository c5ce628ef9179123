"""Command-line surface.

Exit codes: 0 success / all checks pass; 1 a verification returned false
(report still emitted); 2 usage error or malformed input; 3 a documented
precondition was violated; 4 an unexpected internal error (one line on
stdout, the traceback on stderr).  All output bytes are deterministic for
fixed (argv, seed).

Each `cli_run` builds its parser afresh: the top level, which names every
command with its help line, and the subparser of each command named in
argv, since argparse can run no other (see `_build_parser`).  Help, usage
and argparse's errors are the bytes a parser with every subparser gives, and
they wrap at a fixed width, not at the terminal's.
"""

from __future__ import annotations

import argparse
import functools
import sys
import traceback

from .algebra import (
    FinDimAlgebra,
    cyclic_group_algebra,
    matrix_algebra,
    triangular_algebra,
    truncated_polynomial_algebra,
)
from .coalgebra import (
    FinDimCoalgebra,
    Quiver,
    comatrix_coalgebra,
    divided_power_coalgebra,
    dualize_algebra,
    dualize_coalgebra,
    grouplike_coalgebra,
    line_dist_coalgebra,
    path_coalgebra,
    triangular_coalgebra,
)
from .codec import SCHEMA_VERSION, census_to_csv, loads, to_canonical_json
from .errors import PreconditionError, SchemaMismatchError, UsageError
from .kernel import GF, QQ
from .qplane import _MAX_JET_DIM, azumaya_census, azumaya_point_invariants, oq_truncation
from .selftest import ALL_KEYS, SUITES, run_suite
from .twist import (
    Bialgebra,
    CotwistingMap,
    TwistingMap,
    check_cotwisting_map,
    check_twisting_map,
    dual_bialgebra,
)


def _line_dist(field, points: str):
    pairs = (chunk.partition(":") for chunk in points.split(","))
    return line_dist_coalgebra(field, [(int(pt), int(mult or "1")) for pt, _, mult in pairs])


def _path(field, vertices: int, arrows: str):
    pairs = (chunk.partition("-") for chunk in arrows.split(","))
    return path_coalgebra(field, Quiver(vertices, [(int(s), int(t)) for s, _, t in pairs]))


def _qplane(kind: str):
    return lambda q_order, p, *params: oq_truncation(q_order, p, kind, params).algebra


# --kind -> (constructor, the flags it takes after the field, the text naming
# them when one is missing); the qplane constructors take --q-order and --p
# in place of a field
_KINDS = {
    "comatrix": (comatrix_coalgebra, ("n",), "--n"),
    "triangular": (triangular_coalgebra, ("n",), "--n"),
    "grouplike": (grouplike_coalgebra, ("n",), "--n"),
    "divided-power": (divided_power_coalgebra, ("n",), "--n"),
    "line-dist": (_line_dist, ("points",), "--points 'pt:mult,...'"),
    "path": (_path, ("vertices", "arrows"), "--vertices and --arrows"),
    "matrix-algebra": (matrix_algebra, ("n",), "--n"),
    "triangular-algebra": (triangular_algebra, ("n",), "--n"),
    "poly-algebra": (truncated_polynomial_algebra, ("n",), "--n"),
    "group-algebra": (cyclic_group_algebra, ("n",), "--n"),
    "qplane-box": (_qplane("box"), ("a", "b"), "--a and --b"),
    "qplane-fiber": (_qplane("central_fiber"), ("c", "d"), "--c and --d"),
}


# help, usage and argparse's errors wrap at 78 columns, what argparse gives an
# 80-column terminal, whatever COLUMNS says: argv alone fixes their bytes
_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


def _subparser(build: bool, **kwargs):
    # add_subparsers' parser_class: a parser for a command named in argv, and
    # nothing for the others, whose name and help line the top level keeps
    return argparse.ArgumentParser(**kwargs, formatter_class=_FORMATTER) if build else None


def _build_parser(argv) -> argparse.ArgumentParser:
    """The top-level parser, with a subparser for each command named in argv.

    Every command's name and help line are registered, which is all argparse
    reads of a command it does not run: the usage line, `findual --help` and
    the invalid-choice error.  It runs the subparser of the first positional
    argument only, and looks that up by its literal text (no prefix matching
    of command names, no argument files), so a command whose name is not an
    element of argv can never run, and building its subparser would be waste.
    """
    parser = argparse.ArgumentParser(
        prog="findual",
        formatter_class=_FORMATTER,
        description="exact algebra/coalgebra duality, twisted tensor products, "
                    "and quantum-plane censuses",
    )
    # prog: the prefix of the subparsers' usage, which argparse would format
    # from the top level's usage and positionals, here none
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog, parser_class=_subparser)
    named = set(argv)

    def command(name, help):
        return sub.add_parser(name, help=help, build=name in named)

    if c := command("construct", "emit a named algebra or coalgebra as JSON"):
        c.add_argument("--kind", required=True, choices=list(_KINDS))
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

    if d := command("dualize", "dualize an algebra/coalgebra/bialgebra document"):
        d.add_argument("--in", dest="infile", required=True)
        d.add_argument("--out")

    if t := command("twist-check", "check twisting/cotwisting axioms on a document"):
        t.add_argument("--in", dest="infile", required=True)
        t.add_argument("--out")

    if v := command("verify", "run a verification suite"):
        v.add_argument("--suite", default="all", choices=["all", *SUITES, *ALL_KEYS])
        v.add_argument("--seed", type=int, default=5)
        v.add_argument("--out")

    if qc := command("qplane-census", "Azumaya census of central fibers"):
        qc.add_argument("--n", type=int, required=True, help="root-of-unity order")
        qc.add_argument("--p", type=int, required=True)
        qc.add_argument("--format", default="json", choices=["json", "csv"])
        qc.add_argument("--out")

    if qp := command("qplane-point", "jet invariants at an Azumaya point"):
        qp.add_argument("--n", type=int, required=True,
                        help=f"root-of-unity order; the jet algebra's dim 3n^2 must be at most {_MAX_JET_DIM}")
        qp.add_argument("--p", type=int, required=True)
        qp.add_argument("--c", type=int, required=True)
        qp.add_argument("--d", type=int, required=True)
        qp.add_argument("--out")

    if st := command("selftest", "run the full acceptance suite"):
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


def _cmd_construct(args, argv, stdout) -> int:
    build, flags, names = _KINDS[args.kind]
    if args.kind.startswith("qplane-"):
        if args.p is None or args.q_order is None:
            raise UsageError("qplane kinds need --p and --q-order")
        head = (args.q_order, args.p)
    else:
        head = (GF(args.p) if args.p is not None else QQ,)
    values = [getattr(args, flag) for flag in flags]
    # an empty --points or --arrows counts as missing
    if any(value in (None, "") for value in values):
        raise UsageError(f"{args.kind} needs {names}")
    _emit(to_canonical_json(build(*head, *values)), args.out, stdout)
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
        return dual_bialgebra(value)
    raise SchemaMismatchError("dualize expects an algebra, coalgebra, or bialgebra")


_TWIST_CHECKS = {TwistingMap: check_twisting_map, CotwistingMap: check_cotwisting_map}


def _cmd_twist_check(args, argv, stdout) -> int:
    with open(args.infile) as fh:
        value = loads(fh.read())
    check = _TWIST_CHECKS.get(type(value))
    if check is None:
        raise SchemaMismatchError("twist-check expects a twisting or cotwisting map")
    rep = check(value)
    results = {**rep._asdict(), "witnesses": [(name, *idx) for name, idx in rep.witnesses]}
    _emit(to_canonical_json(_report(argv, results, rep.ok)), args.out, stdout)
    return 0 if rep.ok else 1


def _cmd_verify(args, argv, stdout) -> int:
    results = run_suite(args.suite, seed=args.seed)
    ok = all(r.passed for r in results)
    _emit(to_canonical_json(_report(argv, [r._asdict() for r in results], ok)), args.out, stdout)
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
    _emit(to_canonical_json(_report(argv, inv._asdict(), True)), args.out, stdout)
    return 0


def _cmd_selftest(args, argv, stdout) -> int:
    results = run_suite("all", seed=args.seed)
    ok = all(r.passed for r in results)
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.key}: {r.name}" for r in results]
    matrix = "\n".join(lines) + "\n"
    doc = to_canonical_json(_report(argv, [r._asdict() for r in results], ok))
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
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
