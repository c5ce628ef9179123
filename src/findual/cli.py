"""Command-line surface.

Exit codes: 0 success / all checks pass; 1 a verification returned false
(report still emitted); 2 usage error or malformed input; 3 a documented
precondition was violated; 4 an unexpected internal error (one line on
stdout, the traceback on stderr).  All output bytes are deterministic for
fixed (argv, seed).

Every command's flags are declared once, in `_ARGS`, and an argv takes one
of two paths to its Namespace.  The plain form `command --flag value ...`,
the form of the README's examples and of the benchmark's jobs, is read
straight off that table by `_table_args`, with no parser built: argparse
reads such an argv one way only, so the Namespace is the one it would give.
Every other argv (help, abbreviations, `--flag=value`, repeated flags,
`--`, a value led by "-", a bad value, a missing flag) goes to argparse,
built afresh for the call: the top level, which names every command with
its help line, and the subparser of each command named in argv, since
argparse can run no other (see `_build_parser`).  Help, usage and
argparse's errors are the bytes a parser with every subparser gives, and
they wrap at a fixed width, not at the terminal's.  An argv element that is
not a string exits 2 before either path.
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
from .codec import SCHEMA_VERSION, _bounded_dim, census_to_csv, loads, to_canonical_json
from .errors import PreconditionError, SchemaMismatchError, UsageError
from .kernel import GF, QQ
from .obs import span
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


def _points(points: str):
    pairs = (chunk.partition(":") for chunk in points.split(","))
    return [(int(pt), int(mult or "1")) for pt, _, mult in pairs]


def _line_dist(field, points: str):
    return line_dist_coalgebra(field, _points(points))


def _quiver(vertices: int, arrows: str):
    pairs = (chunk.partition("-") for chunk in arrows.split(","))
    return Quiver(vertices, [(int(s), int(t)) for s, _, t in pairs])


def _path(field, vertices: int, arrows: str):
    return path_coalgebra(field, _quiver(vertices, arrows))


def _qplane(kind: str):
    return lambda q_order, p, *params: oq_truncation(q_order, p, kind, params).algebra


# A kind's table dim, read off the arguments its constructor takes, before
# anything is built.  A size below 1 reads as at most 0 and a cyclic quiver
# has 0 paths, so the constructor's own refusal of them is not preempted.
def _linear(_, n):
    return n


def _square(_, n):
    return max(n, 0) ** 2


def _triangle(_, n):
    return max(n, 0) * (n + 1) // 2


def _line_dist_dim(_, points: str):
    return sum(max(mult, 0) for _, mult in _points(points))


def _path_dim(_, vertices: int, arrows: str):
    return _quiver(vertices, arrows).path_count()


def _box_dim(q_order, p, a, b):
    return max(a, 0) * max(b, 0)


def _fiber_dim(q_order, p, c, d):
    return max(q_order, 0) ** 2


# --kind -> (constructor, the flags it takes after the field, the text naming
# them when one is missing, its table dim); the qplane constructors take
# --q-order and --p in place of a field
_KINDS = {
    "comatrix": (comatrix_coalgebra, ("n",), "--n", _square),
    "triangular": (triangular_coalgebra, ("n",), "--n", _triangle),
    "grouplike": (grouplike_coalgebra, ("n",), "--n", _linear),
    "divided-power": (divided_power_coalgebra, ("n",), "--n", _linear),
    "line-dist": (_line_dist, ("points",), "--points 'pt:mult,...'", _line_dist_dim),
    "path": (_path, ("vertices", "arrows"), "--vertices and --arrows", _path_dim),
    "matrix-algebra": (matrix_algebra, ("n",), "--n", _square),
    "triangular-algebra": (triangular_algebra, ("n",), "--n", _triangle),
    "poly-algebra": (truncated_polynomial_algebra, ("n",), "--n", _linear),
    "group-algebra": (cyclic_group_algebra, ("n",), "--n", _linear),
    "qplane-box": (_qplane("box"), ("a", "b"), "--a and --b", _box_dim),
    "qplane-fiber": (_qplane("central_fiber"), ("c", "d"), "--c and --d", _fiber_dim),
}


# help, usage and argparse's errors wrap at 78 columns, what argparse gives an
# 80-column terminal, whatever COLUMNS says: argv alone fixes their bytes
_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


def _subparser(build: bool, **kwargs):
    # add_subparsers' parser_class: a parser for a command named in argv, and
    # nothing for the others, whose name and help line the top level keeps
    return argparse.ArgumentParser(**kwargs, formatter_class=_FORMATTER) if build else None


# each command's help line and its flags, in `--help` order: (flag,
# add_argument kwargs); `_build_parser` and `_table_args` both read them
_COMMANDS = {
    "construct": "emit a named algebra or coalgebra as JSON",
    "dualize": "dualize an algebra/coalgebra/bialgebra document",
    "twist-check": "check twisting/cotwisting axioms on a document",
    "verify": "run a verification suite",
    "qplane-census": "Azumaya census of central fibers",
    "qplane-point": "jet invariants at an Azumaya point",
    "selftest": "run the full acceptance suite",
}
_ARGS = {
    "construct": (
        ("--kind", dict(required=True, choices=list(_KINDS))),
        ("--p", dict(type=int, help="prime modulus; omit for the rationals")),
        ("--n", dict(type=int, help="size parameter (dimension, order, ...)")),
        ("--q-order", dict(type=int, help="root-of-unity order for qplane kinds; exit 3 when "
                           "its smallest root needs over 10^7 search steps (an order near sqrt(p))")),
        ("--a", dict(type=int, help="x-truncation for qplane-box")),
        ("--b", dict(type=int, help="y-truncation for qplane-box")),
        ("--c", dict(type=int, help="x^n value for qplane-fiber")),
        ("--d", dict(type=int, help="y^n value for qplane-fiber")),
        ("--points", dict(help="line-dist points as 'pt:mult,pt:mult'")),
        ("--vertices", dict(type=int, help="vertex count for path quivers")),
        ("--arrows", dict(help="arrows as 'src-tgt,src-tgt'")),
        ("--out", dict()),
    ),
    "dualize": (
        ("--in", dict(dest="infile", required=True)),
        ("--out", dict()),
    ),
    "twist-check": (
        ("--in", dict(dest="infile", required=True)),
        ("--out", dict()),
    ),
    "verify": (
        ("--suite", dict(default="all", choices=["all", *SUITES, *ALL_KEYS])),
        ("--seed", dict(type=int, default=5)),
        ("--out", dict()),
    ),
    "qplane-census": (
        ("--n", dict(type=int, required=True, help="root-of-unity order")),
        ("--p", dict(type=int, required=True)),
        ("--format", dict(default="json", choices=["json", "csv"])),
        ("--out", dict()),
    ),
    "qplane-point": (
        ("--n", dict(type=int, required=True,
                     help=f"root-of-unity order; the jet algebra's dim 3n^2 must be at most {_MAX_JET_DIM}")),
        ("--p", dict(type=int, required=True)),
        ("--c", dict(type=int, required=True)),
        ("--d", dict(type=int, required=True)),
        ("--out", dict()),
    ),
    "selftest": (
        ("--seed", dict(type=int, default=5)),
        ("--out", dict()),
    ),
}


def _table_args(argv):
    """The Namespace `_build_parser(argv).parse_args(argv)` returns, read
    straight off `_ARGS`, for an argv of the plain form
    `command --flag value ...`; None for any other argv.

    The plain form: argv[0] is a command, and `--flag value` pairs follow in
    which each flag is an exact option of that command and appears once, no
    value is empty or starts with "-", each value passes its flag's `type`
    and `choices`, and every required flag is given.  Argparse reads such
    an argv one way only: the top level hands everything after the command
    to its subparser, each exact option string takes the next element as
    its value (an element not led by "-" is never an option), `type` and
    `choices` are applied as here, and every flag not given takes its
    default, none of which is a string to convert.  So the Namespace is the
    same, and argparse is left the argvs that need its help, usage or error
    text, or its rules for abbreviations, `--flag=value`, repeats and `--`.
    """
    if not argv or argv[0] not in _ARGS or len(argv) % 2 == 0:
        return None
    flags = dict(_ARGS[argv[0]])
    values = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        # popped, so that a repeated flag is not found again
        kwargs = flags.pop(flag, None)
        if kwargs is None or not text or text[0] == "-":
            return None
        try:
            value = kwargs.get("type", str)(text)
        except ValueError:
            return None
        choices = kwargs.get("choices")
        if choices is not None and value not in choices:
            return None
        values[_dest(flag, kwargs)] = value
    for flag, kwargs in flags.items():
        if kwargs.get("required"):
            return None
        values[_dest(flag, kwargs)] = kwargs.get("default")
    return argparse.Namespace(command=argv[0], **values)


def _dest(flag: str, kwargs) -> str:
    return kwargs.get("dest", flag[2:].replace("-", "_"))


def _build_parser(argv) -> argparse.ArgumentParser:
    """The top-level parser, with a subparser for each command named in argv.

    `cli_run` builds it only for an argv `_table_args` leaves: help, usage
    errors, bad values, missing flags, and any argv not of the plain form.
    Every command's name and help line are registered, which is all argparse
    reads of a command it does not run: the usage line, `findual --help` and
    the invalid-choice error.  It runs the subparser of the first positional
    argument only, and looks that up by its literal text (no prefix matching
    of command names, no argument files), so a command whose name is not an
    element of argv can never run, and building its subparser would be waste.
    Each subparser's flags come from `_ARGS`, in its order.
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
    for name, help in _COMMANDS.items():
        if command := sub.add_parser(name, help=help, build=name in named):
            for flag, kwargs in _ARGS[name]:
                command.add_argument(flag, **kwargs)
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
    """The named kind's document; a kind whose table dim exceeds
    `codec._MAX_TABLE_DIM`, which `encode` would refuse, is refused before
    it is built."""
    build, flags, names, dim = _KINDS[args.kind]
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
    _bounded_dim(dim(*head, *values))
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
    for index, arg in enumerate(argv):
        if not isinstance(arg, str):
            stdout.write(f"error: argv[{index}] is {type(arg).__name__}, not str\n")
            return 2
    args = _table_args(argv)
    if args is None:
        try:
            args = _build_parser(argv).parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
    try:
        with span("cli.run", command=args.command) as run:
            run["rc"] = code = _HANDLERS[args.command](args, argv, stdout)
        return code
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
