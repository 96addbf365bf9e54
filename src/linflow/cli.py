"""Command-line interface.

Subcommands: classify, invariants, transform, catalog2d, simulate, verify,
audit.  Every generator argument is a JSON file holding either a block
multiset ({"blocks": [...]}) or a rational matrix ({"dim": d, "rows":
[...]}); matrices are ingested through the exact normal-form recovery,
and one whose spectrum only its numeric tier could snap is refused unless
--allow-uncertified is given.  A generator's dimension is capped at
MAX_DIM, checked before any arithmetic: a matrix's integer "dim" before
its entries are parsed, a spec's right after parsing.

One table, `_COMMANDS`, names each subcommand's handler, help text and own
arguments, and builds the parser: only the subparser that the command line
names, or all seven when it names none.  A handler maps the parsed
arguments to (payload, exit code) and never writes stdout: `main` alone
does, a JSON object as indented JSON, and simulate's CSV line by line as
its rows are formatted.

Exit codes: 0 success, 1 usage error, 2 parse or ingestion failure,
3 precondition violation or failed internal cross-check (its stderr line
starts "internal check failed:", every other failure's "error:"),
4 Undecided under --strict, 141 stdout closed before the output was
written (128 + SIGPIPE, as a shell reports a tool that a closed pipe ended).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module

from .blocks import _load_json, parse_rational, parse_spec, scale_spec, serialize_spec
from .blocks import spec_from_matrix
from .errors import InternalCheckError, PreconditionViolated, SnapFailure, SpecParseError

# Every launch compiles what it imports, so each launch imports only the
# modules its subcommand runs and builds only its subparser.  The handlers
# here (classify, audit, transform) import `classifier` or a transform's
# module when they run; `_subcommands` holds the other four, which import
# `summary`, `catalog`, or numpy and the float layer.  Matrix input adds
# `matrices` and its `_ratlinalg` kernel.

# Cap on the dimension of a loaded generator; `_subcommands` caps the other
# sizes the CLI allocates from its input.
MAX_DIM = 512

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_UNDECIDED = 4
EXIT_BROKEN_PIPE = 141

# failure type -> (exit code, stderr prefix); main maps each exception by
# the most specific of these types that it is an instance of
_FAILURES = {
    ValueError: (EXIT_USAGE, "error"),
    SpecParseError: (EXIT_PARSE, "error"),
    PreconditionViolated: (EXIT_PRECONDITION, "error"),
    InternalCheckError: (EXIT_PRECONDITION, "internal check failed"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _public(name):  # the package's lazy table imports its module on first use
    return getattr(sys.modules[__package__], name)


def _check_cap(value, cap, what):
    if value > cap:
        raise PreconditionViolated(f"{what} is capped at {cap}, got {value}")
    return value


def _load_generator(path, args):
    """The generator in the JSON file at path.  A matrix whose spectrum only
    the numeric tier of `spec_from_matrix` could snap is refused with
    SnapFailure, unless --allow-uncertified, which warns on stderr."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecParseError(f"{path}: {exc}") from exc
    doc = _load_json(text, path)
    is_matrix = isinstance(doc, dict) and "rows" in doc
    dim = doc.get("dim") if is_matrix else None
    if isinstance(dim, int) and not isinstance(dim, bool):  # before d * d entries are parsed
        _check_cap(dim, MAX_DIM, f"{path}: dimension")
    if is_matrix:
        from .matrices import parse_matrix

        parsed = parse_matrix(doc)
    else:
        parsed = parse_spec(doc)
    _check_cap(parsed.dim, MAX_DIM, f"{path}: dimension")
    if not is_matrix:
        return parsed
    approx = spec_from_matrix(parsed, tol=args.tol, max_denominator=args.max_denominator)
    if not approx.exact:
        what = (f"{path}: the spectrum was snapped by the numeric tier, not certified "
                f"exactly (residual {approx.residual:.3e}, tol {approx.tol:g})")
        if not args.allow_uncertified:
            raise SnapFailure(what + "; pass --allow-uncertified to use it anyway")
        print(f"warning: {what}", file=sys.stderr)
    return approx.spec


def _seed(text):  # the --seed type: numpy's generators take non-negative ints
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, exit code)


def _cmd_classify(args):
    from .classifier import Decision, Relation, classify

    a = _load_generator(args.left, args)
    b = _load_generator(args.right, args)
    verdict = classify(Relation.from_string(args.relation), a, b)
    undecided = args.strict and verdict.decision is Decision.UNDECIDED
    return verdict.to_json(), EXIT_UNDECIDED if undecided else EXIT_OK


# transform name -> the public name of its function
_TRANSFORMS = {"collapse": "semisimple_collapse", "decouple": "rotation_decouple",
               "reverse": "time_reverse", "realify": "realify"}


def _cmd_transform(args):
    spec = _load_generator(args.spec, args)
    op = args.op
    if op.startswith("scale:"):
        result = scale_spec(spec, parse_rational(op.split(":", 1)[1], "scale factor"))
    elif op in _TRANSFORMS:
        result = _public(_TRANSFORMS[op])(spec)
    else:
        raise SpecParseError(
            f"unknown transform {op!r}; expected collapse, decouple, reverse, "
            "realify or scale:ALPHA"
        )
    return serialize_spec(result), EXIT_OK


def _cmd_audit(args):
    from .classifier import implication_audit

    a = _load_generator(args.left, args)
    b = _load_generator(args.right, args)
    return implication_audit(a, b).to_json(), EXIT_OK


# ---------------------------------------------------------------------------
# the parser


def _arg(*flags, **options):
    return flags, options


_TIMES = (_arg("--times", help="comma-separated times"),
          _arg("--t-range", help="LO,HI,N evenly spaced times"))

# matrix ingestion options, appended to every subcommand
_COMMON = (
    _arg("--tol", type=float, default=1e-9, help="matrix ingestion tolerance"),
    _arg("--max-denominator", type=int, default=1024,
         help="largest denominator tried when snapping matrix eigendata"),
    _arg("--allow-uncertified", action="store_true",
         help="accept a matrix whose spectrum only the numeric tier snapped (warns on stderr)"),
)

# subcommand -> (handler, help, own arguments); a handler of None is the
# function of `_subcommands` named as the subcommand
_COMMANDS = {
    "classify": (_cmd_classify, "decide one relation between two generators", (
        _arg("relation", help="relation name, e.g. LipEquiv or PwLipConj"),
        _arg("left"), _arg("right"),
        _arg("--strict", action="store_true", help="exit 4 on Undecided"))),
    "invariants": (None, "print the full invariant summary", (_arg("spec"),)),
    "transform": (_cmd_transform, "apply a structural transform", (
        _arg("op", help="collapse | decouple | reverse | realify | scale:ALPHA"),
        _arg("spec"))),
    "catalog2d": (None, "planar normal forms at four coarseness levels",
                  (_arg("spec"),)),
    "simulate": (None, "print an orbit as CSV", (
        _arg("spec"),
        _arg("--point", required=True, help="comma-separated coordinates"), *_TIMES)),
    "verify": (None, "build a map and measure its conjugacy defect", (
        _arg("construction", help="spiral:RATE | shear:SHIFT | uniform | pw-hyp | unwind:M,A,B"),
        _arg("spec", nargs="?", help="generator file for uniform / pw-hyp"),
        _arg("--seed", type=_seed, default=0),
        _arg("--points", type=int, default=32), *_TIMES)),
    "audit": (_cmd_audit, "decide every relation and check implications",
              (_arg("left"), _arg("right"))),
}


def build_parser(argv=None):
    """The parser of argv.  When argv[0] names a subcommand, only that
    subparser is built, and the full list of names stands in its usage as
    the subcommand's metavar, so that every usage, help and error text
    reads as with all seven; otherwise (--help, no arguments, an unknown
    name, or no argv) all seven are built."""
    names = [argv[0]] if argv and argv[0] in _COMMANDS else list(_COMMANDS)
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    parser = _Parser(prog="linflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _, text, own = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        for flags, options in own + _COMMON:
            p.add_argument(*flags, **options)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    handler = _COMMANDS[args.command][0] or getattr(
        import_module("._subcommands", __package__), args.command)
    out = sys.stdout
    try:
        payload, code = handler(args)
        for line in [json.dumps(payload, indent=2)] if isinstance(payload, dict) else payload:
            out.write(line + "\n")
        out.flush()  # a reader gone early shows here at the latest
        return code
    except BrokenPipeError:
        # end quietly; stdout now points at devnull, so the flush at exit
        # cannot fail again (the Python docs' "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return EXIT_BROKEN_PIPE
    except tuple(_FAILURES) as exc:
        code, prefix = next(_FAILURES[t] for t in type(exc).__mro__ if t in _FAILURES)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
