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
arguments, and builds the parser.  A handler maps the parsed arguments to
(payload, exit code) and never writes stdout: `main` alone does, a JSON
object as indented JSON, and simulate's CSV line by line as its rows are
formatted.

Exit codes: 0 success, 1 usage error, 2 parse or ingestion failure,
3 precondition violation or failed internal cross-check (its stderr line
starts "internal check failed:", every other failure's "error:"),
4 Undecided under --strict, 141 stdout closed before the output was
written (128 + SIGPIPE, as a shell reports a tool that a closed pipe ended).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from .blocks import (
    _floats,
    _load_json,
    _wire,
    parse_matrix,
    parse_rational,
    parse_spec,
    scale_spec,
    serialize_spec,
    spec_from_matrix,
)
from .errors import (
    InternalCheckError,
    NotStable,
    PreconditionViolated,
    SnapFailure,
    SpecParseError,
)

# Every launch compiles what it imports, so each subcommand imports only the
# modules it runs: `classifier` (and with it `similarity`) and `invariants`
# inside the exact subcommands that use them, numpy and the float layer
# (flows, homeos, probes) inside the ones that compute in floats, and
# matrix ingestion its `_ratlinalg` kernel only for matrix input.

# Caps on the sizes the CLI allocates from its input: sample points
# (--points), grid times (--t-range N), the unwind block size (unwind:M)
# and the dimension of a loaded generator.
MAX_POINTS = 10**5
MAX_TIMES = 10**5
MAX_UNWIND_SIZE = 64
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
    parsed = parse_matrix(doc) if is_matrix else parse_spec(doc)
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


def _parse_float(text, what):
    return _floats([parse_rational(text, what)], what)[0]


def _seed(text):  # the --seed type: numpy's generators take non-negative ints
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _parse_int(text, what):
    try:
        return int(text)
    except ValueError:
        raise SpecParseError(f"{what}: malformed integer {text!r}")


def _time_grid(args, default_span, default_n):
    import numpy as np

    if args.times:
        times = [_parse_float(p, "--times") for p in args.times.split(",") if p.strip()]
        if not times:  # the message of verify_conjugacy, which simulate does not call
            raise PreconditionViolated("need at least one time")
        return np.array(times)
    if args.t_range:
        parts = args.t_range.split(",")
        if len(parts) != 3:
            raise SpecParseError("--t-range expects LO,HI,N")
        lo = _parse_float(parts[0], "--t-range")
        hi = _parse_float(parts[1], "--t-range")
        n = _parse_int(parts[2], "--t-range count")
        if n < 1:
            raise PreconditionViolated(f"--t-range needs N >= 1, got {n}")
        return np.linspace(lo, hi, _check_cap(n, MAX_TIMES, "--t-range N"))
    return np.linspace(-default_span, default_span, default_n)


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, exit code)


def _cmd_classify(args):
    from .classifier import Decision, Relation, classify

    a = _load_generator(args.left, args)
    b = _load_generator(args.right, args)
    verdict = classify(Relation.from_string(args.relation), a, b)
    undecided = args.strict and verdict.decision is Decision.UNDECIDED
    return verdict.to_json(), EXIT_UNDECIDED if undecided else EXIT_OK


def _cmd_invariants(args):
    from .classifier import class_coincidence
    from .invariants import (
        distortion_subspace,
        growth_profile,
        is_bounded,
        is_generic,
        lyapunov_spectrum,
        minimal_period,
        partition_dims,
    )

    spec = _load_generator(args.spec, args)
    out = {
        "dim": spec.dim,
        "partition": partition_dims(spec).to_json(),
        "spectrum": _wire(lyapunov_spectrum(spec)),
        "growth": growth_profile(spec).to_json(),
        "generic": is_generic(spec),
        "bounded": is_bounded(spec),
        "coincidence": class_coincidence(spec).to_json(),
        "minimal_period_over_two_pi": _wire(minimal_period(spec) if is_bounded(spec) else None),
    }
    try:
        out["distortion_subspace"] = distortion_subspace(spec).to_json()
    except NotStable:
        out["distortion_subspace"] = None
    return out, EXIT_OK


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


def _cmd_catalog2d(args):
    from .classifier import catalog2d

    rows = catalog2d(_load_generator(args.spec, args))
    return {name: entry.to_json() for name, entry in rows.items()}, EXIT_OK


def _cmd_simulate(args):
    import numpy as np

    from .flows import FlowEvaluator

    spec = _load_generator(args.spec, args)
    x = np.array([_parse_float(p, "--point") for p in args.point.split(",") if p.strip()])
    if x.shape != (spec.dim,):
        raise PreconditionViolated(f"--point needs {spec.dim} coordinates, got {len(x)}")
    ts = _time_grid(args, default_span=10.0, default_n=101)
    Z = FlowEvaluator.from_spec(spec).apply_batch(ts, np.tile(x, (len(ts), 1)))
    bad = ~np.all(np.isfinite(Z), axis=1)
    if bad.any():
        raise PreconditionViolated(f"the orbit leaves the float range at t = {ts[bad.argmax()]:g}")
    header = "t," + ",".join(f"x{i+1}" for i in range(spec.dim))
    rows = (f"{t:.12g}," + ",".join(f"{v:.12g}" for v in row) for t, row in zip(ts, Z))
    return itertools.chain([header], rows), EXIT_OK


def _spiral_rate(text):
    rate = parse_rational(text, "spiral rate")
    _floats([rate], "spiral rate")  # range check; the map keeps the exact rate
    return (rate,)


def _unwind_args(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise SpecParseError("construction 'unwind' expects unwind:M,A,B")
    return (_check_cap(_parse_int(parts[0], "unwind size"), MAX_UNWIND_SIZE, "unwind size"),
            _parse_float(parts[1], "unwind growth"), _parse_float(parts[2], "unwind rotation"))


# construction -> (public name of its builder, parser of the token's text
# after "NAME:", or None for a builder of the generator file; default time span)
_CONSTRUCTIONS = {
    "spiral": ("build_spiral_map", _spiral_rate, 20.0),
    "shear": ("build_parabola_shear", lambda text: (_parse_float(text, "shear shift"),), 20.0),
    "uniform": ("build_uniform_exponent_map", None, 20.0),
    "pw-hyp": ("build_pw_conj_hyperbolic", None, 5.0),
    "unwind": ("build_rotation_unwind_map", _unwind_args, 10.0),
}


def _cmd_verify(args):
    from .probes import verify_conjugacy

    _check_cap(args.points, MAX_POINTS, "--points")
    name, colon, text = args.construction.partition(":")
    builder, parse, span = _CONSTRUCTIONS.get(name, (None, None, None))
    if builder is None or bool(colon) != (parse is not None):
        raise SpecParseError(
            f"unknown construction {args.construction!r}; expected spiral:RATE, shear:SHIFT, "
            "uniform, pw-hyp or unwind:M,A,B"
        )
    if parse is None and not args.spec:
        raise SpecParseError(f"construction {name!r} needs a generator file")
    build_args = parse(text) if parse else (_load_generator(args.spec, args),)
    hmap = _public(builder)(*build_args)
    report = verify_conjugacy(hmap, times=_time_grid(args, default_span=span, default_n=11),
                              n_points=args.points, seed=args.seed)
    made = {"name": hmap.name, "source": _wire(hmap.source_spec), "target": _wire(hmap.target_spec)}
    return {**report.to_json(), "map": made}, EXIT_OK


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

# subcommand -> (handler, help, own arguments)
_COMMANDS = {
    "classify": (_cmd_classify, "decide one relation between two generators", (
        _arg("relation", help="relation name, e.g. LipEquiv or PwLipConj"),
        _arg("left"), _arg("right"),
        _arg("--strict", action="store_true", help="exit 4 on Undecided"))),
    "invariants": (_cmd_invariants, "print the full invariant summary", (_arg("spec"),)),
    "transform": (_cmd_transform, "apply a structural transform", (
        _arg("op", help="collapse | decouple | reverse | realify | scale:ALPHA"),
        _arg("spec"))),
    "catalog2d": (_cmd_catalog2d, "planar normal forms at four coarseness levels",
                  (_arg("spec"),)),
    "simulate": (_cmd_simulate, "print an orbit as CSV", (
        _arg("spec"),
        _arg("--point", required=True, help="comma-separated coordinates"), *_TIMES)),
    "verify": (_cmd_verify, "build a map and measure its conjugacy defect", (
        _arg("construction", help="spiral:RATE | shear:SHIFT | uniform | pw-hyp | unwind:M,A,B"),
        _arg("spec", nargs="?", help="generator file for uniform / pw-hyp"),
        _arg("--seed", type=_seed, default=0),
        _arg("--points", type=int, default=32), *_TIMES)),
    "audit": (_cmd_audit, "decide every relation and check implications",
              (_arg("left"), _arg("right"))),
}


def build_parser():
    parser = _Parser(prog="linflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, text, own) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flags, options in own + _COMMON:
            p.add_argument(*flags, **options)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        payload, code = args.handler(args)
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
