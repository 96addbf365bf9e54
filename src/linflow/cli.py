"""Command-line interface.

Subcommands: classify, invariants, transform, catalog2d, simulate, verify,
audit.  Every generator argument is a JSON file holding either a block
multiset ({"blocks": [...]}) or a rational matrix ({"dim": d, "rows":
[...]}); matrices are ingested through the exact normal-form recovery.

Exit codes: 0 success, 1 usage error, 2 parse or ingestion failure,
3 precondition violation, 4 Undecided under --strict, 141 stdout closed
before the output was written (128 + SIGPIPE, as a shell reports a tool
that a closed pipe ended).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .blocks import (
    _floats,
    _load_json,
    parse_matrix,
    parse_rational,
    parse_spec,
    scale_spec,
    serialize_spec,
    spec_from_matrix,
    time_reverse,
    realify,
)
from .classifier import (
    Decision,
    Relation,
    catalog2d,
    class_coincidence,
    classify,
    implication_audit,
)
from .errors import (
    InternalCheckError,
    NotStable,
    PreconditionViolated,
    SpecParseError,
)
from .invariants import (
    distortion_subspace,
    growth_profile,
    is_bounded,
    is_generic,
    lyapunov_spectrum,
    minimal_period,
    partition_dims,
    rotation_decouple,
    semisimple_collapse,
)

# numpy and the float layer (flows, homeos, probes) are imported inside the
# subcommands that compute in floats, so the exact ones never load them

# Caps on the sizes the CLI allocates from its own arguments: sample points
# (--points), grid times (--t-range N) and the unwind block size (unwind:M).
MAX_POINTS = 10**5
MAX_TIMES = 10**5
MAX_UNWIND_SIZE = 64

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_UNDECIDED = 4
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _load_generator(path, tol, max_denominator):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecParseError(f"{path}: {exc}") from exc
    doc = _load_json(text, path)
    if isinstance(doc, dict) and "rows" in doc:
        matrix = parse_matrix(doc)
        approx = spec_from_matrix(matrix, tol=tol, max_denominator=max_denominator)
        return approx.spec
    return parse_spec(doc)


def _parse_float(text, what):
    return _floats([parse_rational(text, what)], what)[0]


def _parse_floats(text, what):
    try:
        values = [Fraction(part) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError):
        raise SpecParseError(f"{what}: expected comma-separated numbers, got {text!r}")
    return _floats(values, what)


def _parse_int(text, what):
    try:
        return int(text)
    except ValueError:
        raise SpecParseError(f"{what}: malformed integer {text!r}")


def _check_cap(value, cap, what):
    if value > cap:
        raise PreconditionViolated(f"{what} is capped at {cap}, got {value}")
    return value


def _time_grid(args, default_span=5.0, default_n=11):
    import numpy as np

    if getattr(args, "times", None):
        return np.array(_parse_floats(args.times, "--times"))
    if getattr(args, "t_range", None):
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
# subcommands


def _cmd_classify(args):
    a = _load_generator(args.left, args.tol, args.max_denominator)
    b = _load_generator(args.right, args.tol, args.max_denominator)
    relation = Relation.from_string(args.relation)
    verdict = classify(relation, a, b)
    _emit(verdict.to_json())
    if args.strict and verdict.decision is Decision.UNDECIDED:
        return EXIT_UNDECIDED
    return EXIT_OK


def _cmd_invariants(args):
    spec = _load_generator(args.spec, args.tol, args.max_denominator)
    out = {
        "dim": spec.dim,
        "partition": partition_dims(spec).to_json(),
        "spectrum": [str(v) for v in lyapunov_spectrum(spec)],
        "growth": growth_profile(spec).to_json(),
        "generic": is_generic(spec),
        "bounded": is_bounded(spec),
        "coincidence": class_coincidence(spec).to_json(),
    }
    out["minimal_period_over_two_pi"] = (
        str(minimal_period(spec)) if is_bounded(spec) else None
    )
    try:
        out["distortion_subspace"] = distortion_subspace(spec).to_json()
    except NotStable:
        out["distortion_subspace"] = None
    _emit(out)
    return EXIT_OK


_TRANSFORMS = {
    "collapse": semisimple_collapse,
    "decouple": rotation_decouple,
    "reverse": time_reverse,
    "realify": realify,
}


def _cmd_transform(args):
    spec = _load_generator(args.spec, args.tol, args.max_denominator)
    op = args.op
    if op.startswith("scale:"):
        alpha = parse_rational(op.split(":", 1)[1], "scale factor")
        result = scale_spec(spec, alpha)
    elif op in _TRANSFORMS:
        result = _TRANSFORMS[op](spec)
    else:
        raise SpecParseError(
            f"unknown transform {op!r}; expected collapse, decouple, reverse, "
            "realify or scale:ALPHA"
        )
    _emit(serialize_spec(result))
    return EXIT_OK


def _cmd_catalog2d(args):
    spec = _load_generator(args.spec, args.tol, args.max_denominator)
    rows = catalog2d(spec)
    _emit({name: entry.to_json() for name, entry in rows.items()})
    return EXIT_OK


def _cmd_simulate(args):
    import numpy as np

    from .flows import FlowEvaluator

    spec = _load_generator(args.spec, args.tol, args.max_denominator)
    x = np.array(_parse_floats(args.point, "--point"))
    if x.shape != (spec.dim,):
        raise PreconditionViolated(
            f"--point needs {spec.dim} coordinates, got {len(x)}"
        )
    ts = _time_grid(args, default_span=10.0, default_n=101)
    flow = FlowEvaluator.from_spec(spec)
    Z = flow.apply_batch(ts, np.tile(x, (len(ts), 1)))
    bad = ~np.all(np.isfinite(Z), axis=1)
    if bad.any():
        raise PreconditionViolated(
            f"the orbit leaves the float range at t = {ts[bad.argmax()]:g}"
        )
    writer = sys.stdout
    writer.write("t," + ",".join(f"x{i+1}" for i in range(spec.dim)) + "\n")
    for t, row in zip(ts, Z):
        writer.write(f"{t:.12g}," + ",".join(f"{v:.12g}" for v in row) + "\n")
    return EXIT_OK


def _build_construction(token, args):
    from .homeos import (
        build_parabola_shear,
        build_pw_conj_hyperbolic,
        build_rotation_unwind_map,
        build_spiral_map,
        build_uniform_exponent_map,
    )

    if token.startswith("spiral:"):
        rate = parse_rational(token[7:], "spiral rate")
        _floats([rate], "spiral rate")  # range check; the map keeps the exact rate
        return build_spiral_map(rate), 20.0
    if token.startswith("shear:"):
        return build_parabola_shear(_parse_float(token[6:], "shear shift")), 20.0
    if token == "uniform":
        if not args.spec:
            raise SpecParseError("construction 'uniform' needs a generator file")
        spec = _load_generator(args.spec, args.tol, args.max_denominator)
        return build_uniform_exponent_map(spec), 20.0
    if token == "pw-hyp":
        if not args.spec:
            raise SpecParseError("construction 'pw-hyp' needs a generator file")
        spec = _load_generator(args.spec, args.tol, args.max_denominator)
        return build_pw_conj_hyperbolic(spec), 5.0
    if token.startswith("unwind:"):
        parts = token.split(":", 1)[1].split(",")
        if len(parts) != 3:
            raise SpecParseError("construction 'unwind' expects unwind:M,A,B")
        m = _check_cap(_parse_int(parts[0], "unwind size"), MAX_UNWIND_SIZE, "unwind size")
        a = _parse_float(parts[1], "unwind growth")
        b = _parse_float(parts[2], "unwind rotation")
        return build_rotation_unwind_map(m, a, b), 10.0
    raise SpecParseError(
        f"unknown construction {token!r}; expected spiral:RATE, shear:SHIFT, "
        "uniform, pw-hyp or unwind:M,A,B"
    )


def _cmd_verify(args):
    from .probes import verify_conjugacy

    _check_cap(args.points, MAX_POINTS, "--points")
    hmap, span = _build_construction(args.construction, args)
    times = _time_grid(args, default_span=span, default_n=11)
    report = verify_conjugacy(
        hmap, times=times, n_points=args.points, seed=args.seed
    )
    out = report.to_json()
    out["map"] = {
        "name": hmap.name,
        "source": None if hmap.source_spec is None else serialize_spec(hmap.source_spec),
        "target": None if hmap.target_spec is None else serialize_spec(hmap.target_spec),
    }
    _emit(out)
    return EXIT_OK


def _cmd_audit(args):
    a = _load_generator(args.left, args.tol, args.max_denominator)
    b = _load_generator(args.right, args.tol, args.max_denominator)
    report = implication_audit(a, b)
    _emit(report.to_json())
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--tol", type=float, default=1e-9, help="matrix ingestion tolerance")
    p.add_argument(
        "--max-denominator",
        type=int,
        default=1024,
        help="largest denominator tried when snapping matrix eigendata",
    )


def build_parser():
    parser = _Parser(prog="linflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide one relation between two generators")
    p.add_argument("relation", help="relation name, e.g. LipEquiv or PwLipConj")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--strict", action="store_true", help="exit 4 on Undecided")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("invariants", help="print the full invariant summary")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("transform", help="apply a structural transform")
    p.add_argument("op", help="collapse | decouple | reverse | realify | scale:ALPHA")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("catalog2d", help="planar normal forms at four coarseness levels")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(func=_cmd_catalog2d)

    p = sub.add_parser("simulate", help="print an orbit as CSV")
    p.add_argument("spec")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--times", help="comma-separated times")
    p.add_argument("--t-range", dest="t_range", help="LO,HI,N evenly spaced times")
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="build a map and measure its conjugacy defect")
    p.add_argument(
        "construction",
        help="spiral:RATE | shear:SHIFT | uniform | pw-hyp | unwind:M,A,B",
    )
    p.add_argument("spec", nargs="?", help="generator file for uniform / pw-hyp")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=32)
    p.add_argument("--times", help="comma-separated times")
    p.add_argument("--t-range", dest="t_range", help="LO,HI,N evenly spaced times")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("audit", help="decide every relation and check implications")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p)
    p.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone early shows here at the latest
        return code
    except BrokenPipeError:
        # end quietly; stdout now points at devnull, so the flush at exit
        # cannot fail again (the Python docs' "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
