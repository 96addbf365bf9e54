"""Handlers of the subcommands that classify, audit and transform never run.

`cli.main` imports this module only for `invariants`, `catalog2d`,
`simulate` and `verify`, and calls the function named as the subcommand.
A handler maps the parsed arguments to (payload, exit code), as those of
`cli` do, and imports what it runs when it runs: numpy and the float
layer for `simulate` and `verify`, `summary` or `catalog` for the exact
two.
"""

from __future__ import annotations

import itertools

from .blocks import _floats, _wire, parse_rational
from .cli import EXIT_OK, _check_cap, _load_generator, _public
from .errors import NotStable, PreconditionViolated, SpecParseError

# Caps on the sizes these handlers allocate from their input: sample points
# (--points), grid times (--t-range N) and the unwind block size (unwind:M).
MAX_POINTS = 10**5
MAX_TIMES = 10**5
MAX_UNWIND_SIZE = 64


def invariants(args):
    from .summary import (
        class_coincidence,
        distortion_subspace,
        growth_profile,
        is_bounded,
        is_generic,
        minimal_period,
    )
    from .invariants import lyapunov_spectrum, partition_dims

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


def catalog2d(args):
    from . import catalog

    rows = catalog.catalog2d(_load_generator(args.spec, args))
    return {name: entry.to_json() for name, entry in rows.items()}, EXIT_OK


def _parse_float(text, what):
    return _floats([parse_rational(text, what)], what)[0]


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


def simulate(args):
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


def verify(args):
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
