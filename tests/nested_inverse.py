"""The mixed pw-hyp inverse by nested solves: the oracle of the joint (s,
delta) Newton solve in ``linflow.homeos``.

An outer safeguarded Newton on the time shift delta runs a whole minimum
solve in s at every step, each inner solve started from the row's previous
outer step and moved by the lean of the balance point, and one more inner
solve at the final delta gives s.  This is the earlier route kept verbatim
apart from the names; its inner minimum is `unstacked_solver.solve_min_time`,
which takes the warm start.  `nested_route()` swaps it into linflow, so
that a map built inside it runs the nested solve around the same map code.
"""

import contextlib

import numpy as np
import pytest

from linflow import homeos

from unstacked_solver import solve_min_time


def solve_cone_point(pS, pU, uh, vh, logmu2, stats):
    """(s, delta) of the cone point of each mixed row: delta solves
    log min_s V(s, delta) = log mu^2, and s is that minimiser."""
    speeds = np.array((pS.log_speed(uh), pU.log_speed(vh)))
    s_prev, d_prev = np.full(len(uh), np.nan), np.zeros(len(uh))
    (cS0, cS1), (cU0, cU1) = pS.curvatures, pU.curvatures
    lean = (cU0 + cU1) / (cU0 + cU1 + cS0 + cS1)

    def outer(deltas, r):
        # log of min_s V(s, delta) against log mu^2; by the envelope
        # theorem d/d delta min_s V = <S_U z, z> at the minimiser
        start = s_prev[r] - lean * (deltas - d_prev[r])
        s = s_prev[r] = solve_min_time(pS, pU, uh[r], vh[r], deltas, stats, start, speeds[:, r])
        d_prev[r] = deltas
        Vs = pS.forms(s, uh[r], 1)[0]
        Vu, dVu = pU.forms(s + deltas, vh[r], 2)
        return np.log(Vs + Vu) - logmu2[r], dVu / (Vs + Vu)

    # at the minimiser -V_S' = V_U', so the slope is the harmonic
    # combination 1 / (1 / r_U + 1 / |r_S|) of the two factor rates
    (rS0, rS1), (rU0, rU1) = pS.rates, pU.rates
    slopes = (1.0 / (1.0 / rU0 - 1.0 / rS1), 1.0 / (1.0 / rU1 - 1.0 / rS0))
    delta = homeos._newton(outer, np.zeros(len(uh)), stats, slopes)
    s_star = solve_min_time(pS, pU, uh, vh, delta, stats, s_prev - lean * (delta - d_prev), speeds)
    return s_star, delta


@contextlib.contextmanager
def nested_route():
    """linflow with the nested solve in place of the joint one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homeos, "_solve_cone_point", solve_cone_point)
        yield
