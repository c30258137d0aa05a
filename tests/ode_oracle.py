"""Independent warp orbit for the tests: scipy's DOP853 Runge-Kutta pair.

The package samples the orbit by quadrature; this integrates
F'' = F^(1/5) - F from (F, F') = (f0, 0) instead, so the two share no
code. The period is twice the first downward zero of F'. extremal_data,
the minima of a sampled track, is the oracle for warp.warp_extremals.
"""

import numpy as np
from scipy.integrate import solve_ivp

from diracbound import WarpExtremals

# F' is of the orbit's size, so its zero, and with it the period, loses
# accuracy as the orbit shrinks: 1e-9 relative at 1 - f0 = 1e-7, 7e-6
# at 5e-12
SMALLEST_ORBIT = 1e-3


def dop853_orbit(f0, tau, rtol=1e-13):
    """(period, F(tau), F'(tau)) of the orbit through F(0) = f0 <= 1,
    for |1 - f0| >= SMALLEST_ORBIT."""
    if not abs(1.0 - f0) >= SMALLEST_ORBIT:
        raise ValueError(f"dop853_orbit needs |1 - f0| >= {SMALLEST_ORBIT:g}, "
                         f"where the zero of F' still gives the period; got f0 = {f0}")

    def rhs(t, y):
        return (y[1], y[0] ** 0.2 - y[0])

    def fp_crossing(t, y):
        return y[1]

    fp_crossing.terminal = True
    fp_crossing.direction = -1.0
    atol = rtol * 1e-3
    half = solve_ivp(rhs, (0.0, 100.0), (f0, 0.0), method="DOP853",
                     rtol=rtol, atol=atol, events=fp_crossing)
    period = 2.0 * float(half.t_events[0][0])
    tau = np.asarray(tau, dtype=float)
    full = solve_ivp(rhs, (0.0, float(tau[-1])), (f0, 0.0), method="DOP853",
                     rtol=rtol, atol=atol, t_eval=tau)
    return period, full.y[0], full.y[1]


def sampled_min(values):
    """Least value of a track over one period, the sampled argmin
    polished by the parabola through it and its two neighbours.

    The last sample repeats the first, so neighbours wrap around."""
    last = len(values) - 1
    i = int(np.argmin(values[:last]))
    lo, mid, hi = values[(i - 1) % last], values[i], values[(i + 1) % last]
    curv = lo - 2.0 * mid + hi
    if not curv > 0.0:
        return float(mid)
    return float(mid - (hi - lo) ** 2 / (8.0 * curv))


def extremal_data(track):
    """Global minima over the period: kappa0 and min |Ric|^2."""
    ric = track.kappa1**2 + 4.0 * track.kappa2**2
    return WarpExtremals(sampled_min(track.kappa1), sampled_min(ric))
