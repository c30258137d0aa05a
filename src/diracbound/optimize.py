"""Golden-section search on a closed interval."""

import math

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, a, b, tol=1e-10):
    """Minimize f over [a, b] down to a bracket of width tol.

    Returns (x, f(x)). Assumes f is unimodal on [a, b]; for a monotone f
    the search converges to the better endpoint, so boundary minima are
    fine.
    """
    if not b > a:
        raise ValueError("golden_min needs a < b")
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while d - c > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = c if fc <= fd else d
    return x, min(fc, fd)
