"""Second routes to the refined bound, as test oracles: corollary 3.2
(theorem 3.1 rewritten for R > 0) and r(t), the mini-max quadratic's
larger root at a fixed t, which theorem31_block maximizes in closed form.
"""

import math

import numpy as np

from diracbound import bounds


def row(profile):
    """(n, R, kappa0, t0) of a profile: one row of the block functions."""
    return profile.n, profile.scalar, profile.kappa0, profile.traceless_norm_sq_min


def improvement_condition(profile):
    """For R > 0: |Ric|_0^2 > R (R - kappa0) / (n - 1).

    When it holds the refined bound strictly beats n R / (4 (n - 1)).
    """
    n, R = profile.n, profile.scalar
    return profile.ric_norm_sq_min > R * (R - profile.kappa0) / (n - 1)


def corollary32(profile):
    """Equivalent form of the refined bound for R > 0:

    lambda^2 > n R / (4 (n - 1)) + (A - 2ab)^2 / (alpha + sqrt(alpha^2 + beta))

    with alpha = ac^2 + (A - 2ab) b and beta = (c^2 - b^2)(A - 2ab)^2.
    None unless R > 0 and the improvement condition holds.
    """
    if profile.scalar <= 0.0 or not improvement_condition(profile):
        return None
    n, R = profile.n, profile.scalar
    a, b, c, A = map(float, bounds._shortcut_columns(*row(profile)))
    d = A - 2.0 * a * b
    alpha = a * (c * c) + d * b
    beta = (c * c - b * b) * (d * d)
    root = math.sqrt(max(alpha * alpha + beta, 0.0))
    return n * R / (4.0 * (n - 1)) + d * d / (alpha + root)


def minimax_root(n, R, kappa0, t0, t):
    """Larger root r(t) of the mini-max quadratic x^2 + p x + q, clamped
    at +0; arrays broadcast. For 0 <= t <= 1/2 every squared eigenvalue
    x = lambda^2 satisfies x^2 + p x + q >= 0 with

        p = -n R / (4 (n - 1)) + 2 t (n / (n - 1)) (R/n - kappa0)
        q = -2 t (n / (n - 1)) (R/n - kappa0) (R/4)
            + (n / (n - 1)) (t^2 - t/2) |Ric - R/n|_0^2

    so x must clear the larger root; 0 where there is none or it is
    negative. A kappa0 above R/n counts as R/n, as in theorem31_block.

    Rows are taken in units of theorem31_block's power-of-two scale, and
    the discriminant in units near max(|p|, sqrt(|q|)), so p^2 is never
    formed: in units near max(|R|, |kappa0|, sqrt(t0)), R was subnormal
    where |kappa0| exceeds |R| by 2^1000, and r(1/2) rose above Friedrich's.
    """
    size = np.maximum(np.maximum(np.abs(R), np.sqrt(t0)), np.maximum(
        np.sqrt(np.abs(R)) * np.sqrt(np.abs(kappa0)), np.abs(kappa0) * 2.0**-1000))
    scale = np.ldexp(1.0, np.frexp(size)[1] - 1)
    R, kappa0, t0 = R / scale, kappa0 / scale, t0 / scale / scale
    nn = n / (n - 1.0)
    drop = nn * (R / n - np.minimum(kappa0, R / n))
    u = 2.0 * t * drop
    p = -n * R / (4.0 * (n - 1)) + u
    q = nn * (t * t - t / 2.0) * t0 - u * (R / 4.0)
    m = np.ldexp(1.0, np.frexp(np.maximum(np.abs(p), np.sqrt(np.abs(q))))[1] - 1)
    disc = (p / m) ** 2 - 4.0 * (q / m / m)
    # |p| + s never cancels: (-p + s) / 2 for p <= 0, -2q / (p + s) else
    ps = np.abs(p) + np.sqrt(np.maximum(disc, 0.0)) * m
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(p > 0.0, -2.0 * q / ps, ps / 2.0)
    return np.where((disc >= 0.0) & (x > 0.0), x, 0.0) * scale
