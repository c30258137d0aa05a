"""Row-by-row `sweep`: an independent oracle for the column path.

Each row rebinds the swept field in the spec tree, realizes the whole
tree and evaluates the closed forms in Python floats, as the sweep did
before it computed columns; only the mini-max column calls the library
(optimize_minimax, a block of one). Where that per-row run raises, the
oracle reports the exception and the row's parameter value.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from diracbound import Product, optimize_minimax, realize
from diracbound.cli import SWEEP_COLUMNS, SWEEP_PARAMS
from diracbound.errors import CrossCheckFailed, DimensionError

DEGENERATE_A_ATOL = 1e-14


def with_param(spec, cls, name, value):
    """The spec with field `name` of every `cls` leaf set to value."""
    if isinstance(spec, Product):
        return Product(tuple(with_param(f, cls, name, value) for f in spec.factors))
    return replace(spec, **{name: value}) if isinstance(spec, cls) else spec


def friedrich(p):
    n, R = p.n, p.scalar
    return n * R / (4.0 * (n - 1)) if R > 0.0 else 0.0


def kaehler(p, complex_dim):
    m = int(complex_dim)
    if m < 1 or p.n != 2 * m:
        raise DimensionError(
            f"complex dimension {m} needs n = {2 * m}, profile has n = {p.n}")
    R = p.scalar
    if R <= 0.0:
        return 0.0
    return (m + 1) * R / (4.0 * m) if m % 2 == 1 else m * R / (4.0 * (m - 1))


def theorem31(p):
    """theorem 3.1's value, or None where it does not apply.

    A row whose size max(|R|, |kappa0|, sqrt(t0)) lies outside
    [2^-250, 2^250] is computed scaled by a power of two near its size,
    so A^2 cannot overflow; A is tested unscaled.
    """
    n, R, kappa0, t0 = p.n, p.scalar, p.kappa0, p.traceless_norm_sq_min
    size = max(abs(R), abs(kappa0), math.sqrt(t0))
    scale = 1.0
    if not 2.0**-250 <= size <= 2.0**250:
        scale = math.ldexp(1.0, math.frexp(size)[1] - 1)
    R, kappa0, t0 = R / scale, kappa0 / scale, t0 / scale / scale
    if not t0 > (R / n - kappa0) * max(R / (n - 1), -R):
        return None
    a = n * R / (8.0 * (n - 1))
    b = n / (n - 1.0) * (R / n - kappa0)
    csq = n / (n - 1.0) * t0
    c = math.sqrt(csq)
    A = csq / 4.0 + 2.0 * (n - 1.0) / n * a * b
    if A * scale * scale < DEGENERATE_A_ATOL:
        return None
    root = math.sqrt(max(a**2 * c**2 + A * (A - 2.0 * a * b), 0.0))
    value = A**2 / (b * A - a * c**2 + c * root) * scale
    s0 = (A - 2.0 * a * b) / (a * c**2 + c * root)
    f_s0 = 2.0 * (a + A * s0) / (1.0 + 2.0 * b * s0 + c**2 * s0**2) * scale
    if not (math.isfinite(value) and math.isclose(value, f_s0, rel_tol=1e-9)):
        raise CrossCheckFailed(f"closed form {value} vs f(s0) {f_s0}")
    return value


def _fmt17(x):
    return format(float(x), ".17g")


def oracle_sweep(spec, param, start, stop, steps, selected=SWEEP_COLUMNS,
                 kaehler_dim=None):
    """(csv text, None, None), or (None, exception, parameter value) of
    the first row that raises."""
    cls, name = SWEEP_PARAMS[param]
    lines = ["param," + ",".join(SWEEP_COLUMNS) + ",best"]
    for value in np.linspace(start, stop, steps).tolist():
        try:
            profile = realize(with_param(spec, cls, name, value))
            cells = {}
            if "friedrich" in selected:
                cells["friedrich"] = friedrich(profile)
            if "kaehler" in selected and kaehler_dim is not None:
                cells["kaehler"] = kaehler(profile, kaehler_dim)
            if "theorem31" in selected:
                th = theorem31(profile)
                if th is not None:
                    cells["theorem31"] = th
            if "minimax_numeric" in selected:
                cells["minimax_numeric"] = optimize_minimax(profile).value
        except Exception as exc:  # noqa: BLE001 (the oracle reports it)
            return None, exc, value
        row = [_fmt17(value)]
        row += [_fmt17(cells[c]) if c in cells else "" for c in SWEEP_COLUMNS]
        row.append(_fmt17(max(cells.values())) if cells else "")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n", None, None
