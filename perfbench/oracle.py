"""Correctness oracle for the benchmark's CLI commands.

Every check returns a list of problems; an empty list means the output
is correct. The checks compare numbers, not bytes: a cell is parsed as
a float and compared within a stated tolerance, so `-0` equals `0` and
digits that move at round-off level do not count as failures.

The oracle computes every expected value itself, independently of the
package:

- the curvature profile of each spec, from the factors' closed forms
  and, for the n = 5 warped factor, from energy conservation (see
  warp_minima);
- Friedrich: lambda^2 >= n R / (4 (n - 1)) for R > 0, else 0;
- Kaehler with complex dimension 2: R / 2 for R > 0, else 0;
- the zero-scalar bound, theorem 3.1 and the mini-max bound from the
  profile (see theorem31 and minimax).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import jsonschema
from referencing import Registry, Resource

WARP_SCALAR = 16.0 / 5.0
# mirrors diracbound.warp.ENERGY_DRIFT_RTOL
ENERGY_DRIFT_RTOL = 1e-8
# theorem31 and minimax_numeric agree to ~1e-13 at the seed
MINIMAX_RTOL = 1e-9
EXACT_RTOL = 1e-12
# Warp-derived curvature minima: the package integrates the orbit and
# refines sampled minima, and agrees with warp_minima to ~1e-9 relative.
# Sweep rows 0.0045 apart in f0 differ in kappa0 by ~1e-2.
WARP_RTOL = 1e-7
# bound values computed from an exact profile
BOUND_RTOL = 1e-9
# tables print 6 decimals
TABLE_ATOL = 2e-6
# mirrors diracbound.bounds: the zero-scalar test and the degeneracy guard
SCALAR_ZERO_ATOL = 1e-12
DEGENERATE_A_ATOL = 1e-14

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

SWEEP_HEADER = ["param", "friedrich", "kaehler", "theorem31",
                "minimax_numeric", "best"]


class Schemas:
    """The JSON schemas shipped with the package, validated with jsonschema."""

    def __init__(self, schema_dir):
        docs = {p.stem: json.loads(p.read_text())
                for p in Path(schema_dir).glob("*.json")}
        if not docs:
            raise FileNotFoundError(f"no schemas under {schema_dir}")
        registry = Registry().with_resources(
            (doc["$id"], Resource.from_contents(doc)) for doc in docs.values())
        self._validators = {
            name: jsonschema.validators.validator_for(doc)(doc, registry=registry)
            for name, doc in docs.items()}

    def problems(self, name, doc):
        return [f"{name}: {err.message}"
                for err in self._validators[name].iter_errors(doc)]


def close(a, b, rtol, scale=0.0):
    return abs(a - b) <= rtol * max(abs(a), abs(b), scale)


# --- expected curvature profiles ---------------------------------------------

@dataclass(frozen=True)
class Curvature:
    """Expected profile: dimension, scalar curvature, minimum Ricci
    eigenvalue, minimum |Ric|^2, and the relative tolerance they carry."""

    n: int
    scalar: float
    kappa0: float
    ric: float
    rtol: float = EXACT_RTOL

    @property
    def value_rtol(self):
        return max(self.rtol, BOUND_RTOL)


def einstein(n, scalar):
    mean = scalar / n
    return Curvature(n, scalar, mean, n * mean * mean)


def surface(scalar):
    return Curvature(2, scalar, scalar / 2.0, scalar * scalar / 2.0)


def sphere(radius):
    return surface(2.0 / (radius * radius))


def warped(f0):
    kappa0, ric = warp_minima(f0)
    return Curvature(5, WARP_SCALAR, kappa0, ric, WARP_RTOL)


def product(*parts):
    """Scalar curvature and |Ric|^2 add; the smallest eigenvalue is the least."""
    return Curvature(sum(p.n for p in parts), sum(p.scalar for p in parts),
                     min(p.kappa0 for p in parts), sum(p.ric for p in parts),
                     max(p.rtol for p in parts))


EXAMPLES = {
    "t2xs2": lambda: product(einstein(2, 0.0), sphere(1.0)),
    "s2r-x-hyperbolic": lambda: product(sphere(1.0), surface(-2.0)),
    "m7-sigma": lambda: product(surface(10.0), warped(0.1)),
    "m7-zero-scalar": lambda: product(surface(-WARP_SCALAR), warped(0.1)),
    "m7-negative-scalar": lambda: product(surface(-4.0), warped(0.1)),
    "warp5": lambda: warped(0.1),
}


# --- the n = 5 warp orbit ----------------------------------------------------

def _potential5(F):
    # V(F) = F^2/2 - (n/(2n-4)) F^(2-4/n) with n = 5
    return F * F / 2.0 - (5.0 / 6.0) * F ** 1.2


def _kappa1(F, Fp):
    return (24.0 / 25.0) * (Fp / F) ** 2 + (8.0 / 5.0) * (1.0 - F ** -0.8)


def _kappa2(F, Fp):
    # the scalar curvature kappa1 + 4 kappa2 is the constant 16/5
    return (WARP_SCALAR - _kappa1(F, Fp)) / 4.0


def turning_point(f0):
    """The orbit's largest F: the root F >= 1 of V(F) = V(f0)."""
    energy = _potential5(f0)
    lo, hi = 1.0, 2.0
    while _potential5(hi) < energy:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 4e-16 * hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _potential5(mid) < energy:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _minimize(fn, lo, hi, grid=400):
    """Global minimum on [lo, hi]: a grid, then golden section on the best bracket."""
    xs = [lo + (hi - lo) * i / grid for i in range(grid + 1)]
    values = [fn(x) for x in xs]
    i = min(range(grid + 1), key=values.__getitem__)
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, grid)]
    best = values[i]
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-12 * max(1.0, abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    return min(best, fc, fd)


@lru_cache(maxsize=None)
def warp_minima(f0):
    """(kappa0, min |Ric|^2) of the n = 5 warped factor with F(0) = f0 <= 1.

    The energy F'^2/2 + V(F) is conserved, so F'^2 = 2 (V(f0) - V(F)) and
    both Ricci eigenvalues are functions of F alone. The orbit sweeps F
    over [f0, F_max] with V(F_max) = V(f0), so the minima over the orbit
    are minima over that interval. No ODE is integrated.
    """
    energy = _potential5(f0)

    def eigenvalues(F):
        Fp = math.sqrt(max(2.0 * (energy - _potential5(F)), 0.0))
        return _kappa1(F, Fp), _kappa2(F, Fp)

    def ric(F):
        k1, k2 = eigenvalues(F)
        return k1 * k1 + 4.0 * k2 * k2

    top = turning_point(f0)
    return (_minimize(lambda F: eigenvalues(F)[0], f0, top),
            _minimize(ric, f0, top))


# --- bounds from a profile ---------------------------------------------------

def friedrich(p):
    return p.n * p.scalar / (4.0 * (p.n - 1)) if p.scalar > 0.0 else 0.0


def zero_scalar(p):
    """The R = 0 bound (1/4) |Ric|_0^2 / (|Ric|_0 sqrt((n-1)/n) + |kappa0|)."""
    return 0.25 * p.ric / (math.sqrt(p.ric * (p.n - 1.0) / p.n) + abs(p.kappa0))


def theorem31(p):
    """Theorem 3.1 on a profile: (applicable, value).

    applicable is None when its condition is decided by less than the
    profile's tolerance, so either answer is right. The bound is the
    maximum over s >= 0 of f(s) = 2 (a + A s) / (1 + 2 b s + c^2 s^2);
    f'(s) = 0 is A c^2 s^2 + 2 a c^2 s - (A - 2 a b) = 0, whose positive
    root is taken in its cancellation-free form.
    """
    n, R, k0 = p.n, p.scalar, p.kappa0
    t0 = p.ric - R * R / n          # min |Ric - R/n|^2, since tr Ric = R
    rhs = (R / n - k0) * max(R / (n - 1.0), -R)
    a = n * R / (8.0 * (n - 1.0))
    b = n / (n - 1.0) * (R / n - k0)
    c2 = n / (n - 1.0) * t0
    A = c2 / 4.0 + 2.0 * (n - 1.0) / n * a * b
    slack = 10.0 * p.rtol * max(1.0, abs(p.ric), abs(rhs), R * R)
    margin = min(t0 - rhs, A - DEGENERATE_A_ATOL)
    applicable = True if margin > slack else False if margin < -slack else None
    if c2 <= 0.0 or A <= 0.0:
        return applicable, None
    d = A - 2.0 * a * b
    s0 = max(d / (a * c2 + math.sqrt(c2) * math.sqrt(max(a * a * c2 + A * d, 0.0))),
             0.0)
    return applicable, 2.0 * (a + A * s0) / (1.0 + 2.0 * b * s0 + c2 * s0 * s0)


@lru_cache(maxsize=None)
def minimax(p):
    """Mini-max bound: the largest, over t in [0, 1/2], of the larger root
    of x^2 + P x + Q with P = -n R / (4 (n - 1)) + 2 t b and
    Q = -2 t b R / 4 + (n / (n - 1)) (t^2 - t/2) t0; 0 without a real root."""
    n, R = p.n, p.scalar
    b = n / (n - 1.0) * (R / n - p.kappa0)
    t0 = p.ric - R * R / n

    def negated_root(t):
        P = -n * R / (4.0 * (n - 1.0)) + 2.0 * t * b
        Q = -2.0 * t * b * R / 4.0 + n / (n - 1.0) * (t * t - t / 2.0) * t0
        disc = P * P - 4.0 * Q
        if disc < 0.0:
            return 0.0
        root = (-P + math.sqrt(disc)) / 2.0 if P <= 0.0 \
            else -2.0 * Q / (P + math.sqrt(disc))
        return -max(root, 0.0)

    return -_minimize(negated_root, 0.0, 0.5, grid=128)


def _bound_cells(expect, cells, rtol, atol=0.0):
    """Check theorem31 and minimax_numeric cells (None = absent) against
    the profile; they must also agree with each other where both appear."""
    def off(got, want, scale=1.0):
        return abs(got - want) > max(atol, rtol * max(abs(got), abs(want), scale))

    problems = []
    t31, mm = cells["theorem31"], cells["minimax_numeric"]
    applicable, want = theorem31(expect)
    if applicable is not None and applicable != (t31 is not None):
        problems.append(f"theorem31 {t31!r}, but applicable = {applicable}")
    if t31 is not None and (want is None or off(t31, want)):
        problems.append(f"theorem31 {t31!r}, expected {want!r}")
    if mm is None:
        problems.append("minimax_numeric missing")
    elif t31 is not None:
        if abs(t31 - mm) > max(atol, MINIMAX_RTOL * max(abs(t31), abs(mm), 1e-12)):
            problems.append(f"theorem31 {t31!r} vs minimax_numeric {mm!r}")
    elif off(mm, minimax(expect)):
        problems.append(f"minimax_numeric {mm!r}, expected {minimax(expect)!r}")
    return problems


def _cell(text):
    return float(text) if text != "" else None


def _linspace(start, stop, steps, i):
    return stop if i == steps - 1 else start + (stop - start) * i / (steps - 1)


# --- sweep -------------------------------------------------------------------

def _expect(cells, name, value, rtol, scale):
    got = cells[name]
    if got is None or not close(got, value, rtol, scale):
        return [f"{name} {got!r}, expected {value!r}"]
    return []


def _check_sweep(rc, stdout, start, stop, steps, curvature, kaehler=False):
    """curvature(param) gives a row's expected profile; kaehler says
    whether the sweep ran with --kaehler-dim 2."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != SWEEP_HEADER:
        return [f"sweep header {rows[:1]!r}"]
    if len(rows) - 1 != steps:
        return [f"{len(rows) - 1} sweep rows, expected {steps}"]
    problems = []
    for i, row in enumerate(rows[1:]):
        if len(row) != len(SWEEP_HEADER):
            problems.append(f"row {i}: {len(row)} cells")
            continue
        param = float(row[0])
        cells = dict(zip(SWEEP_HEADER[1:], map(_cell, row[1:])))
        found = []
        if not close(param, _linspace(start, stop, steps, i), EXACT_RTOL, 1.0):
            found.append(f"param {param!r}")
        p = curvature(param)
        scale = max(1.0, abs(p.scalar))
        found += _expect(cells, "friedrich", friedrich(p), p.rtol, scale)
        if kaehler:
            found += _expect(cells, "kaehler", max(0.0, p.scalar / 2.0), p.rtol, scale)
        elif cells["kaehler"] is not None:
            found.append("kaehler filled without --kaehler-dim")
        found += _bound_cells(p, cells, p.value_rtol)
        present = [v for k, v in cells.items() if k != "best" and v is not None]
        if not present or cells["best"] is None \
                or not close(cells["best"], max(present), EXACT_RTOL, 1e-12):
            found.append(f"best {cells['best']!r} is not the max of {present!r}")
        problems += [f"row {i}: {msg}" for msg in found]
        if len(problems) > 5:
            break
    return problems


def check_sweep_radius(ctx, rc, stdout, out_text, start, stop, steps):
    return _check_sweep(rc, stdout, start, stop, steps,
                        lambda r: product(sphere(r), surface(-2.0)), kaehler=True)


def check_sweep_surface(ctx, rc, stdout, out_text, start, stop, steps):
    return _check_sweep(rc, stdout, start, stop, steps,
                        lambda s: product(surface(s), warped(0.1)))


def check_sweep_f0(ctx, rc, stdout, out_text, start, stop, steps):
    return _check_sweep(rc, stdout, start, stop, steps,
                        lambda f0: product(surface(10.0), warped(f0)))


# --- bound -------------------------------------------------------------------

def _bound_values(reports, best, expect, rtol, atol):
    """Checks on {method: (value, applicable)} and the best value."""
    problems = []
    fried = reports.get("friedrich")
    if fried is None or fried[0] is None or abs(fried[0] - friedrich(expect)) > max(
            atol, expect.rtol * max(1.0, abs(expect.scalar))):
        problems.append(f"friedrich {fried!r}, expected {friedrich(expect)!r}")
    zero = reports.get("zero_scalar", (None, False))
    if zero[1] != (abs(expect.scalar) <= SCALAR_ZERO_ATOL):
        problems.append(f"zero_scalar applicable = {zero[1]} "
                        f"with R = {expect.scalar!r}")
    elif zero[1] and abs(zero[0] - zero_scalar(expect)) > max(
            atol, rtol * max(1.0, zero[0])):
        problems.append(f"zero_scalar {zero[0]!r}, expected {zero_scalar(expect)!r}")
    cells = {name: reports[name][0] if reports.get(name, (None, False))[1] else None
             for name in ("theorem31", "minimax_numeric")}
    problems += _bound_cells(expect, cells, rtol, atol)
    values = [v for v, ok in reports.values() if ok]
    if best is None or not values or abs(best - max(values)) > max(
            atol, EXACT_RTOL * max(1e-12, abs(best), max(values))):
        problems.append(f"best {best!r} is not the max of {values!r}")
    return problems


def _expected_exit(best):
    return 0 if best is not None and best > 0.0 else 2


def _bound_json(ctx, stdout, expect, given):
    doc = json.loads(stdout)
    problems = ctx.problems("bound_report_set.v1", doc)
    if problems:
        return problems, None
    prof = doc["profile"]
    if prof["n"] != expect.n:
        problems.append(f"profile n = {prof['n']}, expected {expect.n}")
    for key, value in (("scalar", expect.scalar), ("kappa0", expect.kappa0),
                       ("ric_norm_sq_min", expect.ric)):
        if not close(prof[key], value, expect.rtol, 1.0):
            problems.append(f"profile {key} {prof[key]!r}, expected {value!r}")
    if given and "eigenvalues" in given:
        got, value = prof.get("eigenvalues"), given["eigenvalues"]
        if got is None or len(got) != len(value) or not all(
                close(g, v, EXACT_RTOL, 1.0) for g, v in zip(got, value)):
            problems.append(f"profile eigenvalues {got!r}, expected {value!r}")
    reports = {r["method"]: (r["value"], r["applicable"]) for r in doc["reports"]}
    best = doc["best"]["value"]
    problems += _bound_values(reports, best, expect, expect.value_rtol, 0.0)
    return problems, best


def _bound_csv(stdout, expect):
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != ["method", "value", "strict", "applicable", "note"]:
        return [f"bound csv header {rows[:1]!r}"], None
    reports, best = {}, None
    for row in rows[1:]:
        if row[0] == "best":
            best = _cell(row[1])
        else:
            reports[row[0]] = (_cell(row[1]), row[3] == "yes")
    return _bound_values(reports, best, expect, expect.value_rtol, 0.0), best


def _table_value(text):
    return None if text == "-" else float(text)


def _bound_table(stdout, expect):
    lines = stdout.splitlines()
    if len(lines) < 3 or not lines[0].startswith("profile: n = "):
        return ["bound table has no profile line"], None
    head = dict(part.split(" = ") for part in lines[0][len("profile: "):].split(", "))
    problems = []
    if int(head["n"]) != expect.n or any(
            abs(float(head[key]) - value) > TABLE_ATOL for key, value in
            (("R", expect.scalar), ("kappa0", expect.kappa0),
             ("|Ric|^2_min", expect.ric))):
        problems.append(f"table profile {lines[0]!r}, expected {expect!r}")
    reports, best = {}, None
    for line in lines[2:]:
        parts = line.split()
        if parts[0] == "best":
            best = _table_value(parts[1])
        else:
            reports[parts[0]] = (_table_value(parts[1]), parts[3] == "yes")
    return problems + _bound_values(reports, best, expect, 0.0, TABLE_ATOL), best


def check_bound(ctx, rc, stdout, out_text, form, expect, given=None):
    """expect is the Curvature the command must report on; given is the
    profile document it read, whose eigenvalues it must echo."""
    if form == "json":
        problems, best = _bound_json(ctx, stdout, expect, given)
    elif form == "csv":
        problems, best = _bound_csv(stdout, expect)
    else:
        problems, best = _bound_table(stdout, expect)
    if rc != _expected_exit(best):
        problems.append(f"exit code {rc}, expected {_expected_exit(best)}")
    return problems


# --- verify, catalog-list, ode -----------------------------------------------

def check_verify(ctx, rc, stdout, out_text, dim, trials, seed):
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    doc = json.loads(stdout)
    problems = ctx.problems("verify_summary.v1", doc)
    if problems:
        return problems
    if (doc["n"], doc["trials"], doc["seed"]) != (dim, trials, seed):
        problems.append(f"verify echoed {doc['n']}, {doc['trials']}, {doc['seed']}")
    worst = max(doc["trace_residual_full"], doc["trace_residual_traceless"],
                doc["lemma_residual"])
    if doc["max_residual"] != worst or worst > doc["tolerance"]:
        problems.append(f"max_residual {doc['max_residual']!r} vs {worst!r}")
    if doc["ok"] is not True:
        problems.append("verify reports ok = false")
    return problems


def check_catalog(ctx, rc, stdout, out_text, as_json):
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    if as_json:
        doc = json.loads(stdout)
        problems = ctx.problems("catalog_list.v1", doc)
        if problems:
            return problems
        names = {e["name"] for e in doc["examples"]}
    else:
        names = {line.split()[0] for line in stdout.splitlines() if line.strip()}
    missing = set(EXAMPLES) - names
    return [f"catalog-list lacks {sorted(missing)}"] if missing else []


def check_ode(ctx, rc, stdout, out_text, f0):
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    doc = json.loads(stdout)
    problems = ctx.problems("ode_summary.v1", doc)
    if problems:
        return problems
    energy = doc["energy"]
    limit = ENERGY_DRIFT_RTOL * max(1.0, abs(energy))
    if doc["n"] != 5 or doc["f0"] != f0:
        problems.append(f"ode echoed n = {doc['n']}, f0 = {doc['f0']!r}")
    if not doc["energy_drift"] <= limit:
        problems.append(f"energy drift {doc['energy_drift']!r} above {limit!r}")
    if not close(energy, _potential5(f0), EXACT_RTOL, 1.0):
        problems.append(f"energy {energy!r}, expected V(f0) = {_potential5(f0)!r}")
    kappa0, ric = warp_minima(f0)
    for key, value in (("kappa0", kappa0), ("ric_norm_sq_min", ric)):
        if not close(doc[key], value, WARP_RTOL, 1.0):
            problems.append(f"{key} {doc[key]!r}, expected {value!r}")
    rows = list(csv.reader(io.StringIO(out_text or "")))
    if not rows or rows[0] != ["tau", "F", "Fp", "kappa1", "kappa2"]:
        return problems + [f"track header {rows[:1]!r}"]
    track = [list(map(float, row)) for row in rows[1:]]
    if len(track) != doc["samples"]:
        problems.append(f"{len(track)} track rows, summary says {doc['samples']}")
    if not track:
        return problems
    drift = max(abs(Fp * Fp / 2.0 + _potential5(F) - energy)
                for _, F, Fp, _, _ in track)
    if not drift <= limit:
        problems.append(f"track energy drift {drift!r} above {limit!r}")
    bad = [tau for tau, F, Fp, k1, k2 in track
           if not (close(k1, _kappa1(F, Fp), 1e-10, 1.0)
                   and close(k2, _kappa2(F, Fp), 1e-10, 1.0))]
    if bad:
        problems.append(f"{len(bad)} track rows whose kappa1, kappa2 differ "
                        f"from their closed forms in F and F'")
    F = [row[1] for row in track]
    if (min(F), max(F)) != (doc["f_min"], doc["f_max"]):
        problems.append("f_min/f_max differ from the track")
    if not close(max(F), turning_point(f0), 1e-6):
        problems.append(f"f_max {max(F)!r}, expected {turning_point(f0)!r}")
    if not math.isfinite(doc["period"]) or doc["period"] <= 0.0:
        problems.append(f"period {doc['period']!r}")
    return problems
