"""Regenerate the frozen warp reference values of the test suite.

Evaluates, at 40 significant digits with mpmath, the n = 5 warp orbit
through F(0) = 0.1 (the float the tests pass) from energy
conservation alone: the energy E = V(0.1), the upper turning point
F_max with V(F_max) = E, the smallest Ricci eigenvalue kappa0 at the
lower turning point, and the least |Ric|^2 at the upper one. At a
turning point F' = 0, so kappa1 = (8/5)(1 - F^(-4/5)) there, and the
script checks that this agrees with the closed form
kappa1 = 16/25 + (48/25) E / F^2 of diracbound.warp.

Prints one `NAME = value` line per constant, grouped under the test
file that freezes it, in the form the files use:

    python scripts/frozen_refs.py
"""

from mpmath import mp, mpf

F0 = 0.1


def _potential(F):
    return F**2 / 2 - mpf(5) / 6 * F ** (mpf(6) / 5)


def _kappa1_at_rest(F):
    return mpf(8) / 5 * (1 - F ** (mpf(-4) / 5))


def references():
    """{test file: {constant name: value}} as Python floats."""
    with mp.workdps(40):
        f0 = mpf(F0)
        energy = _potential(f0)
        top = (mpf(5) / 3) ** (mpf(5) / 4)       # V(top) = 0 > energy
        f_max = mp.findroot(lambda F: _potential(F) - energy, (mpf(1), top),
                            solver="anderson")
        kappa0 = _kappa1_at_rest(f0)
        k1_top = _kappa1_at_rest(f_max)
        ric_min = k1_top**2 + (mpf(16) / 5 - k1_top) ** 2 / 4
        for F, k1 in ((f0, kappa0), (f_max, k1_top)):
            gap = abs(k1 - (mpf(16) / 25 + mpf(48) / 25 * energy / F**2))
            if gap > mpf(10) ** -35:
                raise ArithmeticError(f"closed form of kappa1 is off by {gap}")
        return {
            "tests/test_warp.py": {"F_MAX": float(f_max), "KAPPA0": float(kappa0),
                                   "RIC_MIN": float(ric_min)},
            "tests/test_acceptance.py": {"WARP_KAPPA0": float(kappa0),
                                         "WARP_RIC_MIN": float(ric_min)},
        }


def main():
    for path, constants in references().items():
        print(f"# {path}")
        for name, value in constants.items():
            print(f"{name} = {value!r}")


if __name__ == "__main__":
    main()
