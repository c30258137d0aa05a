"""Bisection on a closed interval."""


def bisect_root(f, a, b):
    """Zero of an increasing f on [a, b], bisected down to adjacent floats.

    Returns the final endpoint with the smaller |f|, so a zero that sits
    exactly on a or b is returned as is. When round-off leaves f without
    a sign change on [a, b], the search closes on the endpoint where |f|
    is least, which is where the zero of a monotone f lies.
    """
    if not b > a:
        raise ValueError("bisect_root needs a < b")
    fa, fb = f(a), f(b)
    while True:
        m = 0.5 * (a + b)
        if not a < m < b:
            break
        fm = f(m)
        if fm < 0.0:
            a, fa = m, fm
        else:
            b, fb = m, fm
    return a if abs(fa) <= abs(fb) else b
