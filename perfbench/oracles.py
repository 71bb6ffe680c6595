"""Closed forms the benchmark checks polycap against.

Everything here is computed from the formulas alone, with the standard
library, so a change to polycap cannot move a reference value.
"""

import math


def sphere_area(n):
    """|S^(n-1)|, the surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def newton_capacity(n, radius):
    """Capacity of a ball for the Laplacian: (n-2) |S^(n-1)| R^(n-2)."""
    return (n - 2) * sphere_area(n) * radius ** (n - 2)


def biharmonic_ball_capacity(n, radius):
    """Capacity of a ball for the bilaplacian in R^n, n > 4.

    The exterior capacitary potential is a r^(4-n) + b r^(2-n) with u = 1 and
    u' = 0 at R.  Outside the ball Delta u = 2 a (4-n) r^(2-n), so the energy
    int (Delta u)^2 is |S^(n-1)| 4 a^2 (n-4) R^(4-n).
    """
    R = radius
    # [R^(4-n)          R^(2-n)        ] [a]   [1]
    # [(4-n) R^(3-n)    (2-n) R^(1-n)  ] [b] = [0]
    a11, a12 = R ** (4 - n), R ** (2 - n)
    a21, a22 = (4 - n) * R ** (3 - n), (2 - n) * R ** (1 - n)
    a = a22 / (a11 * a22 - a12 * a21)
    return sphere_area(n) * 4.0 * a * a * (n - 4) * R ** (4 - n)


def ball_capacity(m, n, radius):
    if m == 1:
        return newton_capacity(n, radius)
    if m == 2:
        return biharmonic_ball_capacity(n, radius)
    raise ValueError(f"no closed form here for m = {m}")


def riesz_constant(m, n):
    """Gamma((n-2m)/2) / (4^m pi^(n/2) Gamma(m)), the kernel of (-Delta)^m."""
    return math.gamma((n - 2 * m) / 2.0) / (4.0**m * math.pi ** (n / 2.0) * math.gamma(m))


def cusp_verdict(kind, p, m, n):
    """Wiener-type verdict at the tip of a rotational cusp complement.

    For n >= 2m + 2 the tip is regular iff int_0^1 f(t) t^(2m-n) dt diverges:
    for f = t^p that is p + 2m - n <= -1; the exponential profile
    f = exp(-t^-a) makes every such integral converge.  A cone (p = 1) is
    regular in every dimension n > 2m.
    """
    if kind == "cone":
        return "regular"
    if n < 2 * m + 2:
        raise ValueError("cusp verdicts here cover n >= 2m + 2 only")
    if kind == "power":
        return "regular" if p + 2 * m - n <= -1 else "irregular"
    if kind == "exponential":
        return "irregular"
    raise ValueError(f"unknown cusp kind {kind!r}")


def rel_err(value, exact):
    return abs(value - exact) / abs(exact)
