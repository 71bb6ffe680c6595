"""Fundamental-solution profiles on the unit sphere for n > 2m.

The kernel of an elliptic operator with positive symbol P is homogeneous,
F(x) = F(x/|x|) |x|^(2m-n), so it is determined by its sphere restriction.
The operator alone picks one of two routes:

* symbols rotation invariant about a coordinate axis, in every n >= 3: the
  plane-wave formula for homogeneous kernels (Gel'fand & Shilov, Generalized
  Functions vol. 1, ch. I 3; F. John, Plane Waves and Spherical Means).
  With s = n - 2m and G(t) the integral of 1/P over the slice
  {omega . theta = t} of the unit sphere, F(theta) is
  (2 pi)^-n pi (-1)^((s-1)/2) G^(s-1)(0) for odd s and
  (2 pi)^-n Gamma(s) cos(pi s/2) f.p. int_{-1}^{1} |t|^-s G(t) dt for even s.
  For a symbol rotation invariant about one axis, P on the sphere is a
  polynomial in the squared axis component, and G(t) is one Gauss-Jacobi sum
  over the slice.  The t-functional runs on a circle about 0 in the complex
  t plane and by Gauss-Legendre in the polar angle beyond; the radius is at
  most 0.2 and small enough that the zeros of P stay outside, so G is
  analytic inside.  No special function, no cut-off.  The profile depends
  only on the angle alpha from the axis and is evaluated on 121 angles in
  [0, pi/2], or at the probe angles 0, pi/4, pi/2 alone for a fully isotropic
  symbol.  error_estimate compares the rule at the probe angles with one of
  doubled node counts on a circle of half the radius.

* second-order symbols without such an axis, P(xi) = xi^T A xi: the Newton
  kernel pulled back by A^(1/2), exact up to rounding,
  F(x) = Gamma(n/2-1) / (4 pi^(n/2) sqrt(det A)) (x^T A^-1 x)^((2-n)/2).

Other symbols (m >= 2 without a rotation axis) are refused.  For
(-Delta)^m the exact positive constant Gamma(n/2-m)/(4^m pi^(n/2) (m-1)!)
is the calibration oracle.

The Gauss-Legendre and Gauss-Jacobi rules of the plane-wave route depend
only on their node counts (and n for Jacobi), so each is built once per
process by _gauss_legendre and _gauss_jacobi and returned as read-only
arrays that callers only read, as operators.unit_directions builds the
sphere directions.  compute_profile fits the axial symbol and picks the
circle once for both rules, and each rule evaluates its slice
values 1/P(a^2) in place in two complex (t, x) buffers allocated per call:
the operations of Polynomial.__call__ in its order, so bitwise its values.

scipy.special (gamma, roots_jacobi) is imported by the functions that use it,
so importing polycap loads no scipy module.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, UnsupportedRegimeError
from .operators import check_ellipticity, quadratic_form_matrix, unit_directions
from .reporting import write_csv


def riesz_constant(m, n):
    """Kernel constant of (-Delta)^m for n > 2m."""
    if n <= 2 * m:
        raise UnsupportedRegimeError("the homogeneous kernel needs n > 2m")
    from scipy.special import gamma as _gamma

    return _gamma(n / 2.0 - m) / (4.0**m * math.pi ** (n / 2.0) * _gamma(m))


@dataclass
class SphereProfile:
    """F restricted to the unit sphere plus enough structure to reconstruct."""

    directions: np.ndarray
    values: np.ndarray
    homogeneity_degree: int
    operator_name: str
    method: str = ""
    error_estimate: float = float("nan")
    angular_model: str = "constant"  # constant | axisymmetric | quadratic
    model_data: dict = field(default_factory=dict)

    def value_at_directions(self, dirs):
        dirs = np.asarray(dirs, dtype=float)
        data = self.model_data
        if self.angular_model == "constant":
            return np.full(dirs.shape[0], data["constant"])
        if self.angular_model == "axisymmetric":
            alpha = np.arccos(np.clip(np.abs(dirs[:, data["axis"]]), 0.0, 1.0))
            return np.interp(alpha, data["alpha"], data["f_alpha"])
        if self.angular_model == "quadratic":
            q = ((dirs @ data["inverse"]) * dirs).sum(1)
            return data["constant"] * q ** (self.homogeneity_degree / 2.0)
        raise InputError(f"unknown angular model {self.angular_model!r}")

    def reconstruct(self, points):
        """F(x) = profile(x/|x|) |x|^(2m-n) at arbitrary points (0 excluded)."""
        points = np.asarray(points, dtype=float)
        r = np.linalg.norm(points, axis=-1)
        flat = points.reshape(-1, points.shape[-1])
        rf = r.reshape(-1)
        out = np.zeros_like(rf)
        ok = rf > 0
        vals = self.value_at_directions(flat[ok] / rf[ok, None])
        out[ok] = vals * rf[ok] ** self.homogeneity_degree
        return out.reshape(r.shape)

    def to_csv(self, path):
        write_csv(path, [f"d{i+1}" for i in range(self.directions.shape[1])] + ["value"],
                  np.column_stack([self.directions, self.values]))


def sign_summary(profile):
    vals = profile.values
    if vals.size == 0:
        raise InputError("profile is empty")
    return {
        "min": float(vals.min()),
        "max": float(vals.max()),
        "fraction_negative": float((vals < 0.0).mean()),
        "directions": int(vals.size),
        "error_estimate": float(profile.error_estimate),
    }


# -- symmetry detection -------------------------------------------------------


def _isotropy_axis(op):
    """None if P is anisotropic; n (meaning fully isotropic) or the first axis
    whose _axial_symbol, the plane-wave route's polynomial in the squared axis
    component, reproduces P on op.sphere_sample to 1e-12 of max|P| (about a
    thousand times the rounding of the fit)."""
    dirs, vals = op.sphere_sample
    if np.allclose(vals, vals.mean(), rtol=1e-10, atol=0.0):
        return op.n
    tol = 1e-12 * np.abs(vals).max()
    for axis in range(op.n):
        if np.abs(_axial_symbol(op, axis)(dirs[:, axis] ** 2) - vals).max() <= tol:
            return axis
    return None


# -- plane-wave backend -------------------------------------------------------

# largest radius of the circle about t = 0 that carries the singular part of
# the t-rule, and the node counts (circle, tail polar angle, slice) of the
# base rule
_PW_RADIUS = 0.2
_PW_NODES = (32, 100, 160)


def _axial_symbol(op, axis):
    """P on the unit sphere as a polynomial in a^2, a the axis component.

    Exact for a symbol rotation invariant about `axis`: P is then a form of
    degree 2m in a and the transverse radius, whose square is 1 - a^2."""
    a2 = np.linspace(0.0, 1.0, op.m + 1)
    pts = np.zeros((op.m + 1, op.n))
    pts[:, axis] = np.sqrt(a2)
    pts[:, 1 if axis == 0 else 0] = np.sqrt(1.0 - a2)
    return np.polynomial.Polynomial.fit(a2, op.symbol(pts), op.m)


def _contour_radius(P):
    """Radius of the t-rule's circle: _PW_RADIUS, or half the distance from
    [-1, 1] to the nearest square root of a zero of P if that is smaller.

    For |t| <= r and x in [-1, 1] the axis component t cos(alpha) +
    R x sin(alpha) lies within r sqrt(1 + r^2) of [-1, 1], since |R - 1| <=
    |t|^2; so no zero of P(a^2) is met and G is analytic inside the circle."""
    root = np.sqrt(P.roots().astype(complex))
    gap = np.hypot(np.maximum(np.abs(root.real) - 1.0, 0.0), root.imag)
    return min(_PW_RADIUS, 0.5 * gap.min(initial=np.inf))


@functools.cache
def _gauss_legendre(count):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per count and
    read-only."""
    x, w = np.polynomial.legendre.leggauss(count)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.cache
def _gauss_jacobi(count, a):
    """Gauss-Jacobi nodes and weights for the weight (1 - x^2)^a on [-1, 1],
    built once per (count, a) and read-only."""
    from scipy.special import roots_jacobi

    x, w = roots_jacobi(count, a, a)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _t_rule(s, r, count, tail_count):
    """Nodes and weights that apply the t-functional of the plane-wave formula
    to G, which must be analytic in the disk |t| <= r; the nodes on its
    boundary are complex."""
    from scipy.special import gamma as _gamma

    if s % 2:
        # pi (-1)^((s-1)/2) G^(s-1)(0) by Cauchy's formula, trapezoid rule on |t| = r
        t = r * np.exp(2j * math.pi * (np.arange(count) + 0.5) / count)
        return t, math.pi * (-1) ** (s // 2) * math.factorial(s - 1) / count * t ** (1 - s)
    # Gamma(s) cos(pi s/2) f.p. int |t|^-s G dt.  G is even, so t^-s G has no
    # residue at 0 and the finite part over [-r, r] is the integral along the
    # upper half circle; the tails r <= |t| <= 1 are taken in t = cos(phi),
    # which makes R = sin(phi) smooth up to t = 1
    x, w = _gauss_legendre(count)
    arc = r * np.exp(0.5j * math.pi * (1.0 - x))
    arc_w = -0.5j * math.pi * w * arc ** (1 - s)
    end = math.acos(r)
    x, w = _gauss_legendre(tail_count)
    phi = 0.5 * end * (x + 1.0)
    tail_w = end * w * np.sin(phi) * np.cos(phi) ** -s
    return (np.concatenate([arc, np.cos(phi)]),
            _gamma(s) * math.cos(math.pi * s / 2.0) * np.concatenate([arc_w, tail_w]))


def _planewave_alpha_profile(op, P, radius, alphas, refine=1):
    """F on rays at angles alpha from the axis, for the axial symbol P of op
    (_axial_symbol), with every node count times `refine` and the circle of
    the t-rule of the given radius; also returns the absolute sum
    (2 pi)^-n sum |w G| of each value, the scale its rounding error is
    relative to.

    The slice values 1/P(a^2) are evaluated in place in two (t, x) buffers
    per call: the operations of Polynomial.__call__ (mapdomain, then Horner
    in polyval) in its order, so they are bitwise its values."""
    from scipy.special import gamma as _gamma

    n, m = op.n, op.m
    count, tail_count, slice_count = (refine * c for c in _PW_NODES)
    t, tw = _t_rule(n - 2 * m, radius, count, tail_count)
    x, xw = _gauss_jacobi(slice_count, n / 2.0 - 2.0)
    R = np.sqrt(1.0 - t * t)
    # G(t) = |S^(n-3)| int_{-R}^{R} (R^2 - v^2)^((n-4)/2) / P(a) dv, with
    # a = t cos(alpha) + v sin(alpha); at v = R x the weight is R^(n-3) times
    # the Gauss-Jacobi one in x.  The (2 pi)^-n of F is folded into G here.
    scale = (2.0 * math.pi**(n / 2.0 - 1.0) / _gamma(n / 2.0 - 1.0) * R ** (n - 3)
             * (2.0 * math.pi) ** -n)
    off, scl = P.mapparms()
    c = P.coef
    a = np.empty((t.size, x.size), dtype=complex)
    y = np.empty_like(a)
    values, sizes = np.empty(len(alphas)), np.empty(len(alphas))
    for i, alpha in enumerate(alphas):
        np.multiply((R * math.sin(alpha))[:, None], x, out=a)
        a += (t * math.cos(alpha))[:, None]
        a *= a
        a *= scl
        a += off
        # the accumulator stays the left factor: with fused multiply-adds a
        # complex product is not commutative in its last bit
        y.fill(c[-1])
        for ck in c[-2::-1]:
            y *= a
            y += ck
        np.divide(1.0, y, out=y)
        G = scale * (y @ xw)
        values[i] = (G @ tw).real
        sizes[i] = np.abs(G) @ np.abs(tw)
    return values, sizes


# angles from the symmetry axis at which axisymmetric profiles are evaluated,
# and the indices of the probe angles 0, pi/4 and pi/2 of the error estimate
_ALPHAS = np.linspace(0.0, math.pi / 2.0, 121)
_PROBES = [0, len(_ALPHAS) // 2, len(_ALPHAS) - 1]


def _planewave_error(op, P, radius, base, size):
    """1.5 times the largest change of the probe values `base` under a rule
    with doubled node counts on a circle of half the radius, plus a thousand
    ulps of their absolute sums `size` for rounding.  A zero of P that slipped
    between the two circles would show as a residue-sized change."""
    fine, _ = _planewave_alpha_profile(op, P, radius / 2, _ALPHAS[_PROBES], refine=2)
    rounding = 1e3 * np.finfo(float).eps * float(size.max())
    return 1.5 * float(np.abs(fine - base).max()) + rounding


# -- second-order closed form -------------------------------------------------


def _quadratic_kernel(op):
    """model_data of the kernel of P(xi) = xi^T A xi, A^-1 and the constant
    Gamma(n/2-1) / (4 pi^(n/2) sqrt(det A)), and a rounding bound on its
    sphere values."""
    from scipy.special import gamma as _gamma

    n = op.n
    lam, vec = np.linalg.eigh(quadratic_form_matrix(op))
    constant = _gamma(n / 2.0 - 1.0) / (4.0 * math.pi ** (n / 2.0) * math.sqrt(lam.prod()))
    # the largest sphere value is constant lam_max^((n-2)/2); A^-1 carries
    # relative rounding of about cond(A) eps, which the power (n-2)/2 scales
    est = n * n * (lam[-1] / lam[0]) * np.finfo(float).eps * constant * lam[-1] ** (n / 2 - 1)
    return {"inverse": (vec / lam) @ vec.T, "constant": constant}, est


# -- public entry -------------------------------------------------------------


def compute_profile(op):
    """Sphere profile of the fundamental solution of an elliptic operator.

    The operator alone picks the route.  A symbol rotation invariant about a
    coordinate axis takes the plane-wave formula in every n >= 3 (method
    "planewave").  A fully isotropic one gives angular_model "constant": the
    quadrature runs at the probe angles 0, pi/4 and pi/2, and the pi/4 value
    fills every direction.  An axisymmetric one gives angular_model
    "axisymmetric", interpolated from 121 angles.  error_estimate compares
    the rule at the probe angles with one of doubled node counts on a circle
    of half the radius.

    A second-order symbol without such an axis, P(xi) = xi^T A xi, takes the
    closed form (method "closed-form", angular_model "quadratic" with A^-1
    and the constant in model_data), so every direction is exact up to
    rounding; error_estimate is a rounding bound from the condition of A.

    Raises UnsupportedRegimeError for n <= 2m and for a symbol of order four
    or more without a rotation axis, and InputError for a symbol that is not
    positive on the sphere (decided exactly for m = 1).  `values` holds the
    kernel on unit_directions(n, 2^10) for n <= 4 and (n, 2^12) above.
    """
    n, m = op.n, op.m
    if n <= 2 * m:
        raise UnsupportedRegimeError(
            f"profile needs n > 2m (logarithmic regime excluded); got n={n}, m={m}"
        )
    ok, worst, wdir = check_ellipticity(op)
    if not ok:
        raise InputError(f"operator is not elliptic (P = {worst:.3e} along {wdir})")

    dirs = unit_directions(n, 2**10 if n <= 4 else 2**12)
    axis = _isotropy_axis(op)
    if axis is None:
        if m > 1:
            raise UnsupportedRegimeError(
                "a kernel profile of order four or more needs a symbol that is "
                "rotation invariant about some coordinate axis"
            )
        method, model = "closed-form", "quadratic"
        mdata, est = _quadratic_kernel(op)
    else:
        # one fit of the axial symbol and one circle serve both rules; a fully
        # isotropic symbol (axis n) is fitted along the last axis
        P = _axial_symbol(op, min(axis, n - 1))
        radius = _contour_radius(P)
        if axis == n:
            f_alpha, size = _planewave_alpha_profile(op, P, radius, _ALPHAS[_PROBES])
            est = _planewave_error(op, P, radius, f_alpha, size)
            method, model, mdata = "planewave", "constant", {"constant": float(f_alpha[1])}
        else:
            f_alpha, size = _planewave_alpha_profile(op, P, radius, _ALPHAS)
            est = _planewave_error(op, P, radius, f_alpha[_PROBES], size[_PROBES])
            method, model = "planewave", "axisymmetric"
            mdata = {"axis": axis, "alpha": _ALPHAS, "f_alpha": f_alpha}
    profile = SphereProfile(dirs, None, 2 * m - n, op.name or "operator", method, est,
                            model, mdata)
    profile.values = profile.value_at_directions(dirs)
    return profile
