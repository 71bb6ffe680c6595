"""Fundamental-solution profiles on the unit sphere for n > 2m.

The kernel of an elliptic operator with positive symbol P is homogeneous,
F(x) = F(x/|x|) |x|^(2m-n), so it is determined by its sphere restriction.
Two backends compute that restriction:

* ``fft``: solve P(d) G = (mollified) delta on a periodic M^n box by Fourier
  inversion with the zero mode removed, sample G at lattice points x and 2x
  (and 3x), and fit {r^(2m-n), 1, r^2, ...} per direction; the fit removes
  the smooth periodic-image background, and the homogeneous part is the
  free-space profile.  The Gaussian mollifier suppresses truncation ringing
  and is exact for kernels annihilated by the Laplacian away from the origin.
  A coordinate-even symbol (every exponent even, as for all presets) is
  inverted by a DCT-I of the (M/2+1)^n octant of non-negative frequencies,
  which equals the real part of the complex inverse on the full box; other
  symbols take the complex inverse FFT on the full box.  Only n <= 4: at the
  box sizes affordable in n >= 5 the fit misses the kernel by tens of percent
  with no finite error estimate, so the backend refuses those dimensions.

* ``planewave``: the plane-wave formula for homogeneous kernels (Gel'fand &
  Shilov, Generalized Functions vol. 1, ch. I 3; F. John, Plane Waves and
  Spherical Means).  With s = n - 2m and G(t) the integral of 1/P over the
  slice {omega . theta = t} of the unit sphere, F(theta) is
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

For (-Delta)^m the exact positive constant Gamma(n/2-m)/(4^m pi^(n/2) (m-1)!)
is the calibration oracle.
"""

import csv as _csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dctn
from scipy.special import gamma as _gamma, roots_jacobi

from .errors import InputError, UnsupportedRegimeError
from .operators import unit_directions


def riesz_constant(m, n):
    """Kernel constant of (-Delta)^m for n > 2m."""
    if n <= 2 * m:
        raise UnsupportedRegimeError("the homogeneous kernel needs n > 2m")
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
    angular_model: str = "general"  # constant | axisymmetric | general
    model_data: dict = field(default_factory=dict)

    def value_at_directions(self, dirs):
        dirs = np.asarray(dirs, dtype=float)
        if self.angular_model == "constant":
            return np.full(dirs.shape[0], self.model_data["constant"])
        if self.angular_model == "axisymmetric":
            axis = self.model_data["axis"]
            alpha = np.arccos(np.clip(np.abs(dirs[:, axis]), 0.0, 1.0))
            return np.interp(alpha, self.model_data["alpha"], self.model_data["f_alpha"])
        # inverse-distance blend over the stored direction set
        d2 = ((dirs[:, None, :] - self.directions[None, :, :]) ** 2).sum(-1)
        d2b = ((dirs[:, None, :] + self.directions[None, :, :]) ** 2).sum(-1)
        d2 = np.minimum(d2, d2b)  # profiles of even symbols are even
        w = 1.0 / np.maximum(d2, 1e-12)
        k = min(6, self.directions.shape[0])
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        rows = np.arange(dirs.shape[0])[:, None]
        wk = w[rows, part]
        return (wk * self.values[part]).sum(1) / wk.sum(1)

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

    def reconstruct_on_grid(self, grid):
        return self.reconstruct(grid.coords())

    def sign_summary(self):
        vals = self.values
        return {
            "min": float(vals.min()),
            "max": float(vals.max()),
            "fraction_negative": float((vals < 0.0).mean()),
            "directions": int(vals.size),
            "error_estimate": float(self.error_estimate),
        }

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow([f"d{i+1}" for i in range(self.directions.shape[1])] + ["value"])
            for d, v in zip(self.directions, self.values):
                w.writerow([f"{x:.17g}" for x in d] + [f"{v:.17g}"])


def sign_summary(profile):
    if profile.values.size == 0:
        raise InputError("profile is empty")
    return profile.sign_summary()


# -- symmetry detection -------------------------------------------------------


def _isotropy_axis(op, samples=128):
    """None if P is anisotropic; n (meaning fully isotropic) or the axis index
    about which the symbol is rotation invariant."""
    rng = np.random.default_rng(7)
    dirs = unit_directions(op.n, samples)
    vals = op.symbol(dirs)
    if np.allclose(vals, vals.mean(), rtol=1e-10, atol=0.0):
        return op.n
    for axis in range(op.n):
        ok = True
        for _ in range(24):
            x = rng.standard_normal(op.n)
            y = x.copy()
            perp = [i for i in range(op.n) if i != axis]
            # random rotation in the transverse block
            q, _ = np.linalg.qr(rng.standard_normal((op.n - 1, op.n - 1)))
            y[perp] = q @ x[perp]
            px = float(op.symbol(x[None])[0])
            py = float(op.symbol(y[None])[0])
            if not math.isclose(px, py, rel_tol=1e-9, abs_tol=1e-12):
                ok = False
                break
        if ok:
            return axis
    return None


# -- fft backend --------------------------------------------------------------


def _symbol_on_freq_grid(op, freqs):
    """P on the tensor frequency grid without materializing coordinates."""
    exps, coefs = op._terms()
    shape = tuple(len(f) for f in freqs)
    out = np.zeros(shape)
    for e, c in zip(exps, coefs):
        term = np.array(c)
        for axis, p in enumerate(e):
            if p:
                s = [1] * len(freqs)
                s[axis] = len(freqs[axis])
                term = term * (freqs[axis] ** p).reshape(s)
        out = out + term
    return np.broadcast_to(out, shape).copy() if out.shape != shape else out


def _shell_vectors(n, r0, cmax, M):
    """Integer vectors with |v| within half a spacing of r0 whose multiples
    c*v for c <= cmax stay well inside the periodic box."""
    side = np.arange(-r0 - 1, r0 + 2)
    mesh = np.meshgrid(*([side] * n), indexing="ij")
    V = np.stack([a.ravel() for a in mesh], axis=1)
    norm = np.linalg.norm(V, axis=1)
    keep = (np.abs(norm - r0) <= 0.5) & (norm > 0) & (norm * cmax <= 0.49 * M)
    return V[keep]


def _fit_exponents(m, n, levels):
    """Per-direction radial fit basis: the homogeneous kernel power, the
    mollifier's leading correction (also homogeneous), the background
    constant from the removed zero mode, then slow background polynomials."""
    exps = [2 * m - n, 0] if levels == 2 else [2 * m - n, 2 * m - n - 2, 0]
    k = 2
    while len(exps) < levels:
        exps.append(k)
        k += 2
    return exps


def _periodic_green(op, M, h):
    """G on the periodic box of M^n nodes of spacing h: the inverse transform
    of the mollified 1/P with the zero mode removed.

    For a coordinate-even symbol (every exponent of P even) the transform is
    even about every frequency axis, so the real inverse is a DCT-I of its
    (M/2+1)^n octant of non-negative frequencies, Nyquist included, and G is
    returned on that octant of indices 0..M/2 only.  Other symbols get the
    complex inverse on the full box."""
    n = op.n
    even = not (op._terms()[0] % 2).any()
    k = 2.0 * math.pi * (np.fft.rfftfreq(M, d=h) if even else np.fft.fftfreq(M, d=h))
    freqs = [k] * n
    P = _symbol_on_freq_grid(op, freqs)
    r2 = np.zeros(P.shape)
    for axis in range(n):
        s = [1] * n
        s[axis] = k.size
        r2 = r2 + (k**2).reshape(s)
    sigma = 1.5 * h
    with np.errstate(divide="ignore", invalid="ignore"):
        chat = np.exp(-0.5 * sigma**2 * r2) / P
    chat.flat[0] = 0.0
    if even:
        return dctn(chat, type=1, norm="forward", overwrite_x=True) / (h**n)
    return np.fft.ifftn(chat).real / (h**n)


def _fft_profile(op, resolution, extrapolation_levels, max_directions):
    n, m = op.n, op.m
    M = int(resolution)
    if M % 4:
        raise InputError("fft resolution must be a multiple of 4")
    if M**n > 70_000_000:
        raise UnsupportedRegimeError(
            f"fft box would hold {M**n} nodes; use the planewave backend "
            "(symbols rotation invariant about a coordinate axis)"
        )
    A = 1.0
    h = 2.0 * A / M
    G = _periodic_green(op, M, h)

    levels = int(extrapolation_levels)
    if levels < 2:
        raise InputError("need at least two shells to remove the periodic background")
    mult = np.arange(1, levels + 1)
    r0 = max(6, M // 16)
    while r0 > 4 and r0 * levels > 0.49 * M:
        r0 -= 1
    V = _shell_vectors(n, r0, mult[-1], M)
    if V.shape[0] == 0:
        raise UnsupportedRegimeError("no lattice shell fits the requested extrapolation")
    if V.shape[0] > max_directions:
        # deterministic thinning; exact axis vectors are re-appended below
        order = np.lexsort(tuple(V.T))
        V = V[order][:: max(1, V.shape[0] // max_directions)]
    axes = []
    for axis in range(n):
        for s in (+1, -1):
            e = np.zeros(n, dtype=int)
            e[axis] = s * r0
            axes.append(e)
    V = np.vstack([np.array(axes), V])
    V = np.unique(V, axis=0)
    dirs = V / np.linalg.norm(V, axis=1)[:, None]
    radii = np.linalg.norm(V, axis=1) * h

    # samples[k, i] = G at mult[k] * V[i]; an octant G is even about each axis
    idx = np.multiply.outer(mult, V) % M
    if G.shape[0] < M:
        idx = np.minimum(idx, M - idx)
    samples = G[tuple(np.moveaxis(idx, -1, 0))]
    # fit sum_j a_j (c r)^e_j over the shells c = mult; since (c r)^e =
    # c^e r^e, one matrix B[k, j] = mult[k]^e_j serves every direction
    exps = _fit_exponents(m, n, levels)
    B = np.power.outer(mult.astype(float), exps)
    F = np.linalg.solve(B, samples)[0] / radii ** exps[0]
    return dirs, F, radii


def _compute_fft(op, resolution, extrapolation_levels, max_directions):
    dirs, F, _ = _fft_profile(op, resolution, extrapolation_levels, max_directions)
    est = float("nan")
    if resolution >= 32:
        try:
            dirs2, F2, _ = _fft_profile(op, resolution // 2, extrapolation_levels,
                                        max_directions)
        except UnsupportedRegimeError:
            return dirs, F, est
        # compare along shared coordinate axes
        est = 0.0
        for axis in range(op.n):
            e = np.zeros(op.n)
            e[axis] = 1.0
            a = F[np.argmax(dirs @ e)]
            b = F2[np.argmax(dirs2 @ e)]
            est = max(est, abs(a - b))
        est *= 1.5
    return dirs, F, est


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


def _t_rule(s, r, count, tail_count):
    """Nodes and weights that apply the t-functional of the plane-wave formula
    to G, which must be analytic in the disk |t| <= r; the nodes on its
    boundary are complex."""
    if s % 2:
        # pi (-1)^((s-1)/2) G^(s-1)(0) by Cauchy's formula, trapezoid rule on |t| = r
        t = r * np.exp(2j * math.pi * (np.arange(count) + 0.5) / count)
        return t, math.pi * (-1) ** (s // 2) * math.factorial(s - 1) / count * t ** (1 - s)
    # Gamma(s) cos(pi s/2) f.p. int |t|^-s G dt.  G is even, so t^-s G has no
    # residue at 0 and the finite part over [-r, r] is the integral along the
    # upper half circle; the tails r <= |t| <= 1 are taken in t = cos(phi),
    # which makes R = sin(phi) smooth up to t = 1
    x, w = np.polynomial.legendre.leggauss(count)
    arc = r * np.exp(0.5j * math.pi * (1.0 - x))
    arc_w = -0.5j * math.pi * w * arc ** (1 - s)
    end = math.acos(r)
    x, w = np.polynomial.legendre.leggauss(tail_count)
    phi = 0.5 * end * (x + 1.0)
    tail_w = end * w * np.sin(phi) * np.cos(phi) ** -s
    return (np.concatenate([arc, np.cos(phi)]),
            _gamma(s) * math.cos(math.pi * s / 2.0) * np.concatenate([arc_w, tail_w]))


def _planewave_alpha_profile(op, axis, alphas, refine=1, shrink=1):
    """F on rays at angles alpha from the axis, with every node count times
    `refine` and the circle of the t-rule shrunk by `shrink`; also returns the
    absolute sum (2 pi)^-n sum |w G| of each value, the scale its rounding
    error is relative to."""
    n, m = op.n, op.m
    count, tail_count, slice_count = (refine * c for c in _PW_NODES)
    P = _axial_symbol(op, axis)
    t, tw = _t_rule(n - 2 * m, _contour_radius(P) / shrink, count, tail_count)
    x, xw = roots_jacobi(slice_count, n / 2.0 - 2.0, n / 2.0 - 2.0)
    R = np.sqrt(1.0 - t * t)
    # G(t) = |S^(n-3)| int_{-R}^{R} (R^2 - v^2)^((n-4)/2) / P(a) dv, with
    # a = t cos(alpha) + v sin(alpha); at v = R x the weight is R^(n-3) times
    # the Gauss-Jacobi one in x.  The (2 pi)^-n of F is folded into G here.
    scale = (2.0 * math.pi**(n / 2.0 - 1.0) / _gamma(n / 2.0 - 1.0) * R ** (n - 3)
             * (2.0 * math.pi) ** -n)
    values, sizes = np.empty(len(alphas)), np.empty(len(alphas))
    for i, alpha in enumerate(alphas):
        a = t[:, None] * math.cos(alpha) + np.outer(R * math.sin(alpha), x)
        G = scale * ((1.0 / P(a * a)) @ xw)
        values[i] = (G @ tw).real
        sizes[i] = np.abs(G) @ np.abs(tw)
    return values, sizes


# angles from the symmetry axis at which axisymmetric profiles are evaluated,
# and the indices of the probe angles 0, pi/4 and pi/2 of the error estimate
_ALPHAS = np.linspace(0.0, math.pi / 2.0, 121)
_PROBES = [0, len(_ALPHAS) // 2, len(_ALPHAS) - 1]


def _planewave_error(op, axis, base, size):
    """1.5 times the largest change of the probe values `base` under a rule
    with doubled node counts on a circle of half the radius, plus a thousand
    ulps of their absolute sums `size` for rounding.  A zero of P that slipped
    between the two circles would show as a residue-sized change."""
    fine, _ = _planewave_alpha_profile(op, axis, _ALPHAS[_PROBES], refine=2, shrink=2)
    rounding = 1e3 * np.finfo(float).eps * float(size.max())
    return 1.5 * float(np.abs(fine - base).max()) + rounding


# -- public entry -------------------------------------------------------------


def compute_profile(op, resolution=None, extrapolation_levels=2, backend="auto",
                    direction_count=None):
    """Sphere profile of the fundamental solution of an elliptic operator.

    resolution: per-axis node count of the fft box (defaults by dimension);
    extrapolation_levels: number of nested lattice shells used to strip the
    periodic background (2 removes the constant, 3 also removes the r^2 term).

    With backend "auto", n <= 4 takes the fft backend and rotation-invariant
    symbols in n >= 5 the planewave backend.  The fft backend refuses n >= 5
    (UnsupportedRegimeError): its box there is too coarse to calibrate, off
    by half for polyharmonic(5, 2), with no finite error estimate.  A fully
    isotropic symbol gives angular_model "constant"; under planewave its
    quadrature runs at the probe angles 0, pi/4 and pi/2, and the pi/4 value
    fills every direction.  An axisymmetric symbol gives angular_model
    "axisymmetric", interpolated from 121 angles.  The planewave
    error_estimate compares the rule at the probe angles with one of doubled
    node counts on a circle of half the radius.
    """
    n, m = op.n, op.m
    if n <= 2 * m:
        raise UnsupportedRegimeError(
            f"profile needs n > 2m (logarithmic regime excluded); got n={n}, m={m}"
        )
    from .operators import check_ellipticity

    ok, worst, wdir = check_ellipticity(op, 512)
    if not ok:
        raise InputError(f"operator is not elliptic (P = {worst:.3e} along {wdir})")

    axis = _isotropy_axis(op)
    if backend == "auto":
        backend = "fft" if n <= 4 else "planewave"
    if direction_count is None:
        direction_count = 2**10 if n <= 4 else 2**12

    if backend == "fft":
        if n >= 5:
            raise UnsupportedRegimeError(
                f"the fft backend loses calibration beyond n = 4 (got n={n}); the "
                "planewave backend serves symbols rotation invariant about a "
                "coordinate axis"
            )
        if resolution is None:
            resolution = {1: 256, 2: 128, 3: 128, 4: 48}[n]
        if extrapolation_levels == 2 and m > 1:
            extrapolation_levels = 3  # fit the mollifier correction term as well
        dirs, vals, est = _compute_fft(op, resolution, extrapolation_levels, direction_count)
        model, mdata = "general", {}
        if axis == n:
            model, mdata = "constant", {"constant": float(np.median(vals))}
        return SphereProfile(dirs, vals, 2 * m - n, op.name or "operator", "fft", est,
                             model, mdata)

    if backend != "planewave":
        raise InputError(f"unknown backend {backend!r}")
    if axis is None:
        raise UnsupportedRegimeError(
            "planewave backend needs a symbol that is rotation invariant about "
            "some coordinate axis"
        )
    if axis == n:
        axis = n - 1
        f_alpha, size = _planewave_alpha_profile(op, axis, _ALPHAS[_PROBES])
        est = _planewave_error(op, axis, f_alpha, size)
        model, mdata = "constant", {"constant": float(f_alpha[1])}
    else:
        f_alpha, size = _planewave_alpha_profile(op, axis, _ALPHAS)
        est = _planewave_error(op, axis, f_alpha[_PROBES], size[_PROBES])
        model, mdata = "axisymmetric", {"axis": axis, "alpha": _ALPHAS, "f_alpha": f_alpha}
    profile = SphereProfile(unit_directions(n, direction_count), None, 2 * m - n,
                            op.name or "operator", "planewave", est, model, mdata)
    profile.values = profile.value_at_directions(profile.directions)
    return profile
