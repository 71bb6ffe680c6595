"""Fundamental-solution profiles on the unit sphere for n > 2m.

The kernel of an elliptic operator with positive symbol P is homogeneous,
F(x) = F(x/|x|) |x|^(2m-n), so it is determined by its sphere restriction.
Two backends compute that restriction:

* ``fft``: solve P(d) G = (mollified) delta on a periodic box by Fourier
  inversion with the zero mode removed, sample G at lattice points x and 2x
  (and 4x), and fit {r^(2m-n), 1, r^2, ...} per direction; the fit removes
  the smooth periodic-image background, and the homogeneous part is the
  free-space profile.  The Gaussian mollifier suppresses truncation ringing
  and is exact for kernels annihilated by the Laplacian away from the origin.

* ``subordination``: F(theta) = 2m * int_0^inf u^(n-2m-1) H_1(u theta) du
  where H_1 is the kernel of exp(-P(d)); for symbols that are rotation
  invariant around one axis H_1 reduces to an absolutely convergent double
  quadrature in any dimension, which is what makes n = 8 reachable.  The
  profile then depends only on the angle alpha from the axis and is
  evaluated on 121 angles in [0, pi/2]; the Gauss nodes and exp(-P) on
  their grid are built once per profile and shared by all angles.  A fully
  isotropic symbol has a constant profile, which is evaluated by the same
  quadrature at the single angle pi/4.

For (-Delta)^m the exact positive constant Gamma(n/2-m)/(4^m pi^(n/2) (m-1)!)
is the calibration oracle.
"""

import csv as _csv
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import gamma as _gamma, jv

from .errors import InputError, UnsupportedRegimeError
from .operators import unit_directions

_MOLLIFIER_NODES = 2.0  # Gaussian width in grid spacings


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


def _fft_profile(op, resolution, extrapolation_levels, max_directions):
    n, m = op.n, op.m
    M = int(resolution)
    if M % 4:
        raise InputError("fft resolution must be a multiple of 4")
    if M**n > 70_000_000:
        raise UnsupportedRegimeError(
            f"fft box would hold {M**n} nodes; use the subordination backend"
        )
    A = 1.0
    h = 2.0 * A / M
    freqs = [2.0 * math.pi * np.fft.fftfreq(M, d=h) for _ in range(n)]
    P = _symbol_on_freq_grid(op, freqs)
    r2 = np.zeros(P.shape)
    for axis in range(n):
        s = [1] * n
        s[axis] = M
        r2 = r2 + (freqs[axis] ** 2).reshape(s)
    sigma = 1.5 * h
    with np.errstate(divide="ignore", invalid="ignore"):
        chat = np.exp(-0.5 * sigma**2 * r2) / P
    chat.flat[0] = 0.0
    G = np.fft.ifftn(chat).real / (h**n)
    del chat, P, r2

    levels = int(extrapolation_levels)
    if levels < 2:
        raise InputError("need at least two shells to remove the periodic background")
    mult = list(range(1, levels + 1))
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

    samples = np.empty((V.shape[0], levels))
    for k, c in enumerate(mult):
        idx = tuple((c * V[:, axis]) % M for axis in range(n))
        samples[:, k] = G[idx]
    exps = _fit_exponents(m, n, levels)
    F = np.empty(V.shape[0])
    for i in range(V.shape[0]):
        rr = radii[i] * np.asarray(mult, dtype=float)
        Mat = np.stack([rr**e for e in exps], axis=1)
        sol = np.linalg.solve(Mat, samples[i])
        F[i] = sol[0]
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


# -- subordination backend ----------------------------------------------------


def _lam_kernel(nu, t):
    """Gamma(nu+1) (t/2)^-nu J_nu(t); smooth and equal to 1 at t = 0."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    small = np.abs(t) < 1e-8
    out[small] = 1.0 - t[small] ** 2 / (4.0 * (nu + 1.0))
    ts = t[~small]
    out[~small] = _gamma(nu + 1.0) * (2.0 / ts) ** nu * jv(nu, ts)
    return out


def _axis_symbol_2d(op, axis):
    """P as a function of (transverse radius, axial frequency)."""

    def sym(rho, z):
        rho = np.asarray(rho, dtype=float)
        z = np.asarray(z, dtype=float)
        pts = np.zeros(rho.shape + (op.n,))
        t_axis = 0 if axis != 0 else 1
        pts[..., t_axis] = rho
        pts[..., axis] = z
        return op.symbol(pts)

    return sym


class _SubordinationSetup(NamedTuple):
    """Angle-independent part of the subordination quadrature: the Gauss
    nodes in transverse radius and axial frequency up to the cutoff, and the
    heat symbol exp(-P) on their tensor grid."""

    n: int
    m: int
    nu: float
    rho: np.ndarray  # transverse radius nodes (also the axial frequency nodes)
    w_rho: np.ndarray  # radial weights times the Jacobian rho^(d-1)
    w_xi: np.ndarray  # axial frequency weights
    E: np.ndarray  # exp(-P) on the (rho, xi) grid
    pref: float


def _subordination_setup(op, axis):
    """Build once per profile; every angle and the error probe share it."""
    n, m = op.n, op.m
    d = n - 1
    nu = d / 2.0 - 1.0
    # frequency cutoff from the symbol floor on the sphere
    pmin = float(op.symbol(unit_directions(n, 256)).min())
    if pmin <= 0:
        raise InputError("operator is not elliptic; no homogeneous kernel exists")
    XI = (50.0 / pmin) ** (1.0 / (2 * m)) * 1.1
    x, w = np.polynomial.legendre.leggauss(480)
    rho = 0.5 * XI * (x + 1.0)
    wr = 0.5 * XI * w
    R, X = np.meshgrid(rho, rho, indexing="ij")
    E = np.exp(-_axis_symbol_2d(op, axis)(R, X))
    c_d = (2.0 * math.pi) ** (d / 2.0) / (2.0**nu * _gamma(nu + 1.0))
    pref = (2.0 * math.pi) ** (-n) * c_d * 2.0
    return _SubordinationSetup(n, m, nu, rho, wr * rho ** (d - 1), wr, E, pref)


def _subordination_alpha_profile(setup, alphas, rtol=1e-7):
    """F(theta) on rays at angles alpha from the symmetry axis."""
    n, m, nu, rho = setup.n, setup.m, setup.nu, setup.rho
    out = np.empty(len(alphas))
    block, npts = 10.0, 240
    xg, wg = np.polynomial.legendre.leggauss(npts)
    for ia, a in enumerate(alphas):
        sa, ca = math.sin(a), math.cos(a)
        total, u_lo = 0.0, 0.0
        for _ in range(12):
            u = u_lo + 0.5 * block * (xg + 1.0)
            wu = 0.5 * block * wg
            W = setup.w_rho[:, None] * _lam_kernel(nu, np.outer(rho, u) * sa)
            Gu = W.T @ setup.E
            cosz = np.cos(np.outer(u * ca, rho))
            H = setup.pref * (cosz * Gu * setup.w_xi[None, :]).sum(axis=1)
            piece = float(np.sum(wu * u ** (n - 2 * m - 1) * H) * 2 * m)
            total += piece
            u_lo += block
            if abs(piece) < rtol * max(abs(total), 1e-300) and u_lo >= 40.0:
                break
        out[ia] = total
    return out


# angles from the symmetry axis at which axisymmetric profiles are evaluated;
# a fully isotropic profile is evaluated at the middle one only
_ALPHAS = np.linspace(0.0, math.pi / 2.0, 121)


def _compute_subordination(op, axis, direction_count, isotropic):
    setup = _subordination_setup(op, axis)
    alphas = _ALPHAS[[len(_ALPHAS) // 2]] if isotropic else _ALPHAS
    f_alpha = _subordination_alpha_profile(setup, alphas)
    # error gauge: repeat the end and middle angles at a tighter tail tolerance
    probe_idx = np.unique([0, len(alphas) // 2, len(alphas) - 1])
    probe = _subordination_alpha_profile(setup, alphas[probe_idx], rtol=1e-9)
    est = 1.5 * float(np.max(np.abs(probe - f_alpha[probe_idx])))
    dirs = unit_directions(op.n, direction_count)
    if isotropic:
        return dirs, np.full(dirs.shape[0], f_alpha[0]), est, alphas, f_alpha
    ang = np.arccos(np.clip(np.abs(dirs[:, axis]), 0.0, 1.0))
    vals = np.interp(ang, alphas, f_alpha)
    return dirs, vals, est, alphas, f_alpha


# -- public entry -------------------------------------------------------------


def compute_profile(op, resolution=None, extrapolation_levels=2, backend="auto",
                    direction_count=None):
    """Sphere profile of the fundamental solution of an elliptic operator.

    resolution: per-axis node count of the fft box (defaults by dimension);
    extrapolation_levels: number of nested lattice shells used to strip the
    periodic background (2 removes the constant, 3 also removes the r^2 term).

    With backend "auto", n <= 4 and anisotropic symbols take the fft backend
    and rotation-invariant symbols in n >= 5 the subordination backend.  A
    fully isotropic symbol gives angular_model "constant"; under
    subordination its quadrature runs at one angle, pi/4, and that value
    fills every direction, with error_estimate from re-running the angle at a
    tighter tail tolerance.  An axisymmetric symbol gives angular_model
    "axisymmetric", interpolated from 121 angles.
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
        # the periodic box loses calibration accuracy beyond n = 4; rotation
        # symmetric symbols get the quadrature route there instead
        backend = "fft" if (n <= 4 or axis is None) else "subordination"
    if direction_count is None:
        direction_count = 2**10 if n <= 4 else 2**12

    if backend == "fft":
        if resolution is None:
            resolution = {1: 256, 2: 128, 3: 128, 4: 48, 5: 32}.get(n, 32)
        if extrapolation_levels == 2 and m > 1:
            extrapolation_levels = 3  # fit the mollifier correction term as well
        dirs, vals, est = _compute_fft(op, resolution, extrapolation_levels, direction_count)
        model, mdata = "general", {}
        if axis == n:
            model, mdata = "constant", {"constant": float(np.median(vals))}
        return SphereProfile(dirs, vals, 2 * m - n, op.name or "operator", "fft", est,
                             model, mdata)

    if backend == "subordination":
        if axis is None:
            raise UnsupportedRegimeError(
                "subordination backend needs a symbol that is rotation invariant "
                "about some coordinate axis"
            )
        use_axis = n - 1 if axis == n else axis
        dirs, vals, est, alphas, f_alpha = _compute_subordination(
            op, use_axis, direction_count, isotropic=axis == n)
        if axis == n:
            return SphereProfile(dirs, vals, 2 * m - n, op.name or "operator",
                                 "subordination", est, "constant",
                                 {"constant": float(f_alpha[0])})
        return SphereProfile(dirs, vals, 2 * m - n, op.name or "operator",
                             "subordination", est, "axisymmetric",
                             {"axis": use_axis, "alpha": alphas, "f_alpha": f_alpha})

    raise InputError(f"unknown backend {backend!r}")
