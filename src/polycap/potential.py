"""Capacitary potentials and their pointwise bounds.

The potential of a compact node set K minimizes the operator energy among
grid functions equal to 1 on K; its minimum is the capacity of K relative to
the operator.  The checks in this module probe the bounds that hold when the
operator is positive with the fundamental-solution weight: the value range
(0, 2) off K, decay of gradients in units of dist^(2m-n-j) times the
m-harmonic capacity, a dyadic maximal-function bound at the origin for sets
confined to an annulus, and a capacity lower bound.  The sign probe looks
for oscillation of U - 1 next to K; it is exploratory and never pass/fail,
since only the existence of some oscillating set is guaranteed, not of a
specific one.
"""

from dataclasses import dataclass, field

import numpy as np

from .capacity import cap_m
from .energy import EnergyForm
from .errors import InputError
from .fundsol import riesz_constant
from .grids import Mask, Region, dilate
from .operators import multi_indices, multinomial
from .solvers import solve_constrained
from .stencils import apply_alpha


@dataclass
class PotentialReport:
    operator_name: str
    m: int
    u: np.ndarray
    mask: Mask
    energy: float
    capacity_m: float
    range_off_mask: tuple
    solver: dict = field(default_factory=dict)

    def summary(self):
        grid = self.mask.grid
        return {
            "operator": self.operator_name,
            "m": self.m,
            "n": grid.n,
            "grid_h": grid.h,
            "grid_extent": grid.extent,
            "energy": self.energy,
            "capacity_m": self.capacity_m,
            "range_off_mask": list(self.range_off_mask),
            "iterations": self.solver.get("iterations"),
            "residual": self.solver.get("residual"),
        }


def gradient_magnitude(u, order, grid):
    """Tensor norm of the order-j gradient, node centered."""
    if order == 0:
        return np.abs(u)
    acc = np.zeros_like(u)
    for alpha in multi_indices(grid.n, order):
        d = apply_alpha(u, alpha, centered=True) / grid.h**order
        acc += multinomial(alpha) * d * d
    return np.sqrt(acc)


def capacitary_potential(op, target, grid, rtol=1e-8):
    """Minimize the operator energy with u = 1 on the target set."""
    if grid.n <= 2 * op.m:
        raise InputError("potentials need n > 2m")
    mask = target.mask(grid) if isinstance(target, Region) else target
    if mask.grid != grid:
        raise InputError("mask was rasterized on a different grid")
    if mask.empty:
        return PotentialReport(op.name, op.m, grid.zeros(), mask, 0.0, 0.0, (0.0, 0.0),
                               {"iterations": 0, "residual": 0.0})
    form = EnergyForm("operator_form", grid, op.m, op=op)
    u, info = solve_constrained(form, mask.where, 1.0, rtol=rtol)
    if form.poly is not None:
        capm = info["energy"]  # the operator form is the m-harmonic energy
    else:
        capm = cap_m(mask, op.m, grid, rtol=rtol).value
    off = ~mask.where
    rng = (float(u[off].min()), float(u[off].max())) if off.any() else (1.0, 1.0)
    return PotentialReport(op.name, op.m, u, mask, float(info["energy"]), float(capm), rng,
                           info)


def range_check(report, tol=1e-6):
    """0 < U < 2 off K, with a numerical margin.

    The bound describes the free-space potential.  Higher-order minimizers
    have no maximum principle, so the zero-extension edge sheds tiny negative
    lobes into the outermost box corners at coarse resolution; they shrink
    with the box and vanish in the reduced (radial) backends, whose domains
    are effectively unbounded.  The reported extrema make box effects visible
    rather than hiding them.
    """
    off = ~report.mask.where
    ax = report.mask.grid.axis_coords()
    u = report.u
    lo, hi = report.range_off_mask
    iflat = np.argmin(np.where(off, u, np.inf)), np.argmax(np.where(off, u, -np.inf))
    argmin, argmax = (ax[list(np.unravel_index(i, u.shape))].tolist() for i in iflat)
    return {
        "passed": bool(lo > -tol and hi < 2.0 + tol),
        "min": lo,
        "max": hi,
        "argmin": argmin,
        "argmax": argmax,
        "tol": tol,
    }


def _riesz_gradient_scale(m, n, order, r):
    """Tensor norm of the order-j gradient of the kernel constant * r^(2m-n)."""
    kappa = riesz_constant(m, n)
    a = 2 * m - n
    if order == 0:
        return kappa * r**a
    if order == 1:
        return kappa * abs(a) * r ** (a - 1)
    if order == 2:
        return kappa * abs(a) * np.sqrt((a - 1) ** 2 + (n - 1)) * r ** (a - 2)
    raise InputError("kernel gradient scale implemented for orders 0..2")


def gradient_decay_check(report, orders=(0, 1, 2), probe_radii=(2.0, 2.5, 3.0)):
    """Gradient decay ratios at probe shells, one grid spacing wide.

    For each probe node y the raw ratio |grad_j U(y)| dist(y,K)^(n+j-2m) / cap
    is recorded (its max over probes is the fitted constant of the decay
    bound), together with the same quantity in exact-kernel units, which is
    identically 1 for the ball in the second-order case and is what the
    oracle tests pin down.
    """
    from scipy.spatial import cKDTree

    grid = report.mask.grid
    ax = grid.axis_coords()
    radii = grid.radii()
    kpts = report.mask.points()
    tree = cKDTree(kpts)
    out = {"orders": {}, "skipped": []}
    safe = 2 * (2 * report.m // 2 + 1) * grid.h  # stencil clearance
    for j in orders:
        gj = gradient_magnitude(report.u, j, grid)
        rows = []
        for rho in probe_radii:
            shell = (np.abs(radii - rho) <= 0.5 * grid.h) & (~report.mask.where)
            if not shell.any():
                out["skipped"].append({"order": j, "radius": rho, "reason": "no shell nodes"})
                continue
            pts = ax[np.argwhere(shell)]
            dist = tree.query(pts)[0]
            ok = dist >= safe
            if not ok.any():
                out["skipped"].append({"order": j, "radius": rho, "reason": "too close to K"})
                continue
            vals = gj[shell][ok]
            dd = dist[ok]
            ratio = vals * dd ** (grid.n + j - 2 * report.m) / report.capacity_m
            riesz = vals / (report.capacity_m *
                            _riesz_gradient_scale(report.m, grid.n, j, np.linalg.norm(
                                pts[ok], axis=1)))
            rows.append({
                "radius": rho,
                "nodes": int(ok.sum()),
                "ratio_mean": float(ratio.mean()),
                "ratio_max": float(ratio.max()),
                "riesz_unit_mean": float(riesz.mean()),
                "riesz_unit_max": float(riesz.max()),
            })
        fitted = max((r["ratio_max"] for r in rows), default=float("nan"))
        out["orders"][j] = {"fitted_c": fitted, "probes": rows}
    return out


def maximal_bound_check(op, target, grid, theta, rho, orders=(0, 1)):
    """Dyadic maximal function of |grad_l U| at the origin for K inside the
    closed annulus between theta*rho and rho."""
    if not (0.0 < theta < 1.0):
        raise InputError("theta must lie in (0, 1)")
    mask = target.mask(grid) if isinstance(target, Region) else target
    if not mask.empty:
        r = np.linalg.norm(mask.points(), axis=1)
        if r.min() < theta * rho - 1e-9 or r.max() > rho + 1e-9:
            raise InputError("K is not contained in the prescribed annulus")
    report = capacitary_potential(op, mask, grid)
    radii = grid.radii()
    out = {"theta": theta, "rho": rho, "orders": {}, "capacity_m": report.capacity_m}
    for ell in orders:
        g = gradient_magnitude(report.u, ell, grid)
        best = 0.0
        r = grid.h * 2.0
        while r <= grid.box_radius:
            sel = radii <= r
            best = max(best, float(g[sel].mean()))
            r *= 2.0
        if report.capacity_m > 0:
            ratio = best * rho ** (grid.n + ell - 2 * report.m) / report.capacity_m
        else:
            ratio = 0.0
        out["orders"][ell] = {"maximal_value": best, "ratio": ratio}
    return out


def lower_bound_check(report, enclosing_radius, probe_radii=(2.0, 3.0)):
    """min over probes of U(y) (|y|+d)^(n-2m) / cap; positive when the
    operator is positive with the weight."""
    kpts = report.mask.points()
    if len(kpts) and np.linalg.norm(kpts, axis=1).max() > enclosing_radius + 1e-9:
        raise InputError("K is not contained in the stated enclosing ball")
    grid = report.mask.grid
    radii = grid.radii()
    rows = []
    for rho in probe_radii:
        shell = (np.abs(radii - rho) <= 0.5 * grid.h) & (~report.mask.where)
        if not shell.any():
            continue
        vals = report.u[shell]
        rr = radii[shell]
        ratio = vals * (rr + enclosing_radius) ** (grid.n - 2 * report.m) / report.capacity_m
        rows.append({"radius": rho, "ratio_min": float(ratio.min()),
                     "ratio_mean": float(ratio.mean())})
    worst = min((r["ratio_min"] for r in rows), default=float("nan"))
    return {"fitted_c": worst, "passed": bool(worst > 0.0), "probes": rows,
            "enclosing_radius": enclosing_radius}


# -- sign probe ---------------------------------------------------------------


def sign_probe(op, candidates, grid):
    """Sites adjacent to K where U - 1 takes both signs, beyond +-1e-10, in
    the 3^n window.

    candidates maps labels to masks or regions.  Absence of sites is not a
    failure; the oscillation is only guaranteed to occur for some compact
    set, not for any particular one.
    """
    results = {}
    for label, target in candidates.items():
        mask = target.mask(grid) if isinstance(target, Region) else target
        report = capacitary_potential(op, mask, grid)
        v = report.u - 1.0
        v[mask.where] = 0.0
        adjacent = dilate(mask.where) & ~mask.where
        sites = []
        idxs = np.argwhere(adjacent)
        points = grid.axis_coords()[idxs]
        for idx, point in zip(idxs, points):
            window = tuple(slice(max(i - 1, 0), i + 2) for i in idx)
            w = v[window]
            if w.min() < -1e-10 and w.max() > 1e-10:
                sites.append(point.tolist())
        results[label] = {
            "sites": sites,
            "site_count": len(sites),
            "u_range_off_K": list(report.range_off_mask),
            "capacity": report.energy,
        }
    return results


def stationarity_check(report, op):
    """First-order optimality of the computed minimizer: the energy gradient's
    norm on the free nodes over its whole norm, which the (nonzero) capacitary
    flux on the constrained nodes sets; 0 at the exact minimizer."""
    g = EnergyForm("operator_form", report.mask.grid, op.m, op=op).apply(report.u)
    denom = max(float(np.linalg.norm(g)), 1e-300)
    return float(np.linalg.norm(g[~report.mask.where]) / denom)

