"""Variational capacities of compact node sets and dyadic annulus series.

cap_m minimizes the order-m homogeneous gradient energy over grid functions
equal to 1 on the target set (with implicit zero extension outside the box);
the minimum is the capacity.  bessel_capacity minimizes the full order-m
Sobolev energy instead, a two-sided-comparable stand-in for the potential
theoretic capacity of order 2m; every consumer downstream only relies on
divergence or convergence of capacity series, which comparability preserves.

Box truncation biases capacities upward by a relative O((K/R_box)^(n-2m));
`box_levels=2` runs the box at two sizes and removes the leading term by
Richardson extrapolation in R^(2m-n), which is what makes desk-size boxes
reach percent-level accuracy.
"""

from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyForm
from .errors import InputError, UnsupportedRegimeError
from .grids import Ball, Cone, Cusp, Grid, Intersection, Mask, Ray, Region, Shell, Union
from .radial import AxisymGrid, axisym_capacity, axisym_energy_matrix
from .reporting import write_csv
from .solvers import solve_constrained

# annulus_series: the box radius of every per-scale grid, in units of rho
BOX_FACTOR = 3.0


def is_axisymmetric(region, n):
    """True when the region is a declared body of revolution about the last axis."""
    if isinstance(region, Ball):
        c = region.center
        return not c or all(v == 0.0 for v in c[:-1])
    if isinstance(region, (Shell, Cone, Cusp)):
        return True
    if isinstance(region, Ray):
        return region.axis == n - 1
    if isinstance(region, (Union, Intersection)):
        return all(is_axisymmetric(p, n) for p in region.parts)
    return False


@dataclass
class CapacityValue:
    value: float
    kind: str
    grid_h: float
    grid_extent: int
    refinement_estimate: float = float("nan")
    raw_values: dict = field(default_factory=dict)
    iterations: int = 0
    residual: float = 0.0  # final relative residual, the larger of two box solves


def _one_box(target, m, grid, kind, rtol):
    """Capacity of `kind` ("homogeneous" or "inhomogeneous") of a Mask or
    Region target on the one box of `grid`; returns (mask, CapacityValue).
    An empty set has capacity 0; a set within 2m spacings of the box
    boundary is refused."""
    if isinstance(target, Mask):
        if target.grid != grid:
            raise InputError("mask was rasterized on a different grid")
        mask = target
    elif isinstance(target, Region):
        mask = target.mask(grid)
    else:
        raise InputError("capacity target must be a Mask or a Region")
    if mask.empty:
        return mask, CapacityValue(0.0, kind, grid.h, grid.extent)
    if np.abs(mask.points()).max() > grid.box_radius - 2 * m * grid.h:
        raise InputError("target set reaches the box boundary; enlarge the extent")
    _, info = solve_constrained(EnergyForm(f"{kind}_m", grid, m), mask.where, 1.0, rtol=rtol)
    out = CapacityValue(float(info["energy"]), kind, grid.h, grid.extent, float("nan"),
                        {f"extent_{grid.extent}": info["energy"]}, info["iterations"],
                        info["residual"])
    return mask, out


def cap_m(target, m, grid, box_levels=1, rtol=1e-8):
    """Order-m homogeneous capacity of a compact node set.

    box_levels is 1 or 2.  With 2 the target region is re-rasterized on a box
    twice as large (same spacing) and the pair is extrapolated in R^(2m-n);
    this needs a Region target, a plain Mask cannot be re-rasterized.
    """
    n = grid.n
    if box_levels not in (1, 2):
        raise InputError(f"box_levels must be 1 or 2, got {box_levels!r}")
    if n <= 2 * m:
        raise UnsupportedRegimeError(
            f"homogeneous capacity needs n > 2m (got n={n}, m={m}); "
            "use bessel_capacity for the borderline dimension"
        )
    mask, out = _one_box(target, m, grid, "homogeneous", rtol)
    if box_levels == 2 and not mask.empty:
        if not isinstance(target, Region) and mask.region is None:
            raise InputError("box extrapolation needs a geometric region target")
        region = target if isinstance(target, Region) else mask.region
        big = _one_box(region, m, Grid(n, grid.h, 2 * grid.extent), "homogeneous", rtol)[1]
        out.raw_values.update(big.raw_values)
        # cap(R) ~ cap_inf + c R^(2m-n)
        weight = 2.0 ** (2 * m - n)
        extrapolated = (big.value - weight * out.value) / (1.0 - weight)
        out.refinement_estimate = abs(extrapolated - big.value)
        out.value, out.iterations = float(extrapolated), out.iterations + big.iterations
        out.residual = max(out.residual, big.residual)
    return out


def bessel_capacity(target, m, grid):
    """Inhomogeneous (full Sobolev-energy) capacity, the order-2m surrogate."""
    return _one_box(target, m, grid, "inhomogeneous", 1e-8)[1]


@dataclass
class AnnulusCapacitySeries:
    """Capacities of the closed ball slices B_rho \\ Omega of a complement
    region, one per scale rho, and in ball_capacity the same-pipeline capacity
    of the full ball B_rho, the natural normalizer for classifier thresholds.
    Scales whose slab or ball rasterizes to a node set met at an earlier scale
    carry that solve's value rescaled, not a fresh solve (see annulus_series).
    """

    m: int
    n: int
    j_range: tuple
    rho: list
    capacity: list
    ball_capacity: list
    kind: str
    metadata: dict = field(default_factory=dict)

    def weighted_terms(self):
        w = []
        for rho, c in zip(self.rho, self.capacity):
            w.append(c * rho ** (2 * self.m - self.n))
        return np.array(w)

    def normalized_terms(self):
        out = []
        for c, b in zip(self.capacity, self.ball_capacity):
            out.append(c / b if b > 0 else 0.0)
        return np.array(out)


def annulus_series(complement, m, n, j_range=(0, 8), backend="auto",
                   nodes_per_rho=12, rho_list=None):
    """Capacities of B_rho \\ Omega and of B_rho at dyadic scales rho = 2^-j.

    `complement` is the Region describing the closed complement of the domain.
    For n > 2m each scale has its own grid, a dilation of the first with
    nodes_per_rho nodes per rho and round(BOX_FACTOR * nodes_per_rho) across
    the box radius; backend "axisym" restricts to bodies of revolution but
    covers every dimension the classifier needs, "cartesian" is the general
    path.  For n = 2m the inhomogeneous surrogate is used on
    one global grid whose box stays at unit scale, since the borderline
    capacity is not dilation invariant.  A node set met at an earlier scale is
    not solved again: the homogeneous energies at spacing h are h^(n-2m) times
    one lattice form, so its stored capacity is scaled by (h/h0)^(n-2m), a
    power of two for dyadic scales and 1 on the global grid.  For the same
    reason the (r, z) energy matrix is assembled once per series and scaled
    by (h/h0)^(n-2m) for every solve, which on dyadic scales is bitwise the
    matrix a fresh assembly would give.  On that backend metadata["solver"]
    holds, per scale, the (r, z) solver reports {"iterations", "residual",
    "levels"} of the slab and the ball, each that of the solve that gave its
    value.  rho_list overrides the dyadic 2^-j scales.  A Cartesian grid of
    more than 3,000,000 nodes, per scale or global, is refused with
    UnsupportedRegimeError.
    """
    if backend not in ("auto", "axisym", "cartesian"):
        raise InputError(f"unknown backend {backend!r}; have auto, axisym, cartesian")
    if nodes_per_rho < 1:
        raise InputError("the series needs nodes_per_rho >= 1")
    j0, j1 = j_range
    if rho_list is not None:
        rho_values = [float(v) for v in rho_list]
        j_range = (0, len(rho_values) - 1)
    else:
        if j1 < j0:
            raise InputError("empty scale range")
        rho_values = [2.0 ** (-j) for j in range(j0, j1 + 1)]
    if any(b >= a for a, b in zip(rho_values, rho_values[1:])):
        raise InputError("scales must be strictly decreasing")
    kind = "inhomogeneous" if n == 2 * m else "homogeneous"
    meta = {"backend": backend, "nodes_per_rho": nodes_per_rho, "box_factor": BOX_FACTOR,
            "node_counts": []}
    use_axisym = False
    if n == 2 * m:
        # one global grid, box at the unit scale, resolve the finest scale
        h = min(rho_values) / max(4, nodes_per_rho // 2)
        extent = int(round(2.0 * max(rho_values) / h))
    else:
        use_axisym = backend == "axisym" or (
            backend == "auto" and n >= 3 and m <= 2 and is_axisymmetric(complement, n)
        )
        if backend == "axisym" and not is_axisymmetric(complement, n):
            raise InputError("the axisymmetric backend needs a body of revolution about the "
                             "last axis")
        if use_axisym and m > 2:
            raise UnsupportedRegimeError("axisymmetric backend supports m <= 2")
        extent = int(round(BOX_FACTOR * nodes_per_rho))
        meta["backend"] = "axisym" if use_axisym else "cartesian"
        meta["resolved"] = []
        if use_axisym:
            meta["solver"] = []
    if not use_axisym and (2 * extent + 1) ** n > 3_000_000:
        hint = ""
        if n == 2 * m:
            hint = " or the scale range"
        elif m <= 2 and is_axisymmetric(complement, n):
            hint = " or use the axisymmetric backend"
        raise UnsupportedRegimeError(
            f"Cartesian grid would have {(2*extent+1)**n} nodes (limit 3,000,000); "
            f"reduce nodes_per_rho{hint}")

    def _resolvable(region, rho, h):
        # a cusp thinner than the spacing rasterizes to the bare axis needle;
        # such scales are recorded as truncated rather than trusted
        if isinstance(region, Cusp):
            return bool(region.profile(min(rho, region.height)) >= h)
        if isinstance(region, (Union, Intersection)):
            return all(_resolvable(p, rho, h) for p in region.parts)
        return True

    # (shape, packed node mask) -> (capacity, spacing it was solved at, (r, z) solver report)
    solved = {}
    if use_axisym:
        # every scale's (r, z) grid is a dilation of the first one
        h_first = rho_values[0] / nodes_per_rho
        A_first = axisym_energy_matrix(AxisymGrid(n, h_first, extent, extent), m)

    def _capacity(region, grid):
        nodes = grid.mask_from_region(region) if use_axisym else region.mask(grid).where
        key = (nodes.shape, np.packbits(nodes).tobytes())
        if key not in solved:
            report = {}
            if use_axisym:
                value = axisym_capacity(nodes, m, n, grid.h, extent * grid.h,
                                        energy=A_first * (grid.h / h_first) ** (n - 2 * m),
                                        info=report)[0]
            else:
                solve = bessel_capacity if n == 2 * m else cap_m
                value = solve(Mask(grid, nodes), m, grid).value
            solved[key] = (value, grid.h, report)
        value, h0, report = solved[key]
        return value * (grid.h / h0) ** (n - 2 * m), nodes, report

    caps, balls = [], []
    for rho in rho_values:
        if n != 2 * m:
            h = rho / nodes_per_rho
            meta["resolved"].append(_resolvable(complement, rho, h))
        grid = AxisymGrid(n, h, extent, extent) if use_axisym else Grid(n, h, extent)
        cap, nodes, slab = _capacity(Intersection((complement, Ball(rho))), grid)
        ball, _, ball_report = _capacity(Ball(rho), grid)
        caps.append(cap)
        balls.append(ball)
        meta["node_counts"].append(int(nodes.sum()))
        if use_axisym:
            meta["solver"].append({"slab": slab, "ball": ball_report})
    return AnnulusCapacitySeries(m, n, j_range, rho_values, caps, balls, kind, meta)


def series_to_csv(series, path):
    """One row per scale: j, rho, capacity, weighted term and partial sum."""
    weighted = series.weighted_terms()
    write_csv(path, ["j", "rho", "capacity", "weighted_term", "partial_sum"],
              np.column_stack([np.arange(series.j_range[0], series.j_range[1] + 1), series.rho,
                               series.capacity, weighted, np.cumsum(weighted)]))
