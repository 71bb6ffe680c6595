"""Uniform Cartesian grids, geometric regions, and node masks.

A Grid covers the box [-extent*h, extent*h]^n with nodes at integer multiples
of h; grid functions are ndarrays of shape grid.shape and are understood to
continue by zero outside the box.  Regions are geometric predicates that can
be rasterized to a Mask on any grid: one region yields its node set on each
per-scale grid and box size, and the homogeneous capacity of a node set
depends on the spacing only through h^(n-2m), which is what lets
annulus_series solve each distinct node set once.  A region is evaluated on
coordinate arrays, one per axis, that broadcast against each other, so a
grid rasterizes from its n axis vectors and never builds the N x n matrix of
its node coordinates.
"""

import csv as _csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, UnsupportedRegimeError


# the most nodes a Cartesian grid may have: 128 MiB per float64 grid function,
# refused before anything is allocated
MAX_NODES = 2**24


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [-extent*h, extent*h]^n with spacing h."""

    n: int
    h: float
    extent: int

    def __post_init__(self):
        if self.h <= 0:
            raise InputError("grid spacing must be positive")
        if self.extent < 1:
            raise InputError("grid extent must be at least 1")
        if self.size > MAX_NODES:
            raise UnsupportedRegimeError(
                f"Cartesian grid would have {self.size} nodes (limit {MAX_NODES:,})")

    @property
    def shape(self):
        return (2 * self.extent + 1,) * self.n

    @property
    def size(self):
        return (2 * self.extent + 1) ** self.n

    @property
    def box_radius(self):
        return self.extent * self.h

    def axis_coords(self):
        return self.h * np.arange(-self.extent, self.extent + 1)

    def coords(self):
        """Node coordinates, shape grid.shape + (n,)."""
        ax = self.axis_coords()
        mesh = np.meshgrid(*([ax] * self.n), indexing="ij")
        return np.stack(mesh, axis=-1)

    def axes(self):
        """The node coordinates as n arrays, axis a's vector along axis a,
        which broadcast against each other to grid.shape."""
        return axis_arrays([self.axis_coords()] * self.n)

    def radii(self):
        """Euclidean distance of every node from the origin."""
        return euclidean_norm(self.axes())

    def zeros(self):
        return np.zeros(self.shape)

    def origin_index(self):
        return (self.extent,) * self.n


def axis_arrays(vectors):
    """n 1-D vectors reshaped so that v_a lies along axis a of an n-d array."""
    n = len(vectors)
    return [v.reshape([-1 if k == a else 1 for k in range(n)]) for a, v in enumerate(vectors)]


def axis_sum(vectors):
    """The n-d array sum_a v_a[x_a] of n 1-D vectors, v_a along axis a."""
    return sum(axis_arrays(vectors))


def euclidean_norm(x):
    """sqrt(x_1^2 + ... + x_n^2) of coordinate arrays that broadcast against
    each other, summed in axis order: the order in which
    np.linalg.norm(points, axis=1) sums a row of fewer than 8 coordinates."""
    return np.sqrt(sum(xa * xa for xa in x))


def dilate(where, times=1):
    """Grow a boolean node array by `times` steps to axis neighbours.

    Nodes past the box faces count as outside, so nothing wraps around to the
    opposite face.
    """
    out = np.array(where, dtype=bool)
    for _ in range(times):
        grown = out.copy()
        for axis in range(out.ndim):
            lo = (slice(None),) * axis + (slice(None, -1),)
            hi = (slice(None),) * axis + (slice(1, None),)
            grown[lo] |= out[hi]
            grown[hi] |= out[lo]
        out = grown
    return out


class Mask:
    """A set of grid nodes (a compact set K or a closed complement)."""

    def __init__(self, grid, where, region=None):
        where = np.asarray(where, dtype=bool)
        if where.shape != grid.shape:
            raise InputError("mask shape does not match the grid")
        self.grid = grid
        self.where = where
        self.region = region

    @property
    def empty(self):
        return not self.where.any()

    def points(self):
        """Coordinates of the mask's nodes, one row each in C order."""
        return self.grid.axis_coords()[np.argwhere(self.where)]


def mask_from_csv(grid, path):
    """Load a node-list CSV (a header, then one coordinate row per node) as a
    mask; blank rows are skipped, and a row without n fields, a coordinate
    that is not a finite number or one more than 1e-9 max(h, 1) off the
    lattice is refused."""
    where = np.zeros(grid.shape, dtype=bool)
    with open(path, newline="") as fh:
        rows = [row for row in _csv.reader(fh) if row]
    if not rows:
        raise InputError(f"node list {path} has no header")
    for row in rows:
        if len(row) != grid.n:
            raise InputError(f"node list row {row} does not have the grid's {grid.n} fields")
    for row in rows[1:]:
        try:
            x = np.array([float(v) for v in row])
        except ValueError:
            raise InputError(f"node list row {row} holds a field that is not a number") from None
        if not np.all(np.isfinite(x)):
            raise InputError(f"node list row {row} holds a non-finite coordinate")
        idx = np.rint(x / grid.h)
        if np.any(np.abs(x - idx * grid.h) > 1e-9 * max(grid.h, 1.0)):
            raise InputError(f"point {x} is not a grid node")
        if np.any(np.abs(idx) > grid.extent):
            raise InputError(f"point {x} lies outside the grid box")
        where[tuple(idx.astype(int) + grid.extent)] = True
    return Mask(grid, where)


# -- geometric regions -------------------------------------------------------


class Region:
    """Geometric predicate on points given by their coordinate arrays."""

    def contains(self, x):
        """Membership of the points whose a-th coordinates are x[a]: x holds n
        arrays that broadcast against each other, and the result is a bool
        array that broadcasts to their common shape.  A point matrix P of
        shape (N, n) is passed as P.T."""
        raise NotImplementedError

    def mask(self, grid):
        inside = np.broadcast_to(self.contains(grid.axes()), grid.shape).copy()
        return Mask(grid, inside, region=self)


def as_mask(target, grid):
    """A Region rasterized on `grid`, or a Mask of `grid` itself."""
    if isinstance(target, Region):
        return target.mask(grid)
    if not isinstance(target, Mask):
        raise InputError(f"target must be a Mask or a Region, got {type(target).__name__}")
    if target.grid != grid:
        raise InputError("mask was rasterized on a different grid")
    return target


@dataclass(frozen=True)
class Ball(Region):
    radius: float
    center: tuple = ()

    def contains(self, x):
        c = self.center or (0.0,) * len(x)
        if len(c) != len(x):
            raise InputError(f"ball center {list(self.center)} is not a point in dimension "
                             f"{len(x)}")
        return euclidean_norm([xa - ca for xa, ca in zip(x, c)]) <= self.radius + 1e-12


@dataclass(frozen=True)
class Shell(Region):
    """Closed annulus inner <= |x| <= outer."""

    inner: float
    outer: float

    def contains(self, x):
        r = euclidean_norm(x)
        return (r >= self.inner - 1e-12) & (r <= self.outer + 1e-12)


@dataclass(frozen=True)
class Box(Region):
    """Axis-aligned box given by per-axis (lo, hi) bounds."""

    bounds: tuple

    def contains(self, x):
        if len(self.bounds) != len(x):
            raise InputError(f"box has {len(self.bounds)} bounds in dimension {len(x)}")
        ok = np.ones((), dtype=bool)
        for xa, (lo, hi) in zip(x, self.bounds):
            ok = ok & (xa >= lo - 1e-12) & (xa <= hi + 1e-12)
        return ok


@dataclass(frozen=True)
class Ray(Region):
    """The half-line x_axis <= 0, other coordinates 0 (a segment on any grid)."""

    axis: int = 0
    width: float = 0.0

    def contains(self, x):
        if not 0 <= self.axis < len(x):
            raise InputError(f"ray axis {self.axis} is not an axis in dimension {len(x)}")
        other = [xa for a, xa in enumerate(x) if a != self.axis]
        return (x[self.axis] <= 1e-12) & (euclidean_norm(other) <= self.width + 1e-12)


@dataclass(frozen=True)
class Cone(Region):
    """Solid cone around the negative last axis: -x_n >= |x| cos(half_angle)."""

    half_angle: float

    def contains(self, x):
        return -x[-1] >= euclidean_norm(x) * np.cos(self.half_angle) - 1e-12


@dataclass(frozen=True)
class Cusp(Region):
    """Region 0 <= x_n <= height, |x'| <= f(x_n), opening along +x_n.

    kind "power": f(t) = t**p, finite p >= 1; "exponential": f(t) =
    exp(-t**(-a)), finite a > 0; "tabulated": log-log interpolation over the
    positive entries of a (tau, f) table of a nondecreasing f.  The axis
    segment itself always belongs to the region, so rasterization degrades
    toward a segment when f drops below the grid spacing (the rasterized set
    is then thinner than the true cusp, never thicker).
    """

    kind: str
    param: float = float("nan")
    height: float = 1.0
    table: tuple = ()

    def __post_init__(self):
        if self.kind == "power":
            if not 1.0 <= self.param < np.inf:
                raise InputError("power profiles need a finite p >= 1 (p = 1 is the cone edge)")
        elif self.kind == "exponential":
            if not 0.0 < self.param < np.inf:
                raise InputError("exponential profiles need a finite a > 0")
        elif self.kind == "tabulated":
            if len(self.table) != 2:
                raise InputError("a tabulated profile needs a (tau, f) table")
            tau, f = (np.asarray(v, float) for v in self.table)
            if tau.ndim != 1 or tau.size < 4 or np.any(np.diff(tau) <= 0):
                raise InputError("table needs at least 4 strictly increasing abscissae")
            if np.any(f < 0) or f[-1] <= 0 or np.any(np.diff(f) < 0):
                raise InputError("profile values must be nonnegative, nondecreasing, "
                                 "and eventually positive")
        else:
            raise InputError(f"unknown cusp kind {self.kind!r}")

    @cached_property
    def _log_table(self):
        """(log tau, log f) over the positive entries of the table, taken on
        the first tabulated profile call and kept with the instance."""
        taus, fs = (np.asarray(v, float) for v in self.table)
        pos = fs > 0
        return np.log(taus[pos]), np.log(fs[pos])

    def profile(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "tabulated":
            return np.exp(np.interp(np.log(np.maximum(t, 1e-300)), *self._log_table))
        with np.errstate(divide="ignore", over="ignore"):
            if self.kind == "power":
                return np.where(t > 0, t**self.param, 0.0)
            s = np.power(t, -self.param, out=np.zeros_like(t), where=t > 0)
            return np.where(t > 0, np.exp(-s), 0.0)

    def contains(self, x):
        t = x[-1]
        width = self.profile(np.maximum(t, 0.0))
        inside = (t >= -1e-12) & (t <= self.height + 1e-12)
        return inside & (euclidean_norm(x[:-1]) <= width + 1e-12)


@dataclass(frozen=True)
class Union(Region):
    parts: tuple

    def contains(self, x):
        ok = np.zeros((), dtype=bool)
        for part in self.parts:
            ok = ok | part.contains(x)
        return ok


@dataclass(frozen=True)
class Intersection(Region):
    parts: tuple

    def contains(self, x):
        ok = np.ones((), dtype=bool)
        for part in self.parts:
            ok = ok & part.contains(x)
        return ok


def region_from_dict(data):
    """Region described in a run-configuration file."""
    kind = data.get("kind")
    if kind == "ball":
        return Ball(float(data["radius"]), tuple(data.get("center", ())))
    if kind == "shell":
        return Shell(float(data["inner"]), float(data["outer"]))
    if kind == "box":
        return Box(tuple(tuple(b) for b in data["bounds"]))
    if kind == "ray":
        return Ray(int(data.get("axis", 0)), float(data.get("width", 0.0)))
    if kind == "cone":
        return Cone(np.deg2rad(float(data["half_angle_deg"])))
    if kind == "cusp":
        return Cusp(data["cusp_kind"], float(data["param"]), float(data.get("height", 1.0)))
    if kind == "union":
        return Union(tuple(region_from_dict(p) for p in data["parts"]))
    if kind == "intersection":
        return Intersection(tuple(region_from_dict(p) for p in data["parts"]))
    raise InputError(f"unknown region kind {kind!r}")
