"""Quadratic energy forms on grid functions.

Three kinds are assembled:

  homogeneous      sum_{|a|=m} (m!/a!) ||d^a u||^2
  inhomogeneous    sum_{k<=m} sum_{|a|=k} (k!/a!) ||d^a u||^2
  operator         sum_{a,b} c[a,b] <d^a u, d^b u>

each |a| = k term scaled by h^(n-2k).  All three are positive semidefinite by
construction (the operator kind by ellipticity).  The multinomial weights
k!/alpha! make the gradient tensor norm rotation invariant.

With the half-offset odd stencils every axis gives (d^k)^T d^k = (-D2)^k, so
by the multinomial theorem the homogeneous form is exactly h^(n-2m) L^m on the
zero-extended lattice, L = -Delta_h the undivided (2n+1)-point Laplacian, the
inhomogeneous one is sum_k h^(n-2k) L^k, and the operator form of the
(-Delta)^m table is the homogeneous one.  These kinds keep the polynomial's
coefficients: `apply` runs Horner's rule with m Laplacian passes, in work
arrays from `workspace` that a caller such as the CG loop reuses, `tosparse`
sums powers of a sparse L, and the DST-I preconditioner of `solvers`
evaluates them (`dst_poly`) at the Dirichlet eigenvalues.  Any other
operator form is sum c[a,b] (d^a)^T d^b folded into one offset ->
coefficient table, applied by shifted slices.  Every kind has quad(u) ==
sum(u * apply(u)) and an exactly symmetric `tosparse`.

Two sums are only evaluated, never solved: the weighted-gradient (Hardy)
energy and the kernel-weighted operator energy

  sum_x  (sum_{a,b} c[a,b] d^(a+b) u)(x) * u(x) * F(x) h^(n-2m),

F the fundamental solution.  The latter carries no definiteness guarantee;
its sign is what the positivity module decides, channel by channel, and the
tests check the channels against these two sums.
"""

import numpy as np

from .errors import ConfigurationError, InputError
from .grids import Grid, axis_sum
from .operators import laplacian, multi_indices, multinomial, polyharmonic
from .stencils import (alpha_offsets, apply_alpha, apply_stencil, injection_matrix,
                       neg_laplacian, sparse_stencil)

_KINDS = ("homogeneous_m", "inhomogeneous_m", "operator_form")
# largest grid `tosparse` materializes
_SPARSE_MAX = 400_000


def _check_fits(grid, m):
    # widest per-axis stencil for order 2m spans m+1 nodes each way
    if grid.extent < 2 * m:
        raise ConfigurationError(
            f"grid extent {grid.extent} too small for order-{2*m} stencils; need >= {2*m}"
        )


def staggered_radii(grid, alpha):
    """Node radii shifted by h/2 along axes where alpha is odd.

    Odd-order differences live at half-offset points; evaluating radial
    weights there keeps weighted sums second-order accurate.
    """
    ax = grid.axis_coords()
    return np.sqrt(axis_sum([(ax + (0.5 * grid.h if a % 2 else 0.0)) ** 2 for a in alpha]))


def _fold(op, scale):
    """Offset table of scale * sum c[a,b] (d^a)^T d^b over the symmetric table.

    The stencil products of one pair are integers, so the offsets o and -o
    get bitwise equal coefficients and the table is exactly symmetric.
    """
    table = {}
    for (alpha, beta), v in op.coefficients.items():
        pair = {}
        # an off-diagonal entry stands for both (a, b) and (b, a)
        for left, right in {(alpha, beta), (beta, alpha)}:
            for p, a in alpha_offsets(left):
                for q, b in alpha_offsets(right):
                    o = tuple(j - i for i, j in zip(p, q))
                    pair[o] = pair.get(o, 0.0) + a * b
        for o, k in pair.items():
            table[o] = table.get(o, 0.0) + v * k
    return [(o, scale * c) for o, c in sorted(table.items()) if c != 0.0]


class EnergyForm:
    """Symmetric quadratic form over grid functions with zero extension.

    `poly` holds the coefficients of the form as a polynomial in -Delta_h
    (lowest degree first), or is None for an operator folded into a stencil
    table; so an operator form has a `poly` exactly when its operator is
    (-Delta)^m."""

    def __init__(self, kind, grid, m, op=None):
        if kind not in _KINDS:
            raise InputError(f"unknown energy kind {kind!r}")
        self.grid = grid
        self.m = m
        _check_fits(grid, m)
        n, h = grid.n, grid.h
        self.poly = self._stencil = None
        # m zero-extended Laplacian passes are exact on the grid padded by
        # m // 2: truncation at the padded faces first errs in pass pad + 2
        # and the error moves one node per pass
        self._pad = m // 2
        if kind == "inhomogeneous_m":
            self.poly = [h ** (n - 2 * k) for k in range(m + 1)]
        elif kind == "homogeneous_m" or op.coefficients == polyharmonic(n, m).coefficients:
            self.poly = [0.0] * m + [h ** (n - 2 * m)]
        else:
            self._stencil = _fold(op, h ** (n - 2 * m))
        # the polynomial in -Delta_h whose DST-I spectrum models the form in
        # the preconditioner of `solvers`: its own, else h^(n-2m) (-Delta_h)^m
        self.dst_poly = self.poly or [0.0] * m + [h ** (n - 2 * m)]

    def quad(self, u):
        """Energy value of u."""
        u = np.asarray(u, dtype=float)
        if u.shape != self.grid.shape:
            raise InputError("grid function shape does not match the grid")
        return float((u * self.apply(u)).sum())

    def workspace(self, shape):
        """Work arrays with which `apply` on grid functions of `shape` runs
        Horner's rule of a polynomial form without allocating; None for a
        folded stencil, whose apply allocates its result."""
        if self._stencil is not None:
            return None
        pad = self._pad
        # two Horner buffers, and the zero-padded argument when pad > 0
        return np.zeros((3 if pad else 2,) + tuple(s + 2 * pad for s in shape))

    def apply(self, u, work=None):
        """Matrix-free A u with quad(u) == sum(u * apply(u)).  Given work
        from workspace(u.shape), a polynomial form returns a view into it
        that the next call with the same work overwrites."""
        u = np.asarray(u, dtype=float)
        if self._stencil is not None:
            return apply_stencil(u, self._stencil)
        m, pad = self.m, self._pad
        out, buf, *padded = self.workspace(u.shape) if work is None else work
        inner = tuple(slice(pad, pad + s) for s in u.shape)
        up = u
        if pad:
            up = padded[0]
            up[inner] = u
        np.multiply(up, self.poly[m], out=out)
        for c in reversed(self.poly[:m]):
            out, buf = neg_laplacian(out, buf), out
            if c:
                out += np.multiply(up, c, out=buf)
        return out[inner]

    def reflection_invariant(self, axis):
        """Whether A commutes with the reflection x_axis -> -x_axis of the box:
        always for a polynomial in -Delta_h, for a folded stencil when
        negating the axis component of every offset maps the table to
        itself."""
        if self._stencil is None:
            return True
        table = dict(self._stencil)
        return all(table.get(o[:axis] + (-o[axis],) + o[axis + 1:]) == c
                   for o, c in self._stencil)

    def tosparse(self):
        """Materialize as a symmetric CSR matrix (small grids only)."""
        if self.grid.size > _SPARSE_MAX:
            raise ConfigurationError(
                f"grid has {self.grid.size} nodes; refusing to materialize above {_SPARSE_MAX}"
            )
        shape = self.grid.shape
        if self._stencil is not None:
            return sparse_stencil(shape, self._stencil)
        # the powers L^k P on the injected grid are exact integer matrices, so
        # P^T sum c_k L^k P is exactly symmetric
        pad = self._pad
        lap = sparse_stencil(tuple(s + 2 * pad for s in shape), _fold(laplacian(len(shape)), 1.0))
        P = injection_matrix(shape, pad)
        power, mat = P, 0.0
        for k, c in enumerate(self.poly):
            if k:
                power = lap @ power
            if c:
                mat = mat + c * power
        return (P.T @ mat).tocsr()


def weighted_gradient_parts(grid, m):
    """Parts (alpha, k!/alpha! h^(n-2k), w) of the weighted gradient sum
    sum_{1<=|alpha|=k<=m} c ||d^alpha u||^2 w on `grid`, one per multi-index,
    where w is |x|^(2k-n) at the staggered points of alpha and 0 at x = 0."""
    n, h = grid.n, grid.h
    for k in range(1, m + 1):
        for alpha in multi_indices(n, k):
            w = staggered_radii(grid, alpha)
            with np.errstate(divide="ignore"):
                w = np.where(w > 0, w ** (2 * k - n), 0.0)
            yield alpha, multinomial(alpha) * h ** (n - 2 * k), w


def hardy_weighted_energy(u, m, grid):
    """sum_{k=1..m} of the weighted gradient sums ||grad_k u|^2 |x|^(2k-n).

    The origin-adjacent values of u must vanish (the test class excludes the
    origin); the singular node itself carries zero weight.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != grid.shape:
        raise InputError("grid function shape does not match the grid")
    center = grid.origin_index()
    lo = tuple(c - 2 * m for c in center)
    hi = tuple(c + 2 * m + 1 for c in center)
    window = tuple(slice(max(a, 0), b) for a, b in zip(lo, hi))
    if np.any(u[window] != 0.0):
        raise InputError("u must vanish on the 2m-neighborhood of the origin node")
    _check_fits(grid, m)
    # the differences of the zero-extended u reach m nodes past the box
    padded = Grid(grid.n, grid.h, grid.extent + m)
    up = np.pad(u, m)
    total = 0.0
    for alpha, c, w in weighted_gradient_parts(padded, m):
        d = apply_alpha(up, alpha)
        total += c * float((d * d * w).sum())
    return float(total)


def weighted_operator_energy(u, op, grid, profile):
    """sum_x (sum_{a,b} c[a,b] d^(a+b) u)(x) u(x) F(x) h^(n-2m), the energy of
    u against the fundamental solution F of op, given as its SphereProfile.

    The differences are node centered, which decouples sublattices, so the
    sum is evaluated and never solved.  F is 0 at x = 0.
    """
    n, m, h = grid.n, op.m, grid.h
    if n <= 2 * m:
        raise InputError("the weighted form needs n > 2m")
    u = np.asarray(u, dtype=float)
    if u.shape != grid.shape:
        raise InputError("grid function shape does not match the grid")
    _check_fits(grid, m)
    # the operator in the integrand is (-1)^m sum a d^(alpha+beta), whose
    # symbol is the positive P
    sign = (-1.0) ** m
    lu = np.zeros_like(u)
    for (alpha, beta), v in op.coefficients.items():
        gamma = tuple(a + b for a, b in zip(alpha, beta))
        c = v if alpha == beta else 2.0 * v
        lu += sign * c * h ** (n - 2 * m) * apply_alpha(u, gamma, centered=True)
    return float((lu * u * profile.reconstruct(grid.coords())).sum())
