"""Reduced solvers for rotation-symmetric problems.

Two reductions of the polyharmonic energy are provided:

* a one-dimensional radial solver for fully radial targets (balls and shells
  centered at the origin) in any dimension, valid for every half-order m,
  built on the identity  integral |D^m u|^2 dx = integral ((-Delta)^(m/2) u)^2
  (even m) or |grad (-Delta)^((m-1)/2) u|^2 (odd m) for compactly supported u;

* a two-dimensional (r, z) solver for bodies of revolution about the last
  axis, for m = 1 and m = 2 in n >= 3 (the one reach rule `axisym_refusal`),
  using the cylindrical form of the gradient and Hessian tensor norms.

Both use a staggered radial grid r_i = (i + 1/2) h with even reflection at
the axis, so the singular weight never hits a node.  Every difference
operator is built from two 1-D integer matrices, the face differences of
`_face_differences`: F along r, with rows at the N faces (i + 1) h off the
axis (the outer one seeing the zero exterior), and Fz along z, with both
outer faces.  The axis face carries the weight 0^(n-1) = 0, so it has no
row.  The second differences are -F^T F, whose first row is the even axis
ghost u_(-1) = u_0, and -Fz^T Fz; each enters an energy squared, so its sign
is dropped.  The radial Laplacian is the conservative F^T diag(face^(n-1)) F
over the node weights r^(n-1), and the 1-D energy is core^T diag(w) core
with core its (m // 2)-th power, times F / h for odd m.  Every weight of the
(r, z) energy depends on r alone, so each of its terms factors as
kron(D_r^T diag(w) D_r, D_z^T D_z) (Van Loan, J. Comput. Appl. Math. 123,
2000): the energy is assembled from 1-D products, two Kronecker products for
m = 1 and three for m = 2, never from 2-D difference operators.
These backends exist because Cartesian boxes in dimensions 6, 7, 8 are out
of reach at any useful resolution; they are validated against the Cartesian
path in dimensions 3 and 5 by the test suite.

The (r, z) free block is symmetric positive definite.  Up to _COARSE_MAX
unknowns it is factorised directly; larger blocks are solved in O(N) work
by conjugate gradients preconditioned with one V-cycle of a geometric
Galerkin hierarchy (Brandt, Math. Comp. 31, 1977).  Its interpolation is the
Kronecker product of linear interpolation between the staggered r-cells of
widths 2h and h (even at the axis, zero beyond the box) and between z-nodes
2J and 2J + 1; a coarse node is free when the fine node (2I, 2J) it injects
to is free, which keeps each coarse Galerkin matrix P^T A P definite at the
tips of the fixed set.  The smoother is l1-Jacobi (Baker, Falgout, Kolev &
Yang, SIAM J. Sci. Comput. 33, 2011): Jacobi with the row sums of |A| as the
diagonal, which has no parameter and converges for every SPD matrix.  Each
level holds A, the inverse l1 row sums and P; P^T is built only to form
P^T A P.  The direct factorisation, of a small block or of the coarsest level, is
SuperLU's symmetric mode: an ordering of A + A^T, pivots on the diagonal.

scipy.sparse is imported by the functions that use it, so importing polycap
loads no scipy module and only a run that reaches these solvers pays for it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError, UnsupportedRegimeError
from .grids import Ball, Cone, Cusp, Intersection, Ray, Shell, Union
from .solvers import _pcg

# (r, z) free blocks of up to this many unknowns are factorised directly, and
# larger ones are coarsened down to it: the LU / multigrid crossover measured
# in CHANGES.md
_COARSE_MAX = 3000
# CG on the larger blocks stops at ||r|| <= _CG_RTOL ||b||, with r CG's
# recursive residual.  The capacity potentials of the four test_radial probe
# problems (h = 1/128) end 7.3e-11, 9.5e-10, 4.0e-11 and 8.6e-11 from a direct
# solve, their Dirichlet solves 7.3e-13 to 3.7e-11.  _solve_free checks the
# true residual against 2 max(_CG_RTOL, floor), with floor = eps ||A||_inf
# ||x||_inf / ||b||_inf: for m = 2 the true residual stops at a rounding
# floor that grows about 16x per halving of h, so the (2,5) cone and (2,6)
# exponential cusp probes end at 8e-9 and 1.4e-8 at h = 1/256, above the
# tolerance and below their floors.  The factor 2 is headroom for the drift
# of the recursive residual that stops CG from the true one, which differs
# between hosts and BLAS thread counts.  Over the 223 (r, z) solves of the
# tier-1 tests and the benchmark operations, run at 1 and at 2 BLAS threads,
# the largest ratio of true residual to that bound is 0.479: an m = 2 series
# solve on 96 x 193 nodes that ends at 9.6e-11.  A stalled CG, stopped at a
# residual of 1e-4, is far above it.  The largest problems measured need
# about 60 iterations
_CG_RTOL = 1e-10
_CG_MAXITER = 300
# _hierarchy forms each coarse matrix this many coarse rows at a time
_GALERKIN_ROWS = 4096


def sphere_surface(n):
    """Surface measure of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# -- 1-D radial ---------------------------------------------------------------


@dataclass(frozen=True)
class RadialGrid:
    n: int
    h: float
    nodes: int

    @property
    def r(self):
        return self.h * (np.arange(self.nodes) + 0.5)

    @property
    def faces(self):
        # the N faces off the axis: face j sits between nodes j - 1 and j at radius j h
        return self.h * np.arange(1, self.nodes + 1)


def _face_differences(Nr, Nz=None):
    """F: u_(i+1) - u_i at the r-faces (i + 1) h, i < Nr, with u_Nr = 0
    outside; with Nz also Fz: u_j - u_(j-1) at the z-faces j = 0..Nz, both
    outer faces against the zero exterior."""
    from scipy.sparse import diags

    F = diags([-1.0, 1.0], [0, 1], shape=(Nr, Nr), format="csr")
    if Nz is None:
        return F
    return F, diags([1.0, -1.0], [0, -1], shape=(Nz + 1, Nz), format="csr")


def radial_energy_matrix(m, rg):
    """Sparse matrix of the order-m homogeneous energy for radial functions:
    core^T diag(w) core, with core the (m // 2)-th power of the conservative
    radial Laplacian, times F / h for odd m, and w = omega h r^(n-1) at the
    nodes, or at the faces for odd m."""
    from scipy.sparse import diags, identity

    n, h = rg.n, rg.h
    F = _face_differences(rg.nodes)
    flux = F.T @ diags(rg.faces ** (n - 1)) @ F
    lap = (diags(-1.0 / (h * h * rg.r ** (n - 1))) @ flux).tocsr()
    core = identity(rg.nodes, format="csr")
    for _ in range(m // 2):
        core = lap @ core
    radii = rg.r
    if m % 2:
        core, radii = (F / h) @ core, rg.faces
    w = diags(radii ** (n - 1)) * (sphere_surface(n) * h)
    return (core.T @ w @ core).tocsr()


def ball_potential_exact(m, n, ball_radius=1.0):
    """Closed-form capacitary potential of a centered ball for (-Delta)^m.

    Outside the ball the minimizer is a combination of the decaying powers
    r^(2m-n-2j), j = 0..m-1, matched so that u and its first m-1 radial
    derivatives are continuous at the surface (u is identically 1 inside).
    Returns (coeffs, exponents, capacity); evaluate with
    ``evaluate_ball_potential``.
    """
    if n <= 2 * m:
        raise UnsupportedRegimeError(f"ball potential needs n > 2m, got n={n}, m={m}")
    R = float(ball_radius)
    exps = np.array([2 * m - n - 2 * j for j in range(m)], dtype=float)
    # u^(k)(R) = delta_{k0}: row k holds the k-th derivative of each power at
    # R, its powers taken one by one (the vectorised pow can round otherwise)
    V = np.zeros((m, m))
    for k in range(m):
        c, e = _power_sum_derivative(np.ones(m), exps, k)
        V[k] = c * [R**x for x in e]
    rhs = np.zeros(m)
    rhs[0] = 1.0
    coeffs = np.linalg.solve(V, rhs)
    cap = _ball_energy_exact(m, n, coeffs, exps, R)
    return coeffs, exps, cap


def _power_sum_derivative(coeffs, exps, order=1):
    c = np.array(coeffs, dtype=float)
    e = np.array(exps, dtype=float)
    for _ in range(order):
        c = c * e
        e = e - 1.0
    return c, e


def _ball_energy_exact(m, n, coeffs, exps, R):
    """Exact order-m gradient energy of the matched power-sum potential."""
    c, e = np.array(coeffs, float), np.array(exps, float)
    # apply Delta (m//2 times), then the radial gradient if m is odd
    for _ in range(m // 2):
        # Delta r^e = e (e + n - 2) r^(e-2) on radial functions
        c = c * e * (e + n - 2.0)
        e = e - 2.0
    if m % 2:
        c, e = _power_sum_derivative(c, e)
    # integral over r > R of (sum c r^e)^2 r^(n-1) dr, term by term
    total = 0.0
    for ci, ei in zip(c, e):
        for cj, ej in zip(c, e):
            p = ei + ej + n - 1.0
            # after the m derivatives every exponent is at most m - n, so
            # p <= 2m - n - 1 < -1 because n > 2m: each term converges
            total += ci * cj * R ** (p + 1.0) / (-(p + 1.0))
    return sphere_surface(n) * total


def evaluate_ball_potential(m, n, ball_radius, r):
    """U(r) of the centered-ball capacitary potential, exact formula."""
    coeffs, exps, _ = ball_potential_exact(m, n, ball_radius)
    r = np.asarray(r, dtype=float)
    out = np.ones_like(r)
    outside = r > ball_radius
    ro = r[outside]
    acc = np.zeros_like(ro)
    for c, e in zip(coeffs, exps):
        acc += c * ro**e
    out[outside] = acc
    return out


def radial_ball_potential(m, n, ball_radius, h, box):
    """Capacitary potential and capacity of a centered ball via the 1-D solver
    on nodes of spacing h out to radius box.

    Returns (rgrid, u, capacity).  Supported for m <= 2; the order-6 radial
    system is too ill-conditioned in double precision for a trustworthy
    discrete minimizer, so higher m should use ``ball_potential_exact``.
    """
    from scipy.sparse import diags
    from scipy.sparse.linalg import splu

    if n <= 2 * m:
        raise UnsupportedRegimeError(f"radial potential needs n > 2m, got n={n}, m={m}")
    if m > 2:
        raise UnsupportedRegimeError(
            "finite-difference radial solve is limited to m <= 2; "
            "use ball_potential_exact for higher orders"
        )
    rg = RadialGrid(n, h, int(round(box / h)))
    A = radial_energy_matrix(m, rg)
    fixed = rg.r <= ball_radius
    if not fixed.any():
        raise InputError("ball radius below grid resolution")
    free = ~fixed
    u = np.zeros(rg.nodes)
    u[fixed] = 1.0
    rhs = -(A @ u)[free]
    Aff = A[free][:, free].tocsc()
    # symmetric equilibration keeps the direct solve stable under the r^(n-1) weights
    d = np.sqrt(Aff.diagonal())
    Dm = diags(1.0 / d)
    u[free] = (splu((Dm @ Aff @ Dm).tocsc()).solve(rhs / d)) / d
    cap = float(u @ (A @ u))
    return rg, u, cap


# -- 2-D axisymmetric ---------------------------------------------------------


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


def axisym_refusal(m, n, region=None):
    """Why the (r, z) grid cannot hold the order-m problem in R^n on
    `region`, or None when it can.  This is the one reach rule of the (r, z)
    grid: the energy of m = 1 and m = 2, in n >= 3, on bodies of revolution
    about the last axis; a region of None is not tested."""
    if m not in (1, 2):
        return f"the (r, z) grid holds m = 1 and m = 2, not m = {m}"
    if n < 3:
        return f"the (r, z) reduction needs n >= 3, not n = {n}"
    if region is not None and not is_axisymmetric(region, n):
        return "the (r, z) grid needs a body of revolution about the last axis"
    return None


@dataclass(frozen=True)
class AxisymGrid:
    """Half-plane grid: r staggered at (i+1/2)h, z node-centered on [-Z, Z]."""

    n: int
    h: float
    r_nodes: int
    z_extent: int

    @property
    def shape(self):
        return (self.r_nodes, 2 * self.z_extent + 1)

    @property
    def r(self):
        return self.h * (np.arange(self.r_nodes) + 0.5)

    @property
    def z(self):
        return self.h * np.arange(-self.z_extent, self.z_extent + 1)

    def mask_from_region(self, region):
        """Rasterize a body of revolution; the first column also samples the
        axis itself, so sets thinner than the staggering stay visible."""
        r, z, zero = self.r[:, None], self.z[None, :], np.zeros((1, 1))
        inside = np.zeros(self.shape, dtype=bool)
        inside |= region.contains([r] + [zero] * (self.n - 2) + [z])
        inside[:1] |= region.contains([zero] * (self.n - 1) + [z])
        return inside


def _cell_measure(ag):
    """omega_(n-2) h^2 r^(n-2) per r-row: the measure of an (r, z) cell."""
    return sphere_surface(ag.n - 1) * ag.h * ag.h * ag.r ** (ag.n - 2)


def axisym_energy_matrix(ag, m):
    """Sparse matrix A with u^T A u = integral |D^m u|^2 in cylindrical form.

    The energy is taken over the measure omega_(n-2) r^(n-2) dr dz, each
    squared difference weighted by omega_(n-2) h^2 r^(n-2) at the radius where
    it sits:
      m = 1: u_r at the r-faces and u_z at the z-faces;
      m = 2: u_rr and u_zz at the nodes, 2 u_rz^2 at the (r-face, z-face)
             corners and (n - 2) (u_r / r)^2 at the r-faces.
    Every weight depends on r alone, so each term (D_r x D_z)^T (diag(w) x I)
    (D_r x D_z) is the Kronecker product of D_r^T diag(w) D_r, which carries
    the weight and all powers of 1/h, with the integer D_z^T D_z.  Rows are
    r-major: node (i, j) is row i * Nz + j.  The entries of each D_r are one
    power of 1/h times integers, so every factor, and with it A, is exactly
    symmetric.
    """
    from scipy.sparse import diags, identity, kron

    reason = axisym_refusal(m, ag.n)
    if reason is not None:
        raise UnsupportedRegimeError(reason)
    Nr, Nz = ag.shape
    n, h = ag.n, ag.h
    meas = sphere_surface(n - 1) * h * h
    rface = (np.arange(Nr) + 1.0) * h
    cell = _cell_measure(ag)
    F, Fz = _face_differences(Nr, Nz)
    I, Dzz = identity(Nr, format="csr"), Fz.T @ Fz

    def r_factor(D, w):
        return D.T @ diags(w) @ D

    if m == 1:
        terms = [(r_factor(F / h, meas * rface ** (n - 2)), identity(Nz)),
                 (r_factor(I / h, cell), Dzz)]
    else:
        h2 = h * h
        terms = [(r_factor(F.T @ F / h2, cell)
                  + r_factor(F / h, (n - 2.0) * meas * rface ** (n - 4)), identity(Nz)),
                 (r_factor(I / h2, cell), Dzz.T @ Dzz),
                 (r_factor(F / h2, 2.0 * meas * rface ** (n - 2)), Dzz)]
    A = kron(*terms[0], format="csr")
    for R, Z in terms[1:]:
        A = A + kron(R, Z, format="csr")
    return A


def _staggered_interpolation(N):
    """Linear interpolation from r-cells of width 2h to those of width h: fine
    cells 2I and 2I + 1 take 3/4 of coarse cell I and 1/4 of their other
    coarse neighbour; the even ghost of cell 0 is cell 0, and the exterior
    is zero.  Column I is column 2I of the banded fine stencil."""
    from scipy.sparse import diags

    main = np.full(N, 0.75)
    main[0] = 1.0
    return diags([0.25, 0.75, main, 0.25], [-2, -1, 0, 1], shape=(N, N), format="csc")[:, ::2]


def _nodal_interpolation(N):
    """Linear interpolation from every other z-node: fine node 2J is coarse
    node J, fine node 2J + 1 the mean of J and J + 1, zero outside."""
    from scipy.sparse import diags

    return diags([0.5, 1.0, 0.5], [-1, 0, 1], shape=(N, N), format="csc")[:, ::2]


def _l1_row_sums(A):
    """The sums of |a_ij| along each row of a CSR matrix without empty rows."""
    return np.add.reduceat(np.abs(A.data), A.indptr[:-1])


def _hierarchy(A, free, shape):
    """Galerkin levels (A, 1 / l1 row sums, P) of the free block A down to at
    most _COARSE_MAX unknowns, and the LU factor of the coarsest.  P^T is
    built only to form P^T A P, _GALERKIN_ROWS coarse rows at a time (each
    block (P^T A) P is the same rows of the whole product, bitwise), so
    neither it nor the product P^T A is held by the hierarchy."""
    from scipy.sparse import kron, vstack
    from scipy.sparse.linalg import splu

    levels = []
    # the interpolation stencils need at least three nodes on each axis
    while free.sum() > _COARSE_MAX and min(shape) > 2:
        Nr, Nz = shape
        shape = ((Nr + 1) // 2, (Nz + 1) // 2)
        coarse_free = free.reshape(Nr, Nz)[::2, ::2].ravel()
        P = kron(_staggered_interpolation(Nr), _nodal_interpolation(Nz), format="csr")
        P = P[free][:, coarse_free]
        # a product leaves each row in fill order; every level's matvecs sum
        # its rows in column order
        A.sort_indices()
        levels.append((A, 1.0 / _l1_row_sums(A), P))
        PT = P.T.tocsr()
        A = vstack([(PT[k:k + _GALERKIN_ROWS] @ A) @ P
                    for k in range(0, PT.shape[0], _GALERKIN_ROWS)], format="csr")
        free = coarse_free
    lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options=dict(SymmetricMode=True))
    return levels, lu


def _l1_sweep(A, dinv, b, x):
    """One l1-Jacobi sweep x += D^-1 (b - A x), in place."""
    r = A @ x
    np.subtract(b, r, out=r)
    r *= dinv
    x += r


def _vcycle(levels, lu, b, k=0):
    """One symmetric V-cycle for the level-k system from a zero start: two
    l1-Jacobi sweeps before and two after the coarse correction, which
    restricts with P^T = P.T, the LU solve on the coarsest level.  A module
    function, not a closure over the hierarchy, so the levels are freed as
    soon as their solve returns."""
    if k == len(levels):
        return lu.solve(b)
    A, dinv, P = levels[k]
    x = dinv * b
    _l1_sweep(A, dinv, b, x)
    r = A @ x
    np.subtract(b, r, out=r)
    x += P @ _vcycle(levels, lu, P.T @ r, k + 1)
    _l1_sweep(A, dinv, b, x)
    _l1_sweep(A, dinv, b, x)
    return x


def _solve_free(A, b, shape, free):
    """Solve the free block A x = b of the nodes `free` of the r-major grid
    `shape`; returns x and the solver's report {"iterations", "residual",
    "floor", "levels"}, with the true relative residual ||b - A x|| / ||b||
    and its rounding floor eps ||A||_inf ||x||_inf / ||b||_inf.  A block
    of at most _COARSE_MAX unknowns is solved by its LU factor alone (0
    iterations, 0 levels).  A larger one starts from the V-cycle of b and
    runs CG with one V-cycle per iteration to ||r|| <= _CG_RTOL ||b||.
    ConvergenceError after _CG_MAXITER iterations, or when the true residual
    exceeds 2 max(_CG_RTOL, floor)."""
    levels, lu = _hierarchy(A, free, shape)
    scale = float(np.linalg.norm(b))
    iterations = 0
    if levels:
        x = _vcycle(levels, lu, b)
        iterations = _pcg(A.dot, lambda v: _vcycle(levels, lu, v), x, b - A @ x, _CG_RTOL,
                          scale, _CG_MAXITER)
        # ||A||_inf is the largest l1 row sum, whose inverses the finest level holds
        norm = 1.0 / float(levels[0][1].min())
    else:
        x = lu.solve(b)
        norm = float(_l1_row_sums(A).max())
    residual = float(np.linalg.norm(b - A @ x)) / max(scale, 1e-300)
    floor = float(np.finfo(float).eps * norm * np.abs(x).max(initial=0.0)
                  / max(np.abs(b).max(initial=0.0), 1e-300))
    if residual > 2 * max(_CG_RTOL, floor):
        raise ConvergenceError(f"(r, z) solve ended at a true residual {residual:.3g} above "
                               f"both the tolerance {_CG_RTOL:g} and its floor {floor:.3g} "
                               "by more than a factor 2")
    return x, {"iterations": iterations, "residual": residual, "floor": floor,
               "levels": len(levels)}


def axisym_capacity(region, m, n, h, r_box, *, energy=None, info=None):
    """Variational capacity of a body of revolution (or of its boolean node
    mask on the grid) on an (r, z) grid, with the order-m gradient energy;
    returns (capacity, grid, potential).  `energy` is the grid's
    axisym_energy_matrix when the caller already has it (annulus_series
    scales one assembly to every scale); None assembles it here.  A dict
    passed as `info` receives the solver's report (see _solve_free); an
    empty target is no solve, 0 iterations and 0 levels.  A problem that
    axisym_refusal turns away raises UnsupportedRegimeError."""
    is_mask = isinstance(region, np.ndarray)
    reason = axisym_refusal(m, n, None if is_mask else region)
    if reason is not None:
        raise UnsupportedRegimeError(reason)
    ag = AxisymGrid(n, h, int(round(r_box / h)), int(round(r_box / h)))
    fixed = np.asarray(region, dtype=bool) if is_mask else ag.mask_from_region(region)
    if fixed.shape != ag.shape:
        raise InputError("node mask does not match the (r, z) grid")
    report = {"iterations": 0, "residual": 0.0, "floor": 0.0, "levels": 0}
    if not fixed.any():
        cap, u = 0.0, np.zeros(ag.shape)
    else:
        A = axisym_energy_matrix(ag, m) if energy is None else energy
        if A.shape != (fixed.size, fixed.size):
            raise InputError("energy matrix does not match the (r, z) grid")
        free = ~fixed.ravel()
        u = fixed.ravel().astype(float)
        u[free], report = _solve_free(A[free][:, free], (-(A @ u))[free], ag.shape, free)
        cap = float(u @ (A @ u))
    if info is not None:
        info.update(report)
    return cap, ag, u.reshape(ag.shape)


def axisym_dirichlet(op_m, n, omega_fixed, source, ag, *, info=None):
    """Dirichlet solve on the (r, z) half-plane grid.

    omega_fixed is the boolean array of nodes constrained to zero (the
    complement of the domain), source the nodal source density; returns u,
    and a dict passed as `info` receives the solver's report (see
    _solve_free).  The variational system uses the axisymmetric order-m
    energy and the weighted cell measure for the source pairing.  Only the
    free block of the energy is kept through the solve.  The vectors that
    outlive the assembly are allocated before it, so the hierarchy reuses the
    space of the assembly's temporaries: that lowers the probe's peak RSS by
    about 2 MB.
    """
    free = ~np.asarray(omega_fixed, dtype=bool).ravel()
    b = (np.asarray(source, dtype=float) * _cell_measure(ag)[:, None]).ravel()[free]
    u = np.zeros(free.size)
    A = axisym_energy_matrix(ag, op_m)[free][:, free]
    u[free], report = _solve_free(A, b, ag.shape, free)
    if info is not None:
        info.update(report)
    return u.reshape(ag.shape)
