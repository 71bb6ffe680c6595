"""Constrained quadratic minimization and the banded generalized eigensolver.

Capacity and potential problems reduce to: minimize u.A u over grid functions
with prescribed values on a node set.  The free-node system is solved by
one preconditioned conjugate gradient loop on grid-shaped arrays, masked to
zero on the fixed nodes, so no free vector is gathered or scattered.  For
the polyharmonic energy kinds the unconstrained operator is a power of the
compact discrete Laplacian, so one DST-I round per iteration (transform,
divide by the spectrum, transform back) inverts the matching power of the
Dirichlet Laplacian -Delta_h^D on the box.  For m = 1 that is the
unconstrained operator itself, and its inverse restricted to the free nodes
is the exact inverse Schur complement.  For m >= 2 the zero-extended
(-Delta_h)^m differs from (-Delta_h^D)^m near the box faces, so the DST round
is only spectrally equivalent to it.  That keeps iteration counts nearly
independent of the grid size.  There is no fallback solve.  The CG loop
itself, `_pcg`, updates its vectors in place and also serves the
multigrid-preconditioned (r, z) solver of `radial`.

The orthonormal DST-I of length N is the symmetric N x N sine matrix S, and
S S = I.  On axes of up to _DENSE_MAX_AXIS nodes the transform is applied as
the tensor-product "fast diagonalization" of Lynch, Rice & Thomas (Numer.
Math. 6, 1964): one dense BLAS product with S per axis, 2N flops per node and
axis.  The FFT route costs O(log N) per node and axis, but with large
constants that depend on the factors of 2(N + 1), so on axes of 11 to 513
nodes, those of nearly every grid the library builds, the dense products are
several times faster.  Longer axes (1025 nodes on the finest n = 2m series
grid) take scipy.fft's DST-I, which wins there when 2(N + 1) has small
factors.  Both routes apply the same linear map up to rounding.

The positivity channels need the smallest eigenvalue of a pencil A x =
lambda B x of banded symmetric matrices with B positive definite.  By
Sylvester's law of inertia A - sigma B is positive definite exactly when
sigma lies below the whole spectrum, so one banded Cholesky factorisation
decides which side of sigma the smallest eigenvalue lies on; bisection on
that test brackets it, and inverse iteration with the last successful
factor yields the eigenvector.
"""

import numpy as np
import scipy.fft as sfft
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse import coo_array

from .errors import ConvergenceError, InputError

_MAX_DOUBLINGS = 200


# the longest axis that takes the dense sine-matrix route; above it the dense
# products (2N flops per node and axis) lose to scipy.fft's DST-I on
# FFT-friendly lengths (crossover measured in CHANGES.md)
_DENSE_MAX_AXIS = 600


def _sine_matrix(N):
    """Orthonormal DST-I matrix sqrt(2/(N+1)) sin(pi j k/(N+1)), j, k = 1..N."""
    k = np.arange(1, N + 1)
    # j k reduced modulo the period 2(N + 1) keeps the sine argument below
    # 2 pi, so each entry is correct to an ulp
    jk = np.outer(k, k) % (2 * (N + 1))
    return np.sqrt(2.0 / (N + 1)) * np.sin(np.pi * jk / (N + 1))


def _sine_passes(v, sine):
    """The DST-I along every axis of a cube-shaped v: each pass is one BLAS
    product of the first axis with the symmetric `sine`, whose result has that
    axis last, so after v.ndim passes the axes are back in their order."""
    shape = v.shape
    for _ in shape:
        v = v.reshape(len(sine), -1).T @ sine
    return v.reshape(shape)


def _dst_solve(v, spec, sine):
    """Inverse of the DST-diagonal model: transform, divide by `spec`,
    transform back; by dense passes with `sine`, or by scipy.fft when
    `sine` is None."""
    if sine is None:
        coeff = sfft.dstn(v, type=1, norm="ortho")
        return sfft.idstn(coeff / spec, type=1, norm="ortho")
    return _sine_passes(_sine_passes(v, sine) / spec, sine)


def _pcg(apply, precond, x, r, rtol, scale, maxiter):
    """Preconditioned conjugate gradient (Saad 2003, Alg. 9.1) in place.

    x holds the start and r = b - A x its residual; both are updated until
    ||r|| <= rtol * scale, and the iteration count is returned.  apply(p) and
    precond(r) return A p and M^-1 r as writable arrays that the loop may
    overwrite and reads only until the next call, so each may reuse one
    output buffer.  Raises ConvergenceError after `maxiter` iterations.
    """
    tol = rtol * scale
    for iterations in range(maxiter + 1):
        if np.linalg.norm(r) <= tol:
            return iterations
        if iterations == maxiter:
            raise ConvergenceError(
                f"conjugate gradient missed rtol={rtol:g} after {maxiter} iterations")
        z = precond(r)
        rho = float(np.vdot(r, z))
        if iterations == 0:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = apply(p)
        alpha = rho / float(np.vdot(p, q))
        # p holds z now, so z is free to take the two scaled updates
        x += np.multiply(alpha, p, out=z)
        r -= np.multiply(alpha, q, out=z)
        rho_prev = rho


def solve_constrained(form, fixed_where, fixed_values, rhs=None, rtol=1e-8, maxiter=2000):
    """Minimize the form with u[fixed] = values; returns (u, info).

    rhs, if given, adds a linear term -<rhs, u> so the stationarity system is
    A u = rhs on the free nodes.  Preconditioned CG with the residual, the
    preconditioned residual and A p zeroed on the fixed nodes stops when the
    residual reaches `rtol` times its initial norm, and raises
    ConvergenceError after `maxiter` iterations.  info["residual"] is the
    true relative residual of the returned u.
    """
    grid = form.grid
    fixed_where = np.asarray(fixed_where, dtype=bool)
    if fixed_where.shape != grid.shape:
        raise InputError("constraint mask shape does not match the grid")
    free = (~fixed_where).astype(float)
    u = grid.zeros()
    u[fixed_where] = fixed_values
    b = 0.0 if rhs is None else rhs
    r = (b - form.apply(u)) * free
    r0 = float(np.linalg.norm(r))
    spec = form.dst_spectrum()
    N = grid.shape[0]
    sine = _sine_matrix(N) if N <= _DENSE_MAX_AXIS else None
    z, q = grid.zeros(), grid.zeros()
    iterations = _pcg(lambda p: np.multiply(form.apply(p), free, out=q),
                      lambda v: np.multiply(_dst_solve(v, spec, sine), free, out=z),
                      u, r, rtol, r0, maxiter)
    res = float(np.linalg.norm((b - form.apply(u)) * free) / max(r0, 1e-300))
    return u, {"iterations": iterations, "residual": res, "energy": form.quad(u)}


def stationarity_residual(form, u, fixed_where):
    """Gradient norm on the free nodes relative to the constraint fluxes.

    At the minimizer the energy gradient vanishes off the constrained set
    while the constrained nodes carry the (nonzero) capacitary flux, which
    sets the natural scale."""
    fixed = np.asarray(fixed_where, dtype=bool)
    g = form.apply(u)
    denom = max(float(np.linalg.norm(g)), 1e-300)
    return float(np.linalg.norm(g[~fixed]) / denom)


def _upper_band(M, u):
    """LAPACK upper-band storage: ab[u + i - j, j] = M[i, j] for i <= j."""
    keep = M.row <= M.col
    ab = np.zeros((u + 1, M.shape[1]))
    np.add.at(ab, (u + M.row[keep] - M.col[keep], M.col[keep]), M.data[keep])
    return ab


def _cholesky_or_none(ab):
    try:
        return cholesky_banded(ab, overwrite_ab=True, check_finite=False)
    except LinAlgError:
        return None


def smallest_generalized_eig(A, B):
    """Smallest eigenpair of A x = lambda B x for banded symmetric A and
    symmetric positive definite B; returns (lambda, x).

    Only the upper triangles are read, into LAPACK band storage whose
    half-bandwidth u is the largest offset of either matrix.  A banded
    Cholesky factorisation of A - sigma B (O(N u^2)) succeeds exactly when
    lambda_min > sigma (Sylvester's law of inertia).  The Rayleigh quotient
    of a fixed start vector bounds lambda_min from above, doubling steps
    below it find a lower bound, bisection on the Cholesky test closes the
    bracket to 1e-14 of the spectral scale, and three steps of inverse
    iteration with the factor at the lower end give the vector.  Raises
    InputError when B is not positive definite.
    """
    A, B = coo_array(A), coo_array(B)
    u = max(int(np.max(M.col - M.row, initial=0)) for M in (A, B))
    a, b = _upper_band(A, u), _upper_band(B, u)
    if _cholesky_or_none(b.copy()) is None:
        raise InputError("the right-hand form of the eigenproblem is not positive definite")

    def rayleigh(x):
        return float(x @ (A @ x)) / float(x @ (B @ x))

    size = a.shape[1]
    hi = rayleigh(np.sin(np.pi * np.arange(1, size + 1) / (size + 1)))
    # the largest Rayleigh quotient of a coordinate vector sets the spectral scale
    scale = float(np.abs(a[u] / b[u]).max())
    step = max(abs(hi), scale) or 1.0
    for _ in range(_MAX_DOUBLINGS):
        lo = hi - step
        factor = _cholesky_or_none(a - lo * b)
        if factor is not None:
            break
        step *= 2.0
    else:
        raise InputError("no lower bound for the smallest eigenvalue was found")
    while hi - lo > 1e-14 * max(abs(lo), abs(hi), scale):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        trial = _cholesky_or_none(a - mid * b)
        if trial is None:
            hi = mid
        else:
            lo, factor = mid, trial
    # a start vector that is neither even nor odd reaches both kinds of mode
    x = np.linspace(1.0, 2.0, size)
    for _ in range(3):
        x = cho_solve_banded((factor, False), B @ x, check_finite=False)
        x /= np.linalg.norm(x)
    return rayleigh(x), x
