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
independent of the grid size.  There is no fallback solve, and every
caller gets the one tolerance _CG_RTOL.  The CG loop itself, `_pcg`,
updates its vectors in place and also serves the multigrid-preconditioned
(r, z) solver of `radial`, which has its own tolerance.

Balls, annuli, cones and their sources are even under reflection through
the coordinate planes of the centred box.  A symmetric problem separates
into problems on its fundamental domain (Bossavit, Comput. Methods Appl.
Mech. Engrg. 56, 1986), so the loop runs on the half grid, centre index
onward, of every axis along which the problem is exactly even: the
constraint mask, the fixed values and the source equal their mirror images
bitwise, and the form commutes with the reflection (a polynomial in
-Delta_h always, a folded stencil when negating that component of every
offset maps its table to itself).  The iterates of
the whole-grid loop are then even, so nothing is lost.  `EnergyForm.apply`
acts on a half-grid function through m even ghost layers before each
folded centre plane.  A node off the centre planes of k folded axes stands
for 2^k nodes; the loop runs on sqrt(multiplicity) times u, where plain dot
products are the whole-grid ones, so the step lengths, the stopping test
and the iteration counts are those of the whole grid up to rounding.

The DST round is the tensor-product "fast diagonalization" of Lynch, Rice &
Thomas (Numer. Math. 6, 1964), one factor per axis: a transform, its
inverse, and the eigenvalues of -D2 at the axis's modes, whose sums the
form's polynomial maps to the spectrum.  The orthonormal DST-I of length N
is the symmetric sine matrix S, S S = I.  The even functions of a folded
axis of 2e + 1 nodes are spanned by its e + 1 odd sine modes, so that axis
takes the orthogonal block B of S with the half-grid rows, scaled by
sqrt(multiplicity), and the odd-mode columns.  B is the orthonormal DCT-II
matrix of length e + 1 times the column signs (-1)^l, which cancel in
B diag(1/spec) B^T.  Axes of up to _DENSE_MAX_AXIS nodes apply S or B as one
dense BLAS product, 2N flops per node, several times faster than the FFT
route there; longer axes (769 to 1537 nodes on the n = 2m series grids) take
scipy.fft's DST-I, or folded its DCT-III and DCT-II, which win there.  Both
routes apply the same linear map up to rounding.

The positivity channels need the smallest eigenvalue of a pencil A x =
lambda B x of banded symmetric matrices with B positive definite.  By
Sylvester's law of inertia A - sigma B is positive definite exactly when
sigma lies below the whole spectrum, so one banded Cholesky factorisation
decides which side of sigma the smallest eigenvalue lies on; bisection on
that test brackets it, and inverse iteration with the last successful
factor yields the eigenvector.

scipy (scipy.fft on the long axes, scipy.linalg and scipy.sparse in the
eigensolver) is imported by the functions that use it, so a Cartesian solve
on axes of up to _DENSE_MAX_AXIS nodes loads no scipy module.
"""

import numpy as np

from .errors import ConvergenceError, InputError
from .grids import axis_sum

_MAX_DOUBLINGS = 200
# solve_constrained stops when the residual reaches _CG_RTOL times its
# initial norm, and raises ConvergenceError after _CG_MAXITER CG iterations
_CG_RTOL = 1e-8
_CG_MAXITER = 2000


# the longest axis that takes the dense sine-matrix route (crossover with
# scipy.fft measured in CHANGES.md)
_DENSE_MAX_AXIS = 600


def _sine_matrix(N):
    """Orthonormal DST-I matrix sqrt(2/(N+1)) sin(pi j k/(N+1)), j, k = 1..N."""
    k = np.arange(1, N + 1)
    # j k reduced modulo the period 2(N + 1) keeps the sine argument below
    # 2 pi, so each entry is correct to an ulp
    jk = np.outer(k, k) % (2 * (N + 1))
    return np.sqrt(2.0 / (N + 1)) * np.sin(np.pi * jk / (N + 1))


def _axis_factors(N, folded):
    """(transform, inverse, eigenvalues of -D2 at its modes) of the DST round
    on one axis of N nodes, or on its half grid when folded; the maps act on
    the last axis (see the module docstring)."""
    lam = (2.0 - 2.0 * np.cos(np.pi * np.arange(1, N + 1) / (N + 1)))[::2 if folded else 1]
    if N > _DENSE_MAX_AXIS:
        from scipy.fft import dct, dst

        if folded:
            return (lambda w: dct(w, 3, norm="ortho"),
                    lambda w: dct(w, 2, norm="ortho"), lam)
        return (lambda w: dst(w, 1, norm="ortho"),) * 2 + (lam,)
    mat = _sine_matrix(N)
    if folded:
        # rows of the half nodes, weighted by sqrt(mult); odd-mode columns
        e = N // 2
        mat = np.ascontiguousarray(mat[e:, ::2] * np.sqrt(np.r_[1.0, np.full(e, 2.0)])[:, None])
    inv = mat.T
    return (lambda w: w @ mat), (lambda w: w @ inv), lam


def _passes(v, maps):
    """maps[k] applied to axis k of v: each pass maps the first axis and
    leaves it last, so after v.ndim passes the axes are back in order."""
    shape = v.shape
    for k, f in enumerate(maps):
        v = f(v.reshape(shape[k], -1).T)
    return v.reshape(shape)


def _dst_round(form, axes):
    """The inverse of the DST model on the half grid of `axes`: transform,
    divide by the form's polynomial at the sums of the axis eigenvalues,
    transform back."""
    forward, inverse, lams = zip(*(_axis_factors(N, a in axes)
                                   for a, N in enumerate(form.grid.shape)))
    lam = axis_sum(lams)
    spec = sum(c * lam**k for k, c in enumerate(form.dst_poly) if c)
    return lambda v: _passes(_passes(v, forward) / spec, inverse)


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


def _mirror_axes(form, arrays):
    """The axes along which the problem is exactly even: the form commutes
    with the reflection through the centre plane and every array that is
    not None equals its mirror image bitwise."""
    return tuple(a for a in range(form.grid.n) if form.reflection_invariant(a)
                 and all(x is None or np.array_equal(x, np.flip(x, a)) for x in arrays))


def _reflect(v, axes, width):
    """v continued evenly by `width` layers before index 0 of each of `axes`."""
    return np.pad(v, [(width, 0) if a in axes else (0, 0) for a in range(v.ndim)],
                  mode="reflect")


def solve_constrained(form, fixed_where, fixed_values, rhs=None):
    """Minimize the form with u[fixed] = values; returns (u, info).

    rhs, if given, adds a linear term -<rhs, u> so the stationarity system is
    A u = rhs on the free nodes.  Preconditioned CG with the residual, the
    preconditioned residual and A p zeroed on the fixed nodes stops when the
    residual reaches _CG_RTOL times its initial norm, and raises
    ConvergenceError after _CG_MAXITER iterations.  The loop runs on the half
    grid of the axes in info["mirror_axes"] (see the module docstring).
    info["residual"] is the true relative residual of the returned u and
    info["energy"] its energy u.A u, both over the whole grid.
    """
    grid = form.grid
    fixed_where = np.asarray(fixed_where, dtype=bool)
    if fixed_where.shape != grid.shape:
        raise InputError("constraint mask shape does not match the grid")
    u = grid.zeros()
    u[fixed_where] = fixed_values
    source = None if rhs is None else np.asarray(rhs, dtype=float)
    axes = _mirror_axes(form, (fixed_where, u, source))
    n, e, m = grid.n, grid.extent, form.m
    half = tuple(slice(e if a in axes else 0, None) for a in range(n))
    inner = tuple(slice(m if a in axes else 0, None) for a in range(n))
    # a half-grid node off the centre plane of a folded axis stands for two
    mult1 = np.r_[1.0, np.full(e, 2.0)]
    mult = 1.0
    for a in axes:
        mult = mult * mult1.reshape([-1 if k == a else 1 for k in range(n)])
    scale = np.sqrt(mult)
    # the half grid with m even ghost layers before each folded centre plane:
    # they carry every stencil across it
    ghost = np.zeros([e + 1 + m if a in axes else grid.shape[a] for a in range(n)])
    ghost_inner = ghost[inner]
    mirrors = [(tuple(slice(0, m) if k == a else slice(None) for k in range(n)),
                tuple(slice(2 * m, m, -1) if k == a else slice(None) for k in range(n)))
               for a in axes]

    def apply_half(v, divisor=1.0):
        """A (v / divisor) on the half grid; dividing by 1.0 is exact."""
        np.divide(v, divisor, out=ghost_inner)
        # one axis after the other, as np.pad(mode="reflect") fills the corners
        for layers, mirror in mirrors:
            ghost[layers] = ghost[mirror]
        return form.apply(ghost)[inner]

    fixed = fixed_where[half]
    free = (~fixed).astype(float)
    scale_free = scale * free
    b = 0.0 if source is None else source[half]
    uh = u[half]
    # the loop runs on sqrt(mult) * u, where its dot products are the
    # whole-grid ones
    x = uh * scale
    r = (b - apply_half(uh)) * scale_free
    r0 = float(np.linalg.norm(r))
    precond = _dst_round(form, axes)
    z, q = np.zeros(x.shape), np.zeros(x.shape)
    iterations = _pcg(lambda p: np.multiply(apply_half(p, scale), scale_free, out=q),
                      lambda v: np.multiply(precond(v), free, out=z),
                      x, r, _CG_RTOL, r0, _CG_MAXITER)
    uh = np.where(fixed, uh, x / scale)
    au = apply_half(uh)
    res = float(np.linalg.norm((b - au) * scale_free) / max(r0, 1e-300))
    info = {"iterations": iterations, "residual": res,
            "energy": float((uh * au * mult).sum()), "mirror_axes": axes}
    return _reflect(uh, axes, e), info


def _upper_band(M, u):
    """LAPACK upper-band storage: ab[u + i - j, j] = M[i, j] for i <= j."""
    keep = M.row <= M.col
    ab = np.zeros((u + 1, M.shape[1]))
    np.add.at(ab, (u + M.row[keep] - M.col[keep], M.col[keep]), M.data[keep])
    return ab


def _cholesky_or_none(ab):
    from scipy.linalg import LinAlgError, cholesky_banded

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
    from scipy.linalg import cho_solve_banded
    from scipy.sparse import coo_array

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
