"""Constrained quadratic minimization and the generalized eigensolver.

Capacity and potential problems reduce to: minimize u.A u over grid functions
with one prescribed scalar value on a node set.  The free-node system is
solved by one preconditioned conjugate gradient loop on grid-shaped arrays,
masked to zero on the fixed nodes (a boolean mask), so no free vector is
gathered or scattered.  For
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

Only the returned field covers the whole grid.  The start (the fixed value
on the fixed nodes, 0 elsewhere) is built on the half grid, the CG iterate
becomes the returned half field in place, and every array the loop touches
is allocated once per solve: the CG vectors, the ghost array, the Horner
buffers of a polynomial form (`EnergyForm.workspace`) and the two buffers
between which the dense DST passes alternate.  So with a polynomial form
on the dense route a CG iteration allocates nothing, and the memory of a
solve is a fixed count of half-grid arrays whatever its iteration count.

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

The positivity tests take the smallest eigenpair of a channel pencil A x =
lambda B x as their reference: LAPACK's symmetric-definite routine dsygvx
(Anderson et al., LAPACK Users' Guide, 3rd ed., SIAM 1999), through
scipy.linalg.eigh, on the densified pencil.

scipy (scipy.fft on the long axes, scipy.linalg in the eigensolver) is
imported by the functions that use it, so a Cartesian solve on axes of up
to _DENSE_MAX_AXIS nodes loads no scipy module.
"""

import numpy as np

from .errors import ConvergenceError, InputError
from .grids import axis_sum

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
    the last axis of w and take a flat buffer `out` of w's size, which the
    dense route writes into and scipy.fft's ignores (see the module
    docstring)."""
    lam = (2.0 - 2.0 * np.cos(np.pi * np.arange(1, N + 1) / (N + 1)))[::2 if folded else 1]
    if N > _DENSE_MAX_AXIS:
        from scipy.fft import dct, dst

        if folded:
            return (lambda w, out: dct(w, 3, norm="ortho"),
                    lambda w, out: dct(w, 2, norm="ortho"), lam)
        return (lambda w, out: dst(w, 1, norm="ortho"),) * 2 + (lam,)
    mat = _sine_matrix(N)
    if folded:
        # rows of the half nodes, weighted by sqrt(mult); odd-mode columns
        e = N // 2
        mat = np.ascontiguousarray(mat[e:, ::2] * np.sqrt(np.r_[1.0, np.full(e, 2.0)])[:, None])
    inv = mat.T
    return (lambda w, out: np.matmul(w, mat, out=out.reshape(w.shape)),
            lambda w, out: np.matmul(w, inv, out=out.reshape(w.shape)), lam)


def _passes(v, forward, inverse, spec, bufs):
    """inverse(forward(v) / spec), forward[k] and inverse[k] applied to axis
    k of v.  Each pass maps the first axis and leaves it last, so after
    v.ndim passes the axes are back in order; pass j writes into bufs[j % 2]
    where its map can, so the round allocates nothing on the dense route."""
    shape, n = v.shape, v.ndim
    for j, f in enumerate(forward + inverse):
        if j == n:
            v = v.reshape(shape)
            v /= spec
        v = f(v.reshape(shape[j % n], -1).T, bufs[j % 2])
    return v.reshape(shape)


def _dst_round(form, axes):
    """The inverse of the DST model on the half grid of `axes`: transform,
    divide by the form's polynomial at the sums of the axis eigenvalues,
    transform back.  The returned map's result is one of two buffers that
    it allocates here, once, and overwrites on its next call."""
    forward, inverse, lams = zip(*(_axis_factors(N, a in axes)
                                   for a, N in enumerate(form.grid.shape)))
    lam = axis_sum(lams)
    spec = sum(c * lam**k for k, c in enumerate(form.dst_poly) if c)
    # the dense passes write into these; scipy.fft's return new arrays
    bufs = (np.empty((2, spec.size)) if form.grid.shape[0] <= _DENSE_MAX_AXIS
            else (None, None))
    return lambda v: _passes(v, forward, inverse, spec, bufs)


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


def _even_extend(v, axes, width):
    """v with its first `width` layers along each of `axes` set, in place, to
    their mirror images v[width - k] = v[width + k], axis after axis as
    np.pad(mode="reflect") pads, so the corners are mirrored too.  One layer
    at a time, so numpy's copy of an overlapping source is one layer."""
    for a in axes:
        w = np.moveaxis(v, a, 0)
        for k in range(1, width + 1):
            w[width - k] = w[width + k]
    return v


def solve_constrained(form, fixed_where, fixed_value, rhs=None):
    """Minimize the form with u = fixed_value, a scalar, on the nodes
    fixed_where; returns (u, info).

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
    if np.ndim(fixed_value) != 0:
        raise InputError("the fixed value must be a scalar")
    source = None if rhs is None else np.asarray(rhs, dtype=float)
    axes = _mirror_axes(form, (fixed_where, source))
    half = tuple(slice(grid.extent if a in axes else 0, None) for a in range(grid.n))
    uh, info = _solve_half(form, fixed_where[half], float(fixed_value),
                           0.0 if source is None else source[half], axes)
    u = np.empty(grid.shape)
    u[half] = uh
    return _even_extend(u, axes, grid.extent), info


def _solve_half(form, fixed, value, b, axes):
    """The CG solve of solve_constrained on the half grid of `axes`, given
    the fixed nodes and the source b there; returns the half field and the
    info dict.  Its arrays are allocated before the loop, which allocates
    nothing with a polynomial form on the dense DST route, and are freed on
    return, before the caller builds the whole-grid field."""
    n, e, m = form.grid.n, form.grid.extent, form.m
    inner = tuple(slice(m if a in axes else 0, None) for a in range(n))
    # a half-grid node off the centre plane of a folded axis stands for two
    mult1 = np.r_[1.0, np.full(e, 2.0)]
    mult = 1.0
    for a in axes:
        mult = mult * mult1.reshape([-1 if k == a else 1 for k in range(n)])
    scale = np.sqrt(mult)
    # the half grid with m even ghost layers before each folded centre plane:
    # they carry every stencil across it
    ghost = np.zeros([e + 1 + m if a in axes else form.grid.shape[a] for a in range(n)])
    ghost_inner = ghost[inner]
    work = form.workspace(ghost.shape)

    def apply_half(v, divisor=1.0):
        """A (v / divisor) on the half grid, a view into `work`; dividing by
        1.0 is exact."""
        np.divide(v, divisor, out=ghost_inner)
        return form.apply(_even_extend(ghost, axes, m), work)[inner]

    def masked_residual(au, out):
        """(b - au) sqrt(mult), zero on the fixed nodes, into out."""
        np.subtract(b, au, out=out)
        out *= scale
        out *= free
        return out

    free = ~fixed
    # the start: the fixed value on the fixed nodes, 0 on the free ones
    x = np.where(fixed, value, 0.0)
    r = masked_residual(apply_half(x), np.empty(x.shape))
    r0 = float(np.linalg.norm(r))
    # the loop runs on sqrt(mult) * u, where its dot products are the
    # whole-grid ones
    x *= scale
    precond = _dst_round(form, axes)
    q = np.empty(x.shape)

    def apply(p):
        np.multiply(apply_half(p, scale), scale, out=q)
        return np.multiply(q, free, out=q)

    def precond_free(v):
        z = precond(v)
        z *= free
        return z

    iterations = _pcg(apply, precond_free, x, r, _CG_RTOL, r0, _CG_MAXITER)
    # x becomes the half field in place; r and q are free to reuse
    x /= scale
    x[fixed] = value
    au = apply_half(x)
    res = float(np.linalg.norm(masked_residual(au, r)) / max(r0, 1e-300))
    np.multiply(x, au, out=q)
    q *= mult
    return x, {"iterations": iterations, "residual": res, "energy": float(q.sum()),
               "mirror_axes": axes}


def smallest_generalized_eig(A, B):
    """Smallest eigenpair (lambda, x) of A x = lambda B x for sparse symmetric
    A and symmetric positive definite B, from one LAPACK call on the
    densified pencil; raises InputError when B is not positive definite."""
    from scipy.linalg import LinAlgError, eigh

    try:
        w, x = eigh(A.toarray(), B.toarray(), subset_by_index=[0, 0])
    except LinAlgError:
        raise InputError("the right-hand form of the eigenproblem is not positive "
                         "definite") from None
    return float(w[0]), x[:, 0]
