"""Constrained quadratic minimization and small eigenvalue drivers.

Capacity and potential problems reduce to: minimize u.A u over grid functions
with prescribed values on a node set.  The free-node system is solved by
conjugate gradients; for the polyharmonic energy kinds the unconstrained
operator is a power of the compact discrete Laplacian, so one DST round per
iteration inverts the matching power of the Dirichlet Laplacian -Delta_h^D
on the box.  For m = 1 that is the unconstrained operator itself, and its
inverse restricted to the free nodes is the exact inverse Schur complement.
For m >= 2 the zero-extended (-Delta_h)^m differs from (-Delta_h^D)^m near
the box faces, so the DST round is only spectrally equivalent to it.
That keeps iteration counts nearly independent of the grid size.
"""

import numpy as np
import scipy.fft as sfft
from scipy.sparse.linalg import LinearOperator, cg

from .errors import ConvergenceError, InputError


def _dst_solve(v, spec):
    coeff = sfft.dstn(v, type=1, norm="ortho")
    return sfft.idstn(coeff / spec, type=1, norm="ortho")


def solve_constrained(form, fixed_where, fixed_values, rhs=None, rtol=1e-8, maxiter=2000):
    """Minimize the form with u[fixed] = values; returns (u, info).

    rhs, if given, adds a linear term -<rhs, u> so the stationarity system is
    A u = rhs on the free nodes.  The residual is driven to `rtol` relative.
    Raises ConvergenceError when CG misses `rtol` within `maxiter` and an
    unpreconditioned retry misses it within 4 * `maxiter` as well.
    """
    grid = form.grid
    fixed_where = np.asarray(fixed_where, dtype=bool)
    if fixed_where.shape != grid.shape:
        raise InputError("constraint mask shape does not match the grid")
    free = ~fixed_where
    u0 = grid.zeros()
    u0[fixed_where] = fixed_values
    b_full = -form.apply(u0)
    if rhs is not None:
        b_full = b_full + rhs
    b = b_full[free]
    if b.size == 0:
        return u0, {"iterations": 0, "residual": 0.0, "energy": form.quad(u0)}

    def matvec(v):
        w = grid.zeros()
        w[free] = v
        return form.apply(w)[free]

    nfree = int(free.sum())
    A = LinearOperator((nfree, nfree), matvec=matvec)
    spec = form.dst_spectrum()

    def pc(v):
        w = grid.zeros()
        w[free] = v
        return _dst_solve(w, spec)[free]

    M = LinearOperator((nfree, nfree), matvec=pc)

    iters = [0]

    def cb(_):
        iters[0] += 1

    w, code = cg(A, b, rtol=rtol, atol=0.0, maxiter=maxiter, M=M, callback=cb)
    if code > 0:
        # one retry without preconditioning before giving up
        w, code = cg(A, b, rtol=rtol, atol=0.0, maxiter=4 * maxiter, callback=cb)
        if code > 0:
            raise ConvergenceError(
                f"conjugate gradient missed rtol={rtol:g} after {iters[0]} iterations, "
                "with and without the preconditioner")
    u = u0.copy()
    u[free] = w
    res = float(np.linalg.norm(form.apply(u)[free] - (rhs[free] if rhs is not None else 0.0))
                / max(np.linalg.norm(b), 1e-300))
    return u, {"iterations": iters[0], "residual": res, "energy": form.quad(u)}


def stationarity_residual(form, u, fixed_where, rhs=None):
    """Gradient norm on the free nodes relative to the constraint fluxes.

    At the minimizer the energy gradient vanishes off the constrained set
    while the constrained nodes carry the (nonzero) capacitary flux, which
    sets the natural scale."""
    fixed = np.asarray(fixed_where, dtype=bool)
    g = form.apply(u)
    if rhs is not None:
        g = g - rhs
    denom = max(float(np.linalg.norm(g)), 1e-300)
    return float(np.linalg.norm(g[~fixed]) / denom)


def smallest_generalized_eig(A, B, x0=None, tol=1e-9, maxiter=600):
    """Smallest eigenpair of A x = lambda B x for symmetric A, SPD B.

    Dense path up to 3000 unknowns (deterministic LAPACK), LOBPCG above it
    with a fixed deterministic start.
    """
    from scipy.sparse import issparse

    size = A.shape[0]
    if size <= 3000 and issparse(A) and issparse(B):
        from scipy.linalg import eigh

        vals, vecs = eigh(A.toarray(), B.toarray(), subset_by_index=[0, 0])
        return float(vals[0]), vecs[:, 0]
    from scipy.sparse.linalg import lobpcg

    if x0 is None:
        rng = np.random.default_rng(12345)
        x0 = rng.standard_normal((size, 3))
        x0[:, 0] = 1.0
    vals, vecs = lobpcg(A, x0, B=B, largest=False, tol=tol, maxiter=maxiter)
    k = int(np.argmin(vals))
    return float(vals[k]), vecs[:, k]
