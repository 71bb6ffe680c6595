"""Finite-difference stencils for partial derivatives on uniform grids.

Per-axis rule: even derivative orders use the compact central stencil
(second-order accurate at nodes), odd orders compose the even stencil with a
single forward difference (second-order accurate at half-offset points).
Mixed derivatives are tensor compositions of the per-axis stencils.  The
half-offset choice for odd orders avoids the odd/even sublattice decoupling
of wide central first differences, and it makes the assembled gradient-tensor
forms of (-Delta)^m equal to powers of the compact discrete Laplacian
(`neg_laplacian`), which the energy forms apply directly and the solvers
exploit for preconditioning.

A stencil is (offsets, coeffs): integer offsets and the coefficients of the
*undivided* difference; the h**(-order) factor is applied by callers.  An
n-d stencil is a list of (offset-vector, coefficient) entries, applied by
shifted slices (`apply_stencil`) or materialized (`sparse_stencil`).
Application uses zero extension outside the array, matching functions that
vanish outside the computational box.
"""

import functools

import numpy as np

from .errors import InputError

_CENTRAL2 = (np.array([-1, 0, 1]), np.array([1.0, -2.0, 1.0]))
_CENTRAL1 = (np.array([-1, 1]), np.array([-0.5, 0.5]))
_FORWARD = (np.array([0, 1]), np.array([-1.0, 1.0]))


def _convolve(st1, st2):
    off1, c1 = st1
    off2, c2 = st2
    table = {}
    for o1, a in zip(off1, c1):
        for o2, b in zip(off2, c2):
            table[o1 + o2] = table.get(o1 + o2, 0.0) + a * b
    offs = np.array(sorted(table))
    return offs, np.array([table[o] for o in offs])


def axis_stencil(order, centered=False):
    """Undivided difference stencil for d^order/dx^order.

    With centered=True the odd part uses the node-centered wide difference
    instead of the half-offset forward one; that variant is only meant for
    forms that are evaluated, never solved, since it decouples sublattices.
    """
    if order < 0:
        raise InputError("derivative order must be nonnegative")
    st = (np.array([0]), np.array([1.0]))
    for _ in range(order // 2):
        st = _convolve(st, _CENTRAL2)
    if order % 2:
        st = _convolve(st, _CENTRAL1 if centered else _FORWARD)
    return st


def apply_axis(u, axis, offsets, coeffs):
    """Apply a one-axis stencil with zero extension."""
    entries = []
    for off, c in zip(offsets, coeffs):
        vec = [0] * u.ndim
        vec[axis] = int(off)
        entries.append((tuple(vec), c))
    return apply_stencil(u, entries)


def apply_alpha(u, alpha, centered=False):
    """Apply the undivided difference for the multi-index alpha."""
    out = u
    for axis, order in enumerate(alpha):
        if order:
            offs, coeffs = axis_stencil(order, centered=centered)
            out = apply_axis(out, axis, offs, coeffs)
    return out


def alpha_offsets(alpha):
    """All (offset-vector, coefficient) pairs of the tensor stencil."""
    entries = [((0,) * len(alpha), 1.0)]
    for axis, order in enumerate(alpha):
        if not order:
            continue
        offs, coeffs = axis_stencil(order)
        new = []
        for vec, val in entries:
            for o, c in zip(offs, coeffs):
                v = list(vec)
                v[axis] += int(o)
                new.append((tuple(v), val * c))
        entries = new
    return entries


def injection_matrix(shape, pad):
    """Sparse injection of a box into its zero-padded enlargement."""
    from scipy.sparse import coo_matrix

    padded = tuple(s + 2 * pad for s in shape)
    size = int(np.prod(shape))
    idx = np.arange(int(np.prod(padded))).reshape(padded)
    inner = tuple(slice(pad, pad + s) for s in shape)
    rows = idx[inner].ravel()
    return coo_matrix((np.ones(size), (rows, np.arange(size))),
                      shape=(int(np.prod(padded)), size)).tocsr()


def _shift_slices(shape, vec):
    """(dst, src) slices pairing x with x + vec inside a box, or None if no
    such pair exists."""
    src, dst = [], []
    for size, o in zip(shape, vec):
        if abs(o) >= size:
            return None
        src.append(slice(o, size) if o >= 0 else slice(0, size + o))
        dst.append(slice(0, size - o) if o >= 0 else slice(-o, size))
    return tuple(dst), tuple(src)


def apply_stencil(u, entries):
    """(A u)(x) = sum_o c_o u(x + o) with zero extension, for (offset-vector,
    coefficient) entries."""
    out = np.zeros_like(u)
    for vec, c in entries:
        pair = _shift_slices(u.shape, vec)
        if pair is not None:
            out[pair[0]] += c * u[pair[1]]
    return out


def sparse_stencil(shape, entries):
    """The matrix of apply_stencil over a box of `shape`, as CSR."""
    from scipy.sparse import coo_matrix

    size = int(np.prod(shape))
    idx = np.arange(size).reshape(shape)
    rows, cols, vals = [], [], []
    for vec, val in entries:
        pair = _shift_slices(shape, vec)
        if pair is None:
            continue
        rows.append(idx[pair[0]].ravel())
        cols.append(idx[pair[1]].ravel())
        vals.append(np.full(rows[-1].size, val))
    mat = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )
    return mat.tocsr()


@functools.cache
def _axis_halves(ndim):
    """Per axis, the index tuples (lo, hi) of all nodes but the last and all
    but the first, built once per ndim so a Laplacian pass creates none."""
    return tuple(((slice(None),) * axis + (slice(None, -1),),
                  (slice(None),) * axis + (slice(1, None),)) for axis in range(ndim))


def neg_laplacian(v, out):
    """out = -Delta_h v, undivided, with zero extension; out must not alias v."""
    np.multiply(v, 2.0 * v.ndim, out=out)
    for lo, hi in _axis_halves(v.ndim):
        out[lo] -= v[hi]
        out[hi] -= v[lo]
    return out
