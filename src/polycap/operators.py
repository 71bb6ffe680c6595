"""Constant-coefficient elliptic operators of order 2m and their symbols.

An operator is stored through its coefficient table a[alpha, beta] over pairs
of multi-indices with |alpha| = |beta| = m.  All computations use the positive
symbol

    P(xi) = sum_{alpha,beta} a[alpha,beta] xi^(alpha+beta),

which is homogeneous of degree 2m and strictly positive on nonzero xi for an
elliptic operator.  This sign convention (one global factor (-1)^m absorbed
into P) is recorded as ``SYMBOL_CONVENTION`` and echoed in every run
manifest and operator description file.
"""

import functools
import json
import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .errors import InputError, UnsupportedRegimeError

SYMBOL_CONVENTION = "P(xi) = (-1)^m L(xi), positive on nonzero xi"

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
# Kronecker directions of EllipticOperator.sphere_sample, besides the 2n axes
SPHERE_SAMPLES = 1024


def multi_indices(n, k):
    """All multi-indices of length n with |alpha| = k, in a fixed order."""
    out = []
    for combo in combinations_with_replacement(range(n), k):
        alpha = [0] * n
        for axis in combo:
            alpha[axis] += 1
        out.append(tuple(alpha))
    return sorted(out, reverse=True)


def multinomial(alpha):
    """k!/alpha! for k = |alpha| (weight of alpha in the gradient tensor norm)."""
    k = sum(alpha)
    val = math.factorial(k)
    for a in alpha:
        val //= math.factorial(a)
    return val


def _canon_pair(alpha, beta):
    return (alpha, beta) if alpha <= beta else (beta, alpha)


@dataclass(frozen=True)
class EllipticOperator:
    """Operator sum a[alpha,beta] d^(alpha+beta) with |alpha| = |beta| = m.

    ``coefficients`` maps canonical (alpha, beta) pairs (alpha <= beta
    lexicographically) to real values; the table is symmetrized on
    construction, so a[alpha,beta] == a[beta,alpha] always holds.
    """

    n: int
    m: int
    coefficients: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise InputError("dimension and half-order must be positive")
        # each (alpha, beta, v) declares the symmetric-table entry
        # a[alpha,beta] = a[beta,alpha] = v; declarations over one orbit average,
        # so symmetrizing is idempotent
        declared = {}
        for (alpha, beta), value in self.coefficients.items():
            alpha, beta = tuple(map(int, alpha)), tuple(map(int, beta))
            if len(alpha) != self.n or len(beta) != self.n:
                raise InputError("multi-index length must equal the dimension")
            if sum(alpha) != self.m or sum(beta) != self.m:
                raise InputError("coefficient pairs must have |alpha| = |beta| = m")
            declared.setdefault(_canon_pair(alpha, beta), []).append(float(value))
        sym = {k: sum(v) / len(v) for k, v in declared.items()}
        object.__setattr__(
            self, "coefficients", {k: v for k, v in sorted(sym.items()) if v != 0.0}
        )

    # -- symbol -----------------------------------------------------------

    @functools.cached_property
    def _terms(self):
        """(exponents, coefficients) of P as a plain polynomial in xi, built
        once per operator and read-only."""
        table = {}
        for (alpha, beta), v in self.coefficients.items():
            exp = tuple(a + b for a, b in zip(alpha, beta))
            w = v if alpha == beta else 2.0 * v
            table[exp] = table.get(exp, 0.0) + w
        exps = np.array(sorted(table), dtype=np.int64)
        coefs = np.array([table[tuple(e)] for e in exps], dtype=float)
        exps.flags.writeable = coefs.flags.writeable = False
        return exps, coefs

    def symbol(self, xi):
        """Evaluate P(xi); xi has shape (..., n)."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape[-1] != self.n:
            raise InputError(
                f"symbol point has length {xi.shape[-1]}, operator dimension is {self.n}"
            )
        if not np.all(np.isfinite(xi)):
            raise InputError("symbol point has non-finite entries")
        exps, coefs = self._terms
        # xi_j ** e for each coordinate j and e = 0..2m, (..., n, 2m + 1), then
        # each term's powers gathered from it: the same pow calls, products and
        # sum as raising xi to every term's exponents, n (2m + 1) pow calls per
        # point instead of n per term
        table = xi[..., :, None] ** np.arange(2.0 * self.m + 1)
        terms = table[..., np.arange(self.n), exps].prod(axis=-1)
        return (np.ascontiguousarray(terms) * coefs).sum(axis=-1)

    @functools.cached_property
    def sphere_sample(self):
        """(unit_directions(n, SPHERE_SAMPLES), P on them): the one sample of
        P on the unit sphere that the ellipticity check, the rotation-axis
        test of the kernel route and symbol-check read, built on first use
        and read-only."""
        dirs = unit_directions(self.n, SPHERE_SAMPLES)
        vals = self.symbol(dirs)
        vals.flags.writeable = False
        return dirs, vals


# -- presets ---------------------------------------------------------------


def laplacian(n):
    """-Delta in R^n (m = 1)."""
    coeffs = {}
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        coeffs[(e, e)] = 1.0
    return EllipticOperator(n, 1, coeffs, name="laplacian")


def polyharmonic(n, m):
    """(-Delta)^m in R^n, diagonal coefficients m!/alpha!."""
    coeffs = {}
    for alpha in multi_indices(n, m):
        coeffs[(alpha, alpha)] = float(multinomial(alpha))
    return EllipticOperator(n, m, coeffs, name=f"polyharmonic(m={m})")


def mn8_operator():
    """The order-4 operator in R^8 with symbol 10 xi_8^4 + |xi|^4.

    Its kernel profile on the unit sphere takes both signs; the negative
    values sit in a thin cone around the x_8 axis.
    """
    base = polyharmonic(8, 2)
    coeffs = dict(base.coefficients)
    e8 = (0, 0, 0, 0, 0, 0, 0, 2)
    coeffs[(e8, e8)] = coeffs.get((e8, e8), 0.0) + 10.0
    return EllipticOperator(8, 2, coeffs, name="mn8")


_PRESETS = {
    "laplacian": lambda n=3, m=1: laplacian(n),
    "polyharmonic": lambda n, m: polyharmonic(n, m),
    "biharmonic": lambda n, m=2: polyharmonic(n, 2),
    "mn8": lambda n=8, m=2: mn8_operator(),
}


def preset_operator(name, n=None, m=None):
    """Named operator presets: laplacian, polyharmonic, biharmonic, mn8."""
    if name not in _PRESETS:
        raise InputError(f"unknown operator preset {name!r}; have {sorted(_PRESETS)}")
    kwargs = {}
    if n is not None:
        kwargs["n"] = int(n)
    if m is not None:
        kwargs["m"] = int(m)
    try:
        return _PRESETS[name](**kwargs)
    except TypeError as exc:
        raise InputError(f"preset {name!r} needs explicit parameters: {exc}") from exc


# -- direction sampling ----------------------------------------------------


@functools.cache
def unit_directions(n, count):
    """Deterministic low-discrepancy set of unit vectors in R^n.

    A Kronecker sequence on [0,1)^n is pushed through the inverse normal CDF
    and normalized, which equidistributes on the sphere; the 2n signed
    coordinate axes are appended so axis-aligned anisotropy is always sampled.
    The rows of unit_directions(n, k) are the first 2n + k rows of
    unit_directions(n, K) for every k < K, bitwise.  Built once per
    (n, count) and read-only; one Kronecker stride per prime of _PRIMES
    bounds n at 16 (UnsupportedRegimeError above).
    """
    if count < 0:
        raise InputError("direction count must be nonnegative")
    if n > len(_PRIMES):
        raise UnsupportedRegimeError(
            f"sphere directions are built for n <= {len(_PRIMES)}; got n={n}")
    alphas = np.array([math.sqrt(p) % 1.0 for p in _PRIMES[:n]])
    j = np.arange(1, count + 1)[:, None]
    u = (j * alphas[None, :] + 0.5) % 1.0
    from scipy.special import ndtri

    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0.0] = 1.0
    dirs = z / norms[:, None]
    axes = np.vstack([np.eye(n), -np.eye(n)])
    out = np.vstack([axes, dirs]) if count else axes
    out.flags.writeable = False
    return out


def quadratic_form_matrix(op):
    """The symmetric n x n matrix A of a second-order symbol, P(xi) = xi^T A xi."""
    if op.m != 1:
        raise InputError(f"only an m = 1 symbol is a quadratic form; got m={op.m}")
    A = np.zeros((op.n, op.n))
    for (alpha, beta), v in op.coefficients.items():
        i, j = alpha.index(1), beta.index(1)
        A[i, j] = A[j, i] = v
    return A


def ellipticity_samples(op):
    """The Kronecker directions the verdict of check_ellipticity(op) samples:
    none for m = 1, which is decided exactly, else SPHERE_SAMPLES."""
    return 0 if op.m == 1 else SPHERE_SAMPLES


def check_ellipticity(op):
    """Minimum of P on the unit sphere; (-1)^m L(xi) > 0 must hold for all xi != 0.

    Returns (is_elliptic, min_value, worst_direction).  For m = 1 the answer
    is exact: the minimum of xi^T A xi on the sphere is the smallest
    eigenvalue of A, reached at its eigenvector, and one within rounding of
    zero is not counted positive.  For m >= 2 it is the minimum over
    op.sphere_sample, the 2n axes and SPHERE_SAMPLES Kronecker directions:
    a positive verdict is evidence at the sampled resolution, not a proof;
    a nonpositive sample is a certified counterexample.
    """
    if not ellipticity_samples(op):
        lam, vec = np.linalg.eigh(quadratic_form_matrix(op))
        floor = op.n * np.finfo(float).eps * float(np.abs(lam).max())
        return bool(lam[0] > floor), float(lam[0]), vec[:, 0]
    dirs, vals = op.sphere_sample
    k = int(np.argmin(vals))
    return bool(vals[k] > 0.0), float(vals[k]), dirs[k].copy()


# -- Fourier-side positivity probe ------------------------------------------


def fourier_kernel_probe(op, nodes, weights):
    """Quadrature surrogate for the double integral of (P(xi)+P(eta))/P(xi-eta).

    Evaluates sum_{i != j} (P(xi_i)+P(xi_j)) / P(xi_i - xi_j) w_i w_j over the
    given nodes.  The singular diagonal is excluded rather than mollified, so
    a strictly negative return is a conservative discrete witness against
    Fourier-side positivity at this resolution.
    """
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] != op.n:
        raise InputError("nodes must be an (npts, n) array")
    if weights.shape != (nodes.shape[0],):
        raise InputError("one weight per node is required")
    if nodes.shape[0] < 2:
        raise InputError("probe is degenerate with fewer than two nodes")
    if not np.any(weights != 0.0):
        raise InputError("weights must not all vanish")
    scale = max(1.0, float(np.abs(nodes).max()))
    diff = nodes[:, None, :] - nodes[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    off = ~np.eye(len(nodes), dtype=bool)
    if np.any(dist[off] < 1e-12 * scale):
        i, j = np.argwhere(off & (dist < 1e-12 * scale))[0]
        raise InputError(f"nodes {i} and {j} coincide; the kernel diagonal is singular")
    pvals = op.symbol(nodes)
    # evaluate densely; mask the diagonal afterwards
    denom = op.symbol(diff.reshape(-1, op.n)).reshape(len(nodes), len(nodes))
    numer = pvals[:, None] + pvals[None, :]
    ww = weights[:, None] * weights[None, :]
    total = float((numer[off] / denom[off] * ww[off]).sum())
    return total


# -- operator description files ---------------------------------------------


def operator_to_dict(op):
    return {
        "n": op.n,
        "m": op.m,
        "name": op.name,
        "symbol_convention": SYMBOL_CONVENTION,
        "coefficients": [
            {"alpha": list(alpha), "beta": list(beta), "value": value}
            for (alpha, beta), value in sorted(op.coefficients.items())
        ],
    }


def operator_from_dict(data):
    coeffs = {}
    for entry in data["coefficients"]:
        key = (tuple(entry["alpha"]), tuple(entry["beta"]))
        coeffs[key] = coeffs.get(key, 0.0) + float(entry["value"])
    return EllipticOperator(int(data["n"]), int(data["m"]), coeffs, name=data.get("name", ""))


def save_operator(op, path):
    with open(path, "w") as fh:
        json.dump(operator_to_dict(op), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_operator(path):
    with open(path) as fh:
        return operator_from_dict(json.load(fh))
