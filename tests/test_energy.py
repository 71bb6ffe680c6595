import numpy as np
import pytest
from scipy.integrate import quad

from polycap import (ConfigurationError, EllipticOperator, EnergyForm, Grid, InputError,
                     hardy_weighted_energy, laplacian, multi_indices, multinomial,
                     polyharmonic, unit_directions, weighted_operator_energy)
from polycap.grids import Ball
from polycap.stencils import alpha_offsets, sparse_stencil


def _tent(grid):
    """Piecewise linear tent of height 1 with support radius 1."""
    r = grid.radii()
    return np.maximum(0.0, 1.0 - r)


def test_hat_energy_matches_direct_sum():
    grid = Grid(2, 0.5, 6)
    u = _tent(grid)
    form = EnergyForm("homogeneous_m", grid, 1)
    # independent oracle: explicit sum of squared forward difference quotients
    h = grid.h
    direct = 0.0
    for axis in range(2):
        d = np.diff(u, axis=axis) / h
        direct += (d**2).sum() * h**2
    assert form.quad(u) == pytest.approx(direct, rel=1e-14)


def test_operator_form_of_polyharmonic_matches_homogeneous():
    grid = Grid(2, 0.5, 6)
    a = EnergyForm("homogeneous_m", grid, 2).tosparse()
    b = EnergyForm("operator_form", grid, 2, op=polyharmonic(2, 2)).tosparse()
    assert abs(a - b).max() == 0.0


def test_forms_exactly_symmetric():
    grid = Grid(2, 0.4, 5)
    for kind, op in (("homogeneous_m", polyharmonic(2, 2)),
                     ("inhomogeneous_m", polyharmonic(2, 2)),
                     ("operator_form", polyharmonic(2, 2))):
        mat = EnergyForm(kind, grid, 2, op=op).tosparse()
        assert abs(mat - mat.T).max() == 0.0


def test_translation_invariance():
    grid = Grid(2, 0.5, 8)
    rng = np.random.default_rng(5)
    u = np.zeros(grid.shape)
    u[5:10, 6:11] = rng.standard_normal((5, 5))
    form = EnergyForm("homogeneous_m", grid, 1)
    base = form.quad(u)
    assert form.quad(np.roll(u, 1, axis=0)) == pytest.approx(base, abs=1e-12 * abs(base))


def test_energy_consistency_on_smooth_function():
    # the discrete order-2 energy converges to the analytic Dirichlet integral
    def exact():
        f = lambda r: np.exp(-4.0 * r**2)
        integrand = lambda r: (-8.0 * r * f(r)) ** 2 * 2 * np.pi * r
        return quad(integrand, 0, 3.0)[0]

    errs = []
    for ext, h in ((12, 0.25), (24, 0.125)):
        grid = Grid(2, h, ext)
        u = np.exp(-4.0 * grid.radii() ** 2)
        errs.append(abs(EnergyForm("homogeneous_m", grid, 1).quad(u) - exact()))
    assert errs[1] < 0.35 * errs[0]  # second order: factor ~4 per halving


def test_garding_bound_operator_vs_homogeneous():
    """Operator energy dominates lambda_min times the gradient-tensor energy."""
    op = laplacian(3)
    grid = Grid(3, 0.25, 8)
    dirs = unit_directions(3, 400)
    lam_min = float(op.symbol(dirs).min())
    rng = np.random.default_rng(7)
    u = np.zeros(grid.shape)
    u[4:13, 4:13, 4:13] = rng.standard_normal((9, 9, 9))
    a = EnergyForm("operator_form", grid, 1, op=op).quad(u)
    b = EnergyForm("homogeneous_m", grid, 1).quad(u)
    assert a >= lam_min * b * (1.0 - 1e-12)


def test_hardy_zero_and_validation():
    grid = Grid(3, 0.25, 8)
    assert hardy_weighted_energy(grid.zeros(), 1, grid) == 0.0
    u = grid.zeros()
    u[grid.origin_index()] = 1.0
    with pytest.raises(InputError):
        hardy_weighted_energy(u, 1, grid)
    with pytest.raises(InputError):
        hardy_weighted_energy(np.zeros((17, 17)), 1, grid)
    # a zero field passes the origin check; order-4 stencils need extent >= 4
    small = Grid(3, 0.25, 3)
    with pytest.raises(ConfigurationError):
        hardy_weighted_energy(small.zeros(), 2, small)


def test_hardy_radial_bump_against_quadrature():
    # u = exp(-6 (r-1)^2), vanishing near the origin to working precision
    grid = Grid(3, 0.08, 30)
    r = grid.radii()
    u = np.exp(-6.0 * (r - 1.2) ** 2)
    u[r < 0.45] = 0.0
    got = hardy_weighted_energy(u, 1, grid)

    # radial oracle: int (u')^2 r^(2-3) * 4 pi r^2 dr
    def up(rr):
        return np.where(rr < 0.45, 0.0, -12.0 * (rr - 1.2) * np.exp(-6.0 * (rr - 1.2) ** 2))

    exact = quad(lambda rr: up(rr) ** 2 * rr ** (2 - 3) * 4 * np.pi * rr**2, 0.45, 4.0)[0]
    assert got == pytest.approx(exact, rel=0.02)


def test_hardy_scale_invariance_two_grids():
    # u_t(x) = u(x/t): each summand of the weighted energy is scale free
    def field(grid, t):
        r = grid.radii() / t
        u = np.exp(-6.0 * (r - 1.2) ** 2)
        u[r < 0.45] = 0.0
        return u

    g1 = Grid(3, 0.08, 30)
    g2 = Grid(3, 0.16, 30)
    e1 = hardy_weighted_energy(field(g1, 1.0), 1, g1)
    e2 = hardy_weighted_energy(field(g2, 2.0), 1, g2)
    assert e2 == pytest.approx(e1, rel=0.05)


def test_weighted_form_dominates_hardy_for_laplacian():
    """Second-order operators are positive with their kernel weight."""
    from polycap import compute_profile

    op = laplacian(3)
    grid = Grid(3, 0.2, 10)
    profile = compute_profile(op)
    rng = np.random.default_rng(2)
    worst = np.inf
    for _ in range(6):
        u = grid.zeros()
        u[3:18, 3:18, 3:18] = rng.standard_normal((15, 15, 15))
        u[7:14, 7:14, 7:14] = 0.0  # vanish near the origin
        num = weighted_operator_energy(u, op, grid, profile)
        den = hardy_weighted_energy(u, 1, grid)
        worst = min(worst, num / den)
    assert worst > 0.0


def test_weighted_form_needs_weight_and_regime():
    from polycap import compute_profile

    # (-Delta)^2 in R^4 has no profile of its own; any profile reaches the
    # regime check
    grid = Grid(4, 0.25, 8)
    with pytest.raises(InputError):
        weighted_operator_energy(grid.zeros(), polyharmonic(4, 2), grid,
                                 compute_profile(laplacian(4)))


def _reference_matrix(kind, grid, m, op=None):
    """The module docstring's definition term by term: sum c (d^a)^T d^b with
    sparse stencils on the box padded by m, restricted to the grid."""
    n, h = grid.n, grid.h
    if kind == "homogeneous_m":
        terms = [(a, a, multinomial(a) * h ** (n - 2 * m)) for a in multi_indices(n, m)]
    elif kind == "inhomogeneous_m":
        terms = [(a, a, multinomial(a) * h ** (n - 2 * k))
                 for k in range(m + 1) for a in multi_indices(n, k)]
    else:
        terms = []
        for (a, b), v in op.coefficients.items():
            terms.append((a, b, v * h ** (n - 2 * m)))
            if a != b:
                terms.append((b, a, v * h ** (n - 2 * m)))
    padded = tuple(s + 2 * m for s in grid.shape)
    inner = np.arange(int(np.prod(padded))).reshape(padded)
    inner = inner[tuple(slice(m, m + s) for s in grid.shape)].ravel()
    mat = 0.0
    for a, b, c in terms:
        da = sparse_stencil(padded, alpha_offsets(a)).tocsc()[:, inner]
        db = sparse_stencil(padded, alpha_offsets(b)).tocsc()[:, inner]
        mat = mat + c * (da.T @ db)
    return mat.tocsr()


def _anisotropic_operator():
    # mixed m = 2 table in 3-d with off-diagonal pairs of odd multi-indices,
    # which the Laplacian-power shortcut does not cover
    return EllipticOperator(3, 2, {
        ((2, 0, 0), (2, 0, 0)): 1.0, ((0, 2, 0), (0, 2, 0)): 2.0,
        ((0, 0, 2), (0, 0, 2)): 0.5, ((2, 0, 0), (0, 2, 0)): 0.3,
        ((1, 1, 0), (1, 1, 0)): 1.5, ((1, 1, 0), (1, 0, 1)): 0.2,
        ((0, 1, 1), (2, 0, 0)): -0.1,
    }, name="anisotropic")


@pytest.mark.parametrize("kind,n,m,extent,op", [
    ("homogeneous_m", 3, 1, 4, None),
    ("homogeneous_m", 4, 2, 4, None),
    ("homogeneous_m", 5, 2, 4, None),
    ("homogeneous_m", 3, 3, 6, None),
    ("inhomogeneous_m", 4, 2, 4, None),
    ("operator_form", 3, 2, 5, polyharmonic(3, 2)),
    ("operator_form", 3, 2, 5, _anisotropic_operator()),
])
def test_forms_match_multi_index_definition(kind, n, m, extent, op):
    grid = Grid(n, 0.4, extent)
    form = EnergyForm(kind, grid, m, op=op)
    ref = _reference_matrix(kind, grid, m, op)
    u = np.random.default_rng(11).standard_normal(grid.shape)
    want = (ref @ u.ravel()).reshape(grid.shape)
    got = form.apply(u)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # work arrays reused from call to call give the same bits
    work = form.workspace(grid.shape)
    for v in (np.ones(grid.shape), u):
        reused = form.apply(v, work)
    assert np.array_equal(reused, got)
    assert (work is None) == (op is not None and form.poly is None)
    assert work is None or np.shares_memory(reused, work)
    assert form.quad(u) == float((u * got).sum())
    assert form.quad(u) == pytest.approx(float(u.ravel() @ want.ravel()), rel=1e-14)
    mat = form.tosparse()
    assert abs(mat - ref).max() <= 1e-14 * abs(ref).max()
    assert abs(mat - mat.T).max() == 0.0
