import numpy as np
import pytest

from polycap import (Ball, Box, EllipticOperator, Grid, InputError, Mask, Shell, Union,
                     cap_m, capacitary_potential, evaluate_ball_potential, gradient_decay_check, laplacian,
                     lower_bound_check, maximal_bound_check, polyharmonic, range_check,
                     sign_probe, stationarity_check)
from polycap.solvers import solve_constrained


@pytest.fixture(scope="module")
def newton_ball():
    # box radius 4 keeps the run light; far-field checks use radii <= 3
    return capacitary_potential(laplacian(3), Ball(1.0), Grid(3, 0.1, 40))


def test_newton_potential_matches_inverse_radius():
    # the 5% pointwise oracle needs a far outer boundary; the radial solver
    # affords box 300 where truncation is sub-percent
    from polycap import radial_ball_potential

    rg, u, cap = radial_ball_potential(1, 3, 1.0, h=0.01, box=300.0)
    sel = (rg.r >= 1.2) & (rg.r <= 3.0)
    assert np.abs(u[sel] * rg.r[sel] - 1.0).max() <= 0.05
    assert cap == pytest.approx(4 * np.pi, rel=0.01)


def test_newton_ball_energy_near_capacity(newton_ball):
    # a single truncated box overshoots the free-space value by the condenser
    # factor ~ (1 - 1/R_eff)^-1; at box 4 that is ~ +22%
    assert 4 * np.pi < newton_ball.energy < 1.35 * 4 * np.pi


def test_empty_target():
    grid = Grid(3, 0.25, 8)
    empty = Mask(grid, np.zeros(grid.shape, dtype=bool))
    rep = capacitary_potential(laplacian(3), empty, grid)
    assert rep.energy == 0.0 and np.all(rep.u == 0.0)


def test_non_polyharmonic_operator_takes_a_second_solve_for_the_m_capacity():
    # diag(1, 1, 2) is not (-Delta)^1, so capacity_m is a cap_m solve of its
    # own; the forms obey I <= diag(1, 1, 2) <= 2 I, which puts the operator
    # energy between the m-capacity and twice it
    op = EllipticOperator(3, 1, {((1, 0, 0), (1, 0, 0)): 1.0, ((0, 1, 0), (0, 1, 0)): 1.0,
                                 ((0, 0, 1), (0, 0, 1)): 2.0}, name="diag(1,1,2)")
    grid = Grid(3, 0.2, 10)
    rep = capacitary_potential(op, Ball(0.5), grid)
    assert rep.capacity_m == cap_m(Ball(0.5).mask(grid), 1, grid).value
    assert rep.capacity_m < rep.energy < 2.0 * rep.capacity_m
    assert rep.solver["mirror_axes"] == (0, 1, 2)


def test_mask_of_another_grid_is_refused():
    # the report's checks read the grid from its mask, so it must be the solve's
    mask = Ball(1.0).mask(Grid(3, 0.25, 8))
    with pytest.raises(InputError):
        capacitary_potential(laplacian(3), mask, Grid(3, 0.2, 8))


def test_range_check_pass_and_fail(newton_ball):
    res = range_check(newton_ball)
    assert res["passed"] and res["min"] > -1e-6 and res["max"] < 1.0 + 1e-6
    flipped = capacitary_potential(laplacian(3), Ball(1.0), Grid(3, 0.25, 8))
    flipped.u = -flipped.u
    flipped.range_off_mask = (-flipped.range_off_mask[1], -flipped.range_off_mask[0])
    assert not range_check(flipped)["passed"]


def test_stationarity(newton_ball):
    assert stationarity_check(newton_ball, laplacian(3)) <= 1e-6


def test_newtonian_consistency_independent_solver():
    """The operator-form route equals a hand-built second-order solve."""
    from scipy.sparse import identity, kron, diags
    from scipy.sparse.linalg import spsolve

    grid = Grid(3, 0.25, 8)
    rep = capacitary_potential(laplacian(3), Ball(1.0), grid, rtol=1e-12)
    M = 2 * grid.extent + 1
    one = np.ones(M)
    T1 = diags([-one[1:], 2 * one, -one[1:]], [-1, 0, 1])
    eye = identity(M)
    A = (kron(kron(T1, eye), eye) + kron(kron(eye, T1), eye)
         + kron(kron(eye, eye), T1)).tocsr() * grid.h ** (3 - 2)
    fixed = Ball(1.0).mask(grid).where.ravel()
    free = ~fixed
    u = np.zeros(grid.size)
    u[fixed] = 1.0
    rhs = -(A @ u)[free]
    u[free] = spsolve(A[free][:, free].tocsc(), rhs)
    assert np.abs(u.reshape(grid.shape) - rep.u).max() <= 1e-8


def test_gradient_ratios_in_kernel_units():
    # gradients are flux-like and box-insensitive: r_1 = 1 sharply even in a
    # truncated box; the value ratio r_0 needs the far radial box instead
    rep = capacitary_potential(laplacian(3), Ball(1.0), Grid(3, 0.1, 80))
    out = gradient_decay_check(rep, orders=(1,), probe_radii=(1.5, 2.0))
    for row in out["orders"][1]["probes"]:
        assert row["riesz_unit_mean"] == pytest.approx(1.0, abs=0.15)
    from polycap import radial_ball_potential

    rg, u, cap = radial_ball_potential(1, 3, 1.0, h=0.01, box=300.0)
    for rho in (1.5, 2.0, 3.0):
        i = int(np.argmin(np.abs(rg.r - rho)))
        r0 = u[i] * rg.r[i] * 4 * np.pi / cap
        assert r0 == pytest.approx(1.0, abs=0.15)


def test_lower_bound_positive_and_stable():
    vals = []
    for h, ext in ((0.2, 20), (0.1, 40)):
        rep = capacitary_potential(laplacian(3), Ball(1.0), Grid(3, h, ext))
        res = lower_bound_check(rep, 1.0, probe_radii=(1.5, 2.0))
        assert res["passed"] and res["fitted_c"] > 0.0
        # analytic untruncated value is (1/|y|)(|y|+1)/cap >= 1/(4 pi);
        # box truncation halves it at worst on these probes
        assert res["fitted_c"] >= 0.5 / (4 * np.pi)
        vals.append(res["fitted_c"])
    assert vals[1] == pytest.approx(vals[0], rel=0.25)


def test_maximal_bound_shell_and_stability():
    grids = (Grid(3, 0.15, 20), Grid(3, 0.1, 30))
    ratios = {0: [], 1: []}
    for g in grids:
        out = maximal_bound_check(laplacian(3), Shell(0.6, 1.0), g, theta=0.5, rho=1.0,
                                  orders=(0, 1))
        for ell in (0, 1):
            ratios[ell].append(out["orders"][ell]["ratio"])
    for ell in (0, 1):
        a, b = ratios[ell]
        assert b == pytest.approx(a, rel=0.25)
    # empty target: zero maximal value
    g = grids[0]
    empty = Mask(g, np.zeros(g.shape, dtype=bool))
    out = maximal_bound_check(laplacian(3), empty, g, theta=0.5, rho=1.0, orders=(0,))
    assert out["orders"][0]["maximal_value"] == 0.0


def test_maximal_annulus_validation():
    g = Grid(3, 0.2, 10)
    with pytest.raises(InputError):
        maximal_bound_check(laplacian(3), Ball(1.0), g, theta=0.5, rho=1.0)


def test_sign_probe_newtonian_silent():
    g = Grid(3, 0.15, 14)
    # two cubes of half width 0.3, 0.6 apart along the first axis
    side = (-0.3, 0.3)
    blocks = Union((Box(((-0.9, -0.3), side, side)), Box(((0.3, 0.9), side, side))))
    res = sign_probe(laplacian(3), {"blocks": blocks}, g)
    assert res["blocks"]["site_count"] == 0


def test_sign_probe_u_constant_one():
    g = Grid(3, 0.25, 8)
    interior = np.zeros(g.shape, dtype=bool)
    interior[tuple(slice(2, -2) for _ in range(3))] = True
    res = sign_probe(laplacian(3), {"all": Mask(g, interior)}, g)
    assert res["all"]["site_count"] == 0


def test_fitted_constants_deterministic_and_form_translation_invariant():
    # solve-level one-node shifts inside a fixed box change the distance to
    # the outer boundary, a physical effect; the discretization itself has no
    # preferred origin, which the rolled-form energy identity certifies, and
    # repeated runs are bitwise identical
    g = Grid(3, 0.2, 12)
    a = capacitary_potential(laplacian(3), Ball(0.8), g)
    b = capacitary_potential(laplacian(3), Ball(0.8), g)
    assert a.energy == b.energy
    from polycap.energy import EnergyForm

    rng = np.random.default_rng(1)
    u = np.zeros(g.shape)
    u[8:16, 8:16, 8:16] = rng.standard_normal((8, 8, 8))
    form = EnergyForm("operator_form", g, 1, op=laplacian(3))
    assert form.quad(np.roll(u, 1, axis=2)) == pytest.approx(form.quad(u), rel=1e-12)


def test_exact_ball_potentials_in_range():
    r = np.geomspace(1.0, 50.0, 20000)
    for (m, n) in ((1, 3), (1, 4), (2, 5), (2, 6), (2, 7), (3, 7), (3, 8)):
        u = evaluate_ball_potential(m, n, 1.0, r)
        assert u.min() > 0.0 and u.max() <= 1.0 + 1e-12


@pytest.mark.slow
def test_biharmonic_ball_grid_range():
    # without a maximum principle the zero-extension edge sheds small negative
    # lobes into the box corners; away from the truncation edge the strict
    # range bound holds as in free space
    g = Grid(5, 0.25, 8)
    rep = capacitary_potential(polyharmonic(5, 2), Ball(1.0), g)
    r = g.radii()
    interior = (~rep.mask.where) & (r <= g.box_radius)
    assert rep.u[interior].min() > -1e-6
    assert rep.u.max() < 1.05
    assert rep.range_off_mask[0] > -1e-3  # corner lobes stay tiny


@pytest.mark.slow
def test_sign_probe_exploratory_order4():
    # oscillation of U - 1 next to K is only guaranteed for some compact set;
    # this exercises curated candidates and checks the report shape, without
    # asserting that sites are found
    g = Grid(5, 0.25, 6)
    # a comb of three teeth 0.5 apart along the first axis, and a plate
    # |x_5| <= 0.125 of half width 0.5 with the strip |x_1| < 0.375 cut out
    comb = Union(tuple(Box(((c - 0.125, c + 0.125),) + ((-0.6, 0.6),) * 4)
                       for c in (-0.5, 0.0, 0.5)))
    plate = Union(tuple(Box((x1,) + ((-0.5, 0.5),) * 3 + ((-0.125, 0.125),))
                        for x1 in ((-0.5, -0.375), (0.375, 0.5))))
    res = sign_probe(polyharmonic(5, 2), {"comb": comb, "plate": plate}, g)
    for label in ("comb", "plate"):
        assert "sites" in res[label] and "site_count" in res[label]
        assert res[label]["capacity"] > 0.0
