import numpy as np
import pytest

from polycap import (Ball, Box, Cone, ConvergenceError, Cusp, EllipticOperator, EnergyForm,
                     Grid, InconclusiveError, InputError, Intersection, Mask, Ray,
                     UnsupportedRegimeError, annulus_series, bessel_capacity, bump, cap_m,
                     exact_ball_capacity, laplacian, solve_constrained)
from polycap import solvers
from polycap.radial import (AxisymGrid, axisym_capacity, axisym_energy_matrix,
                            radial_ball_capacity)


def test_empty_target_is_zero():
    grid = Grid(3, 0.25, 8)
    empty = Mask(grid, np.zeros(grid.shape, dtype=bool))
    assert cap_m(empty, 1, grid).value == 0.0
    assert bessel_capacity(empty, 1, grid).value == 0.0


def test_cg_non_convergence_is_typed_and_inconclusive():
    # one preconditioned CG step cannot reach rtol on 13^3 nodes
    grid = Grid(3, 0.25, 6)
    form = EnergyForm("homogeneous_m", grid, 1)
    with pytest.raises(ConvergenceError) as exc:
        solve_constrained(form, Ball(0.5).mask(grid).where, 1.0, maxiter=1)
    assert isinstance(exc.value, InconclusiveError)


_ANISOTROPIC = EllipticOperator(3, 1, {
    ((1, 0, 0), (1, 0, 0)): 1.0, ((0, 1, 0), (0, 1, 0)): 2.0,
    ((0, 0, 1), (0, 0, 1)): 0.5, ((1, 0, 0), (0, 1, 0)): 0.3}, name="anisotropic")


@pytest.mark.parametrize("kind,m,op,dirichlet", [
    ("homogeneous_m", 2, None, False),  # the DST round is only spectrally equivalent
    ("inhomogeneous_m", 2, None, False),
    ("operator_form", 1, _ANISOTROPIC, False),  # folded-stencil path
    ("operator_form", 1, laplacian(3), True),  # rhs with zero fixed values
    ("operator_form", 1, laplacian(2), True),  # an axis beyond the dense sine matrix
])
def test_constrained_solve_matches_direct(kind, m, op, dirichlet):
    from scipy.sparse.linalg import spsolve

    # the 2-d axis of 629 nodes takes the scipy.fft DST-I; 2 (629 + 1) =
    # 2^2 3^2 5 7 keeps that transform fast
    grid = Grid(3, 0.25, 6) if op is None or op.n == 3 else Grid(2, 0.02, 314)
    assert (grid.shape[0] > solvers._DENSE_MAX_AXIS) == (grid.n == 2)
    form = EnergyForm(kind, grid, m, op=op)
    radius = np.linalg.norm(grid.coords(), axis=-1)
    if dirichlet:
        fixed, values = radius > 1.2, 0.0
        rhs = grid.h**grid.n * bump(grid, (0.0,) * (grid.n - 1) + (0.3,), 0.6)
    else:
        fixed, values, rhs = radius <= 0.5, 1.0, None
    rtol, maxiter = 1e-10, 200
    u, info = solve_constrained(form, fixed, values, rhs=rhs, rtol=rtol, maxiter=maxiter)
    A = form.tosparse()
    free = ~fixed.ravel()
    ref = np.zeros(grid.size)
    ref[~free] = values
    b = -(A @ ref) + (0.0 if rhs is None else rhs.ravel())
    ref[free] = spsolve(A[free][:, free].tocsc(), b[free])
    assert np.abs(u.ravel() - ref).max() <= 1e-8 * np.abs(ref).max()
    assert info["residual"] <= rtol
    assert 0 < info["iterations"] <= maxiter


@pytest.mark.parametrize("n,N", [(3, 33), (5, 11)])
def test_dense_sine_round_matches_scipy_fft(n, N):
    rng = np.random.default_rng(n)
    v = rng.standard_normal((N,) * n)
    spec = 1.0 + rng.random((N,) * n)
    ref = solvers._dst_solve(v, spec, None)
    dense = solvers._dst_solve(v, spec, solvers._sine_matrix(N))
    assert np.abs(dense - ref).max() <= 1e-13 * np.abs(ref).max()


def test_regime_guard():
    with pytest.raises(UnsupportedRegimeError):
        cap_m(Ball(0.5), 2, Grid(4, 0.25, 8))


def test_ball_capacity_against_4pi():
    # box-extrapolated pair of coarse boxes lands within a few percent
    grid = Grid(3, 0.2, 20)
    value = cap_m(Ball(1.0), 1, grid, box_levels=2)
    assert value.value == pytest.approx(4 * np.pi, rel=0.10)


def test_monotone_in_target():
    grid = Grid(3, 0.25, 10)
    small = cap_m(Ball(0.6), 1, grid).value
    big = cap_m(Ball(1.0), 1, grid).value
    assert small <= big + 1e-10


def test_subadditive_on_random_blocks():
    grid = Grid(2, 0.25, 10)
    rng = np.random.default_rng(9)
    for _ in range(3):
        c1, c2 = rng.uniform(-1.0, 1.0, size=(2, 2))
        b1 = Box(((c1[0] - 0.3, c1[0] + 0.3), (c1[1] - 0.3, c1[1] + 0.3)))
        b2 = Box(((c2[0] - 0.3, c2[0] + 0.3), (c2[1] - 0.3, c2[1] + 0.3)))
        m1 = b1.mask(grid)
        m2 = b2.mask(grid)
        union = Mask(grid, m1.where | m2.where)
        a = bessel_capacity(m1, 1, grid).value
        b = bessel_capacity(m2, 1, grid).value
        u = bessel_capacity(union, 1, grid).value
        assert u <= a + b + 1e-9


def test_bessel_disk_log_capacity():
    # small disk in the borderline dimension: condenser-type value 2 pi / log(1/r)
    grid = Grid(2, 0.05, 20)
    val = bessel_capacity(Ball(0.1), 1, grid).value
    assert val == pytest.approx(2 * np.pi / np.log(10.0), rel=0.25)


def test_radial_matches_cartesian_and_exact():
    exact = exact_ball_capacity(1, 3, 1.0)
    assert exact == pytest.approx(4 * np.pi, rel=1e-12)
    fd = radial_ball_capacity(1, 3, 1.0, h=0.01, box=150.0)
    assert fd == pytest.approx(exact, rel=2e-3)
    exact25 = exact_ball_capacity(2, 5, 1.0)
    assert exact25 == pytest.approx(24 * np.pi**2, rel=1e-12)
    fd25 = radial_ball_capacity(2, 5, 1.0, h=0.01, box=150.0)
    assert fd25 == pytest.approx(exact25, rel=5e-3)


def test_axisym_ball_extrapolates_to_exact():
    # cylinder truncation decays like 1/R as well; two boxes reach the free value
    c1, _, _ = axisym_capacity(Ball(1.0), 1, 3, 0.05, 6.0)
    c2, _, _ = axisym_capacity(Ball(1.0), 1, 3, 0.05, 12.0)
    extrapolated = 2.0 * c2 - c1
    assert extrapolated == pytest.approx(4 * np.pi, rel=0.05)


def test_homogeneity_same_spacing_axisym():
    # cap(2K) / cap(K) -> 2^(n-2m) with one spacing for both radii
    for (m, n, h, box) in ((1, 3, 0.05, 8.0), (2, 5, 0.05, 8.0)):
        c1, _, _ = axisym_capacity(Ball(1.0), m, n, h, box)
        c2, _, _ = axisym_capacity(Ball(2.0), m, n, h, 2 * box)
        assert c2 / c1 == pytest.approx(2.0 ** (n - 2 * m), rel=0.10)


def test_annulus_series_empty_complement():
    class Nothing(Ball):
        def contains(self, points):
            return np.zeros(points.shape[0], dtype=bool)

    s = annulus_series(Nothing(0.0), 1, 3, j_range=(0, 6), nodes_per_rho=6)
    assert all(c == 0.0 for c in s.capacity)


def test_annulus_series_rejects_unknown_backend():
    with pytest.raises(InputError):
        annulus_series(Cone(np.pi / 3), 1, 3, backend="bogus")


@pytest.mark.parametrize("region, m, n, npr, backend, solves", [
    (Cone(np.pi / 4), 2, 5, 8, "axisym", 2),
    (Cone(np.pi / 4), 1, 3, 5, "cartesian", 2),
    (Cusp("power", 2.0), 2, 6, 12, "axisym", 5),
])
def test_annulus_series_solves_each_node_set_once(monkeypatch, region, m, n, npr, backend,
                                                  solves):
    # every scale's grid is a dilation of the first, so a node mask met before
    # is rescaled by (h/h0)^(n-2m) instead of being solved again, and the
    # (r, z) energy matrix is assembled once and rescaled the same way
    import polycap.capacity as capacity
    import polycap.radial as radial

    calls = []
    for module, name in ((capacity, "cap_m"), (capacity, "axisym_capacity"),
                         (capacity, "axisym_energy_matrix"),
                         (radial, "axisym_energy_matrix")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    s = annulus_series(region, m, n, j_range=(0, 8), nodes_per_rho=npr, backend=backend)
    assert len(calls) - calls.count("axisym_energy_matrix") == solves
    assert calls.count("axisym_energy_matrix") == (backend == "axisym")
    monkeypatch.undo()
    for rho, cap, ball in zip(s.rho, s.capacity, s.ball_capacity):
        h = rho / npr
        for target, value in ((Intersection((region, Ball(rho))), cap), (Ball(rho), ball)):
            if backend == "axisym":
                # dyadic scales: the rescaled matrix is bitwise a fresh assembly
                assert value == axisym_capacity(target, m, n, h, 3.0 * rho)[0]
            else:
                fresh = cap_m(target, m, Grid(n, h, int(round(3.0 * npr)))).value
                assert value == pytest.approx(fresh, rel=1e-12, abs=0.0)


def test_annulus_series_refuses_an_oversized_global_grid():
    # n = 2m: one global grid resolving the finest scale; (3, 6) at the
    # default scales would need about 5e22 nodes
    with pytest.raises(UnsupportedRegimeError, match="3,000,000"):
        annulus_series(Cone(np.pi / 4), 3, 6)


def test_annulus_series_rejects_bad_scale_parameters():
    for kwargs in ({"nodes_per_rho": 0}, {"nodes_per_rho": -3}, {"box_factor": 0.0}):
        with pytest.raises(InputError):
            annulus_series(Cone(np.pi / 4), 1, 3, **kwargs)


def test_axisym_capacity_takes_a_node_mask():
    ag = AxisymGrid(3, 0.1, 20, 20)
    nodes = ag.mask_from_region(Ball(1.0))
    assert axisym_capacity(nodes, 1, 3, 0.1, 2.0)[0] == axisym_capacity(Ball(1.0), 1, 3, 0.1,
                                                                        2.0)[0]
    with pytest.raises(InputError):
        axisym_capacity(nodes, 1, 3, 0.1, 3.0)
    # a supplied energy matrix is used as given, and must fit the grid
    A = axisym_energy_matrix(ag, 1)
    assert (axisym_capacity(nodes, 1, 3, 0.1, 2.0, energy=A)[0]
            == axisym_capacity(nodes, 1, 3, 0.1, 2.0)[0])
    with pytest.raises(InputError):
        axisym_capacity(nodes, 1, 3, 0.1, 2.0,
                        energy=axisym_energy_matrix(AxisymGrid(3, 0.1, 20, 19), 1))


def test_annulus_series_ray_scaling():
    # rasterized needle: per-scale capacity proportional to the scale
    s = annulus_series(Ray(axis=2), 1, 3, j_range=(0, 5), nodes_per_rho=10)
    caps = np.array(s.capacity)
    ratios = caps[:-1] / caps[1:]
    assert np.all(np.abs(ratios - 2.0) <= 0.3)


def test_annulus_series_cone_dilation_invariance():
    s = annulus_series(Cone(np.pi / 4), 2, 5, j_range=(0, 5), nodes_per_rho=8)
    w = s.weighted_terms()
    assert np.all(np.abs(w / w[0] - 1.0) <= 0.15)


def test_cap_refinement_stability():
    coarse = cap_m(Ball(1.0), 1, Grid(3, 0.25, 10), box_levels=2)
    fine = cap_m(Ball(1.0), 1, Grid(3, 0.125, 20), box_levels=2)
    assert fine.value == pytest.approx(coarse.value, rel=0.08)
    # the halving change stays inside the reported truncation estimates
    assert abs(fine.value - coarse.value) <= (coarse.refinement_estimate
                                              + fine.refinement_estimate)


def test_mask_at_boundary_rejected():
    grid = Grid(3, 0.25, 8)
    with pytest.raises(InputError):
        cap_m(Ball(2.0), 1, grid)


def test_deterministic_rerun():
    grid = Grid(3, 0.2, 12)
    a = cap_m(Ball(1.0), 1, grid).value
    b = cap_m(Ball(1.0), 1, grid).value
    assert a == b
