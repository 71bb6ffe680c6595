import tracemalloc

import numpy as np
import pytest

from polycap import (Ball, Box, Cone, ConvergenceError, Cusp, EllipticOperator, EnergyForm,
                     Grid, InconclusiveError, InputError, Intersection, Mask, Ray,
                     Union, UnsupportedRegimeError, annulus_series, bessel_capacity, bump,
                     cap_m, laplacian, solve_constrained)
from polycap import solvers
from polycap.radial import (AxisymGrid, axisym_capacity, axisym_energy_matrix,
                            ball_potential_exact, is_axisymmetric, radial_ball_potential)


def test_empty_target_is_zero():
    grid = Grid(3, 0.25, 8)
    empty = Mask(grid, np.zeros(grid.shape, dtype=bool))
    assert cap_m(empty, 1, grid).value == 0.0
    assert bessel_capacity(empty, 1, grid).value == 0.0


def test_cg_non_convergence_is_typed_and_inconclusive(monkeypatch):
    # one preconditioned CG step cannot reach rtol on 13^3 nodes
    monkeypatch.setattr(solvers, "_CG_MAXITER", 1)
    grid = Grid(3, 0.25, 6)
    form = EnergyForm("homogeneous_m", grid, 1)
    with pytest.raises(ConvergenceError) as exc:
        solve_constrained(form, Ball(0.5).mask(grid).where, 1.0)
    assert isinstance(exc.value, InconclusiveError)


_ANISOTROPIC = EllipticOperator(3, 1, {
    ((1, 0, 0), (1, 0, 0)): 1.0, ((0, 1, 0), (0, 1, 0)): 2.0,
    ((0, 0, 1), (0, 0, 1)): 0.5, ((1, 0, 0), (0, 1, 0)): 0.3}, name="anisotropic")


@pytest.mark.parametrize("kind,m,op,problem,axes", [
    # the DST round is only spectrally equivalent
    pytest.param("homogeneous_m", 2, None, "ball", (0, 1, 2), id="homogeneous_m-2-None-False"),
    pytest.param("inhomogeneous_m", 2, None, "ball", (0, 1, 2),
                 id="inhomogeneous_m-2-None-False"),
    # folded-stencil path; the xy cross term leaves only the z reflection
    pytest.param("operator_form", 1, _ANISOTROPIC, "ball", (2,), id="operator_form-1-op2-False"),
    # rhs with zero fixed values, the source off centre along z
    pytest.param("operator_form", 1, laplacian(3), "dirichlet", (0, 1),
                 id="operator_form-1-op3-True"),
    # an axis beyond the dense sine matrix folds through the DCT pair, the
    # source off centre along y
    pytest.param("operator_form", 1, laplacian(2), "dirichlet", (0,),
                 id="operator_form-1-op4-True"),
    # the source off both centre planes: the whole-grid scipy.fft DST-I
    pytest.param("operator_form", 1, laplacian(2), "dirichlet_off_centre", (),
                 id="operator_form-1-op4-off-centre"),
    pytest.param("homogeneous_m", 2, None, "shifted_ball", (0, 1), id="m2_ball_off_centre_in_z"),
    pytest.param("homogeneous_m", 2, None, "ball_and_node", (), id="m2_ball_and_one_node"),
])
def test_constrained_solve_matches_direct(monkeypatch, kind, m, op, problem, axes):
    from scipy.sparse.linalg import spsolve

    rtol = 1e-10
    monkeypatch.setattr(solvers, "_CG_RTOL", rtol)
    # the 2-d axis of 629 nodes takes scipy.fft: the DST-I, 2 (629 + 1) =
    # 2^2 3^2 5 7, or on the half grid the DCT pair of length 315 = 3^2 5 7
    grid = Grid(3, 0.25, 6) if op is None or op.n == 3 else Grid(2, 0.02, 314)
    assert (grid.shape[0] > solvers._DENSE_MAX_AXIS) == (grid.n == 2)
    form = EnergyForm(kind, grid, m, op=op)
    radius = np.linalg.norm(grid.coords(), axis=-1)
    if problem.startswith("dirichlet"):
        fixed, values = radius > 1.2, 0.0
        centre = (0.0,) * (grid.n - 1) + (0.3,)
        if problem == "dirichlet_off_centre":
            centre = (0.2,) + centre[1:]
        rhs = grid.h**grid.n * bump(grid, centre, 0.6)
    else:
        if problem == "shifted_ball":
            radius = np.linalg.norm(grid.coords() - (0.0, 0.0, 0.25), axis=-1)
        fixed, values, rhs = radius <= 0.5, 1.0, None
        if problem == "ball_and_node":
            # off every centre plane, so it breaks all three reflections
            fixed[7, 8, 9] = True
    u, info = solve_constrained(form, fixed, values, rhs=rhs)
    assert info["mirror_axes"] == axes
    A = form.tosparse()
    free = ~fixed.ravel()
    ref = np.zeros(grid.size)
    ref[~free] = values
    b = -(A @ ref) + (0.0 if rhs is None else rhs.ravel())
    ref[free] = spsolve(A[free][:, free].tocsc(), b[free])
    assert np.abs(u.ravel() - ref).max() <= 1e-8 * np.abs(ref).max()
    assert info["residual"] <= rtol
    assert info["energy"] == pytest.approx(float(ref @ (A @ ref)), rel=1e-8)
    assert 0 < info["iterations"] <= 200


@pytest.mark.parametrize("m,op,axes", [(2, None, (0, 1, 2)), (1, _ANISOTROPIC, (2,))],
                         ids=["homogeneous_m2", "anisotropic"])
def test_folded_solve_repeats_the_whole_grid_iterations(monkeypatch, m, op, axes):
    # the plain whole-grid loop: PCG on every node with the full DST round
    grid = Grid(3, 0.25, 6)
    form = EnergyForm("homogeneous_m" if op is None else "operator_form", grid, m, op=op)
    fixed = Ball(0.5).mask(grid).where
    free = (~fixed).astype(float)
    x = fixed.astype(float)
    r = -form.apply(x) * free
    precond = solvers._dst_round(form, ())
    whole = solvers._pcg(lambda p: form.apply(p) * free, lambda v: precond(v) * free,
                         x, r, 1e-10, float(np.linalg.norm(r)), 200)
    monkeypatch.setattr(solvers, "_CG_RTOL", 1e-10)
    u, info = solve_constrained(form, fixed, 1.0)
    assert info["mirror_axes"] == axes
    assert info["iterations"] == whole <= 200
    # the same iterates up to rounding: the two loops sum in another order
    assert np.abs(u - x).max() <= 1e-9


def test_solve_refuses_a_fixed_value_that_is_not_a_scalar():
    # the mirror check reads the mask and the source, not a start array
    grid = Grid(3, 0.25, 6)
    form = EnergyForm("homogeneous_m", grid, 1)
    fixed = Ball(0.5).mask(grid).where
    for values in (np.ones(grid.shape), np.array([1.0]), [1.0]):
        with pytest.raises(InputError, match="scalar"):
            solve_constrained(form, fixed, values)
    u, info = solve_constrained(form, fixed, np.float64(1.0))
    assert np.array_equal(u, solve_constrained(form, fixed, 1.0)[0])


@pytest.mark.memory
def test_mirrored_solve_memory_does_not_grow_with_its_iterations(monkeypatch):
    grid = Grid(3, 0.0625, 24)
    form = EnergyForm("homogeneous_m", grid, 2)
    fixed = Ball(0.5).mask(grid).where
    solve_constrained(form, fixed, 1.0)
    peaks, iterations = [], []
    for rtol in (1e-3, 1e-12):
        monkeypatch.setattr(solvers, "_CG_RTOL", rtol)
        tracemalloc.start()
        try:
            _, info = solve_constrained(form, fixed, 1.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert info["mirror_axes"] == (0, 1, 2)
        iterations.append(info["iterations"])
    assert iterations[0] <= 5 and iterations[1] >= 25
    # every array of the loop is allocated before it, so the peak stays
    # within a small part of one half-grid array (25^3 doubles); Python's
    # free lists still grow by a few bytes per iteration
    assert abs(peaks[1] - peaks[0]) < 8 * 25**3 / 32


@pytest.mark.parametrize("n,N", [(3, 33), (5, 11)])
def test_dense_sine_round_matches_scipy_fft(n, N):
    import scipy.fft as sfft

    rng = np.random.default_rng(n)
    v = rng.standard_normal((N,) * n)
    spec = 1.0 + rng.random((N,) * n)
    ref = sfft.idstn(sfft.dstn(v, type=1, norm="ortho") / spec, type=1, norm="ortho")
    forward, inverse, _ = solvers._axis_factors(N, False)
    bufs = np.empty((2, v.size))
    dense = solvers._passes(v, (forward,) * n, (inverse,) * n, spec, bufs)
    assert np.abs(dense - ref).max() <= 1e-13 * np.abs(ref).max()
    # the round writes into the two buffers and leaves its input alone
    assert np.shares_memory(dense, bufs)
    assert np.array_equal(v, np.random.default_rng(n).standard_normal((N,) * n))


@pytest.mark.parametrize("N", [601, 1025])
def test_folded_dct_round_matches_the_odd_sine_block(N):
    # past the dense route the folded axis takes the DCT-III/DCT-II pair, the
    # odd-mode block of the sine matrix up to column signs that cancel
    assert N > solvers._DENSE_MAX_AXIS
    e = N // 2
    odd = solvers._sine_matrix(N)[e:, ::2] * np.sqrt(np.r_[1.0, np.full(e, 2.0)])[:, None]
    rng = np.random.default_rng(N)
    v = rng.standard_normal((3, e + 1))
    spec = 1.0 + rng.random((3, e + 1))
    forward, inverse, lam = solvers._axis_factors(N, True)
    ref = ((v @ odd) / spec) @ odd.T
    got = inverse(forward(v, None) / spec, None)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(lam, solvers._axis_factors(N, False)[2][::2])


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
    exact = ball_potential_exact(1, 3, 1.0)[2]
    assert exact == pytest.approx(4 * np.pi, rel=1e-12)
    fd = radial_ball_potential(1, 3, 1.0, h=0.01, box=150.0)[2]
    assert fd == pytest.approx(exact, rel=2e-3)
    exact25 = ball_potential_exact(2, 5, 1.0)[2]
    assert exact25 == pytest.approx(24 * np.pi**2, rel=1e-12)
    fd25 = radial_ball_potential(2, 5, 1.0, h=0.01, box=150.0)[2]
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
            return np.zeros((), dtype=bool)

    s = annulus_series(Nothing(0.0), 1, 3, j_range=(0, 6), nodes_per_rho=6)
    assert all(c == 0.0 for c in s.capacity)


def test_annulus_series_union_of_bodies_of_revolution_takes_the_axisym_backend():
    s = annulus_series(Union((Cone(np.pi / 4), Cusp("power", 2))), 1, 3, j_range=(0, 4),
                       nodes_per_rho=6)
    assert s.metadata["backend"] == "axisym"
    # the cusp part is thinner than the spacing, rho^2 < rho / 6, below rho = 1/6
    assert s.metadata["resolved"] == [True, True, True, False, False]


def test_annulus_series_union_with_an_off_axis_ball_takes_the_cartesian_backend():
    off_axis = Ball(0.05, (0.3, 0.0, 0.0))
    assert is_axisymmetric(Intersection((Cone(np.pi / 4), Ball(1.0))), 3)
    assert not is_axisymmetric(Intersection((Cone(np.pi / 4), off_axis)), 3)
    s = annulus_series(Union((Cone(np.pi / 4), off_axis)), 1, 3, j_range=(0, 1),
                       nodes_per_rho=6)
    assert s.metadata["backend"] == "cartesian"
    assert s.metadata["resolved"] == [True, True]


def test_annulus_series_rejects_unknown_backend():
    with pytest.raises(InputError):
        annulus_series(Cone(np.pi / 3), 1, 3, backend="bogus")


def test_n_2m_series_records_the_cartesian_grid_it_runs_on():
    # the README's wiener --m 1 --n 2 example: one global Cartesian grid
    s = annulus_series(Ray(axis=1), 1, 2, j_range=(0, 5))
    assert s.metadata["backend"] == "cartesian"


@pytest.mark.parametrize("region, m, n, reason", [
    (Ray(axis=1), 1, 2, "n = 2m series runs on one global Cartesian grid"),
    (Ray(axis=0), 1, 3, "body of revolution about the last axis"),
    (Union((Cone(np.pi / 4), Ball(0.05, (0.3, 0.0, 0.0)))), 1, 3, "body of revolution"),
    (Cone(np.pi / 4), 3, 7, "m = 1 and m = 2, not m = 3"),
], ids=["n_2m", "ray_about_x", "off_axis_ball", "m_3"])
def test_forced_axisym_series_the_rz_grid_cannot_hold_is_unsupported(region, m, n, reason):
    with pytest.raises(UnsupportedRegimeError, match=reason):
        annulus_series(region, m, n, j_range=(0, 2), backend="axisym")


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


def test_annulus_series_scales_are_dilations_off_the_dyadic_ladder():
    # every scale, dyadic or not, must be a dilation of the first, so the
    # normalised full-ball capacities agree
    s = annulus_series(Cone(np.pi / 4), 1, 3, backend="axisym", nodes_per_rho=5,
                       rho_list=[1.0, 0.7, 0.45, 0.3, 0.2, 0.13])
    normalised = np.array(s.ball_capacity) / np.array(s.rho) ** (3 - 2 * 1)
    assert np.all(np.abs(normalised / normalised[0] - 1.0) <= 1e-12)


def test_annulus_series_refuses_an_oversized_global_grid():
    # n = 2m: one global grid resolving the finest scale; (3, 6) at the
    # default scales would need about 5e22 nodes
    with pytest.raises(UnsupportedRegimeError, match="3,000,000"):
        annulus_series(Cone(np.pi / 4), 3, 6)


def test_oversized_series_names_the_axisymmetric_backend_only_where_it_serves():
    # 73^7 Cartesian nodes; the (r, z) backend takes m <= 2 only
    with pytest.raises(UnsupportedRegimeError, match="reduce nodes_per_rho$"):
        annulus_series(Cone(np.pi / 4), 3, 7)
    with pytest.raises(UnsupportedRegimeError, match="or use the axisymmetric backend$"):
        annulus_series(Cone(np.pi / 4), 2, 7, backend="cartesian")


def test_annulus_series_rejects_bad_scale_parameters():
    for kwargs in ({"nodes_per_rho": 0}, {"nodes_per_rho": -3}):
        with pytest.raises(InputError):
            annulus_series(Cone(np.pi / 4), 1, 3, **kwargs)


@pytest.mark.parametrize("backend", ["axisym", "cartesian"])
def test_annulus_series_node_counts_are_the_slab_nodes(backend):
    # the count of nodes of each slab B_rho minus the domain on its own grid,
    # not the size of that grid
    cone = Cone(np.pi / 4)
    series = annulus_series(cone, 1, 3, j_range=(0, 2), backend=backend, nodes_per_rho=6)
    extent = round(3.0 * 6)
    for rho, count in zip(series.rho, series.metadata["node_counts"]):
        slab = Intersection((cone, Ball(rho)))
        if backend == "axisym":
            grid = AxisymGrid(3, rho / 6, extent, extent)
            nodes = grid.mask_from_region(slab)
        else:
            grid = Grid(3, rho / 6, extent)
            nodes = slab.mask(grid).where
        assert 0 < count == int(nodes.sum()) < nodes.size


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
