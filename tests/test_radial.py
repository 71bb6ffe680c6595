import json

import numpy as np
import pytest

from polycap import (Ball, Cone, ConvergenceError, Cusp, Intersection, annulus_series, cli,
                     laplacian, radial, regularity_probe)
from polycap.radial import (AxisymGrid, RadialGrid, axisym_capacity, axisym_dirichlet,
                            axisym_energy_matrix, radial_energy_matrix, sphere_surface)


def _axisym_energy_by_definition(u, n, m, h):
    """integral |D^m u|^2 in cylindrical form, summed with slice differences
    of the zero-extended u on cells of measure omega_(n-2) h^2 r^(n-2)."""
    Nr, Nz = u.shape
    meas = sphere_surface(n - 1) * h * h
    r = h * (np.arange(Nr) + 0.5)[:, None]
    rface = h * (np.arange(Nr) + 1.0)[:, None]
    ur = np.diff(np.pad(u, ((0, 1), (0, 0))), axis=0) / h  # r-faces (i + 1) h
    if m == 1:
        uz = np.diff(np.pad(u, ((0, 0), (1, 1))), axis=1) / h  # all Nz + 1 z-faces
        return (meas * rface ** (n - 2) * ur**2).sum() + (meas * r ** (n - 2) * uz**2).sum()
    # the even reflection across the axis puts u[0] at the ghost row -1
    ext = np.concatenate([u[:1], u, np.zeros((1, Nz))])
    urr = (ext[2:] - 2.0 * ext[1:-1] + ext[:-2]) / (h * h)
    zp = np.pad(u, ((0, 0), (1, 1)))
    uzz = (zp[:, 2:] - 2.0 * zp[:, 1:-1] + zp[:, :-2]) / (h * h)
    urz = np.diff(np.diff(np.pad(u, ((0, 1), (1, 1))), axis=0), axis=1) / (h * h)
    return ((meas * r ** (n - 2) * (urr**2 + uzz**2)).sum()
            + (2.0 * meas * rface ** (n - 2) * urz**2).sum()
            + ((n - 2.0) * meas * rface ** (n - 2) * (ur / rface) ** 2).sum())


def _radial_energy_by_definition(u, n, m, h):
    """omega_(n-1) h sum of r^(n-1) (L^(m/2) u)^2, or of face^(n-1) times the
    squared face gradient of L^((m-1)/2) u for odd m, with the conservative
    radial Laplacian L of the zero-extended u (no flux through the axis)."""
    N = u.size
    r = h * (np.arange(N) + 0.5)
    faces = h * np.arange(N + 1)

    def grad(v):  # at faces 0..N, the axis face first
        return np.diff(np.concatenate([v[:1], v, [0.0]])) / h

    def lap(v):
        flux = faces ** (n - 1) * grad(v)
        return np.diff(flux) / (h * r ** (n - 1))

    for _ in range(m // 2):
        u = lap(u)
    if m % 2:
        return sphere_surface(n) * h * (faces ** (n - 1) * grad(u) ** 2).sum()
    return sphere_surface(n) * h * (r ** (n - 1) * u**2).sum()


@pytest.mark.parametrize("n, m", [(3, 1), (4, 1), (5, 2), (6, 2), (8, 2)])
def test_axisym_energy_matches_definition(n, m):
    rng = np.random.default_rng(10 * n + m)
    ag = AxisymGrid(n, 0.3, 6, 4)
    A = axisym_energy_matrix(ag, m)
    assert abs(A - A.T).max() == 0.0
    for _ in range(3):
        u = rng.standard_normal(ag.shape)
        direct = _axisym_energy_by_definition(u, n, m, ag.h)
        assert u.ravel() @ (A @ u.ravel()) == pytest.approx(direct, rel=1e-13)


@pytest.mark.parametrize("n, m", [(3, 1), (5, 1), (5, 2), (6, 2), (8, 2)])
def test_axisym_energy_dilates_exactly(n, m):
    # the energy at spacing h0 / 2^k is 2^(k (2m - n)) times the one at h0, bitwise:
    # annulus_series rescales one assembly to every dyadic scale
    h0 = 1.0 / 12.0
    A0 = axisym_energy_matrix(AxisymGrid(n, h0, 10, 7), m)
    for k in (1, 2, 5):
        A = axisym_energy_matrix(AxisymGrid(n, h0 / 2**k, 10, 7), m)
        scaled = A0 * 2.0 ** (k * (2 * m - n))
        assert np.array_equal(A.indptr, scaled.indptr)
        assert np.array_equal(A.indices, scaled.indices)
        assert np.array_equal(A.data, scaled.data)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_radial_energy_matches_definition(n, m):
    rng = np.random.default_rng(10 * n + m)
    rg = RadialGrid(n, 0.3, 12)
    A = radial_energy_matrix(m, rg)
    # the product core^T W core is not symmetrised, so it is symmetric to rounding
    assert abs(A - A.T).max() <= 1e-15 * abs(A).max()
    for _ in range(3):
        u = rng.standard_normal(rg.nodes)
        direct = _radial_energy_by_definition(u, n, m, rg.h)
        assert u @ (A @ u) == pytest.approx(direct, rel=1e-13)


def _free_block_solve(ag, m, fixed, u, rhs, direct):
    """u off `fixed` from the free block of axisym_energy_matrix, by
    spsolve or by the direct factorisation settings of the (r, z) solver."""
    from scipy.sparse.linalg import splu, spsolve

    A = axisym_energy_matrix(ag, m)
    free = ~fixed.ravel()
    b = (rhs.ravel() - A @ u.ravel())[free]
    Aff = A[free][:, free].tocsc()
    out = u.ravel().copy()
    if direct:
        out[free] = splu(Aff, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True)).solve(b)
    else:
        out[free] = spsolve(Aff, b)
    return out.reshape(ag.shape), A


def _probe_problem(region, n, inv_h):
    """A regularity-probe Dirichlet problem on the unit half-disc: the region
    and the rim fixed at zero, a bump source centred off the axis."""
    ag = AxisymGrid(n, 1.0 / inv_h, inv_h, inv_h)
    R, Z = np.meshgrid(ag.r, ag.z, indexing="ij")
    outside = ag.mask_from_region(region) | (R**2 + Z**2 > 0.98**2)
    source = np.exp(-((R - 0.55) ** 2 + Z**2) / 0.02)
    source[outside] = 0.0
    return ag, outside, source


@pytest.mark.parametrize("m, n", [(1, 3), (2, 5)])
@pytest.mark.parametrize("region", [Cone(np.pi / 3), Cusp("exponential", 1.0)])
def test_axisym_solves_match_direct(region, m, n):
    # 128 x 257 nodes give two coarsenings above the coarsest level
    inv_h = 128
    ag, outside, source = _probe_problem(region, n, inv_h)
    free = ~outside.ravel()
    levels, _ = radial._hierarchy(axisym_energy_matrix(ag, m)[free][:, free], free, ag.shape)
    assert len(levels) >= 2
    u = axisym_dirichlet(m, n, outside, source, ag)
    weighted = source * radial._cell_measure(ag)[:, None]
    ref, _ = _free_block_solve(ag, m, outside, np.zeros(ag.shape), weighted, direct=False)
    assert np.abs(u - ref).max() <= 1e-9 * np.abs(ref).max()

    target = Intersection((region, Ball(0.5)))
    cap, ag, u = axisym_capacity(target, m, n, ag.h, 1.0)
    fixed = ag.mask_from_region(target)
    ref, A = _free_block_solve(ag, m, fixed, fixed.astype(float), np.zeros(ag.shape),
                               direct=False)
    assert np.abs(u - ref).max() <= 1e-9 * np.abs(ref).max()
    assert cap == pytest.approx(ref.ravel() @ (A @ ref.ravel()), rel=1e-9, abs=0.0)


def test_axisym_capacity_below_coarse_limit_is_the_direct_solve():
    target = Intersection((Cusp("power", 2.0), Ball(0.5)))
    cap, ag, u = axisym_capacity(target, 2, 6, 1.0 / 24, 1.0)
    assert u.size <= radial._COARSE_MAX
    fixed = ag.mask_from_region(target)
    ref, A = _free_block_solve(ag, 2, fixed, fixed.astype(float), np.zeros(ag.shape),
                               direct=True)
    assert np.array_equal(u, ref)
    assert cap == float(ref.ravel() @ (A @ ref.ravel()))


@pytest.mark.parametrize("m, n", [(1, 3), (2, 5)])
def test_vcycle_is_symmetric_positive_definite(m, n):
    # CG needs a symmetric positive definite preconditioner
    ag, outside, _ = _probe_problem(Cusp("exponential", 1.0), n, 128)
    free = ~outside.ravel()
    levels, lu = radial._hierarchy(axisym_energy_matrix(ag, m)[free][:, free], free, ag.shape)
    assert len(levels) >= 2
    x, y = np.random.default_rng(0).standard_normal((2, int(free.sum())))
    vx, vy = radial._vcycle(levels, lu, x), radial._vcycle(levels, lu, y)
    assert abs(x @ vy - y @ vx) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(vy)
    assert x @ vx > 0.0 and y @ vy > 0.0


# the CG iterations of these Dirichlet solves with the l1-Jacobi V-cycle at
# rtol 1e-10, as measured before the solver reported them
@pytest.mark.parametrize("region, m, n, iterations",
                         [(Cone(np.pi / 3), 1, 3, 10), (Cusp("exponential", 1.0), 1, 3, 14),
                          (Cone(np.pi / 3), 2, 5, 29), (Cusp("exponential", 1.0), 2, 5, 39)])
def test_axisym_dirichlet_iterations_do_not_grow(region, m, n, iterations):
    ag, outside, source = _probe_problem(region, n, 128)
    info = {}
    axisym_dirichlet(m, n, outside, source, ag, info=info)
    assert info["levels"] == 2
    assert 0 < info["iterations"] <= iterations


def test_solver_reports_reach_the_series_probe_and_wiener_summary(tmp_path):
    # 12 nodes per rho: 36 x 73 nodes, LU alone; 24: 72 x 145, multigrid
    small = annulus_series(Cone(np.pi / 3), 1, 3, j_range=(0, 1), nodes_per_rho=12,
                           backend="axisym")
    assert small.metadata["solver"] == [
        {part: {"iterations": 0, "residual": pytest.approx(0.0, abs=1e-12), "levels": 0}
         for part in ("slab", "ball")}] * 2
    rep = regularity_probe(laplacian(3), Cone(np.pi / 3), 3, h_values=(1 / 32, 1 / 64, 1 / 128),
                           backend="axisym")
    solver = [t["solver"] for t in rep.sup_tables]
    assert [s["levels"] for s in solver] == [0, 1, 2]
    assert solver[0]["iterations"] == 0 and all(s["iterations"] > 0 for s in solver[1:])
    assert all(s["residual"] < 1e-9 for s in solver)

    out = tmp_path / "wiener"
    assert cli.main(["wiener", "--m", "1", "--n", "3", "--domain", "cone:60", "--backend",
                     "axisym", "--nodes-per-rho", "24", "--j-max", "1", "--out", str(out)]) == 0
    with open(out / "summary.json") as fh:
        reports = json.load(fh)["truncation"]["metadata"]["solver"]
    assert len(reports) == 2
    assert all(r[part]["levels"] == 1 and r[part]["iterations"] > 0
               for r in reports for part in ("slab", "ball"))


def test_axisym_non_convergence_is_typed(monkeypatch, tmp_path):
    monkeypatch.setattr(radial, "_CG_MAXITER", 1)
    ag, outside, source = _probe_problem(Cone(np.pi / 3), 3, 64)
    with pytest.raises(ConvergenceError):
        axisym_dirichlet(1, 3, outside, source, ag)
    # a series whose scale grids exceed the coarse limit exits 4 and writes no results
    out = tmp_path / "wiener"
    code = cli.main(["wiener", "--m", "1", "--n", "3", "--domain", "cone:60", "--backend",
                     "axisym", "--nodes-per-rho", "24", "--j-max", "1", "--out", str(out)])
    assert code == 4
    assert not (out / "summary.json").exists() and not (out / "series.csv").exists()
