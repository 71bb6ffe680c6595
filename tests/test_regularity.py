import tracemalloc

import numpy as np
import pytest

from polycap import (Ball, Cone, Cusp, EllipticOperator, Grid, InputError, Mask,
                     UnsupportedRegimeError, annulus_series, bump, cusp_criterion,
                     decay_check, dirichlet_solve, laplacian, polyharmonic,
                     regularity_probe, wiener_classify)
from polycap import regularity, solvers
from polycap.capacity import AnnulusCapacitySeries
from polycap.grids import Ray, dilate


CLOSED_FORM_CASES = [
    (Cusp("power", 1.0), 1, 4, "regular"),
    (Cusp("power", 2.0), 1, 4, "irregular"),
    (Cusp("power", 2.0), 1, 3, "regular"),
    (Cusp("power", 2.0), 2, 6, "irregular"),
    (Cusp("exponential", 1.0), 1, 3, "irregular"),
    (Cusp("exponential", 1.0), 2, 6, "irregular"),
    # n >= 2m + 3: the integrand is f^k tau^(2m-n) with k = n - 2m - 1 = 2
    (Cusp("power", 1.5), 1, 5, "irregular"),
    (Cusp("power", 1.0), 1, 5, "regular"),
    (Cusp("power", 1.5), 2, 7, "irregular"),
    (Cusp("exponential", 1.0), 2, 7, "irregular"),
]


@pytest.mark.parametrize("profile,m,n,expected", CLOSED_FORM_CASES + [
    # a = 0.001: the integral is finite but Gamma(k/a) = Gamma(1000) overflows float64
    (Cusp("exponential", 0.001), 2, 6, "irregular"),
    (Cusp("exponential", 0.001), 2, 7, "irregular"),
    # s = k/a overflows to inf, or lgamma(s) would: the integral saturates to inf
    (Cusp("exponential", 1e-320), 2, 7, "irregular"),
    (Cusp("exponential", 1e-306), 2, 7, "irregular"),
])
def test_cusp_criterion_closed_forms(profile, m, n, expected):
    out = cusp_criterion(profile, m, n)
    assert out["verdict"] == expected
    assert out["method"] == "closed-form"


@pytest.mark.parametrize("profile,m,n,expected", CLOSED_FORM_CASES)
def test_cusp_criterion_tabulated_agrees(profile, m, n, expected):
    tau = np.geomspace(1e-4, 1.0, 300)
    tab = Cusp("tabulated", table=(tau, profile.profile(tau)))
    out = cusp_criterion(tab, m, n)
    assert out["verdict"] == expected
    assert out["method"].startswith("quadrature")
    # both methods integrate over (0, 1/2]
    closed = cusp_criterion(profile, m, n)["integral"]
    if expected == "regular":
        assert out["integral"] == closed == np.inf
    else:
        assert out["integral"] == pytest.approx(closed, rel=1e-3)


def test_cusp_criterion_regime_guard():
    with pytest.raises(UnsupportedRegimeError):
        cusp_criterion(Cusp("power", 2.0), 1, 2)


def test_cusp_profile_validation():
    with pytest.raises(InputError):
        Cusp("power", 0.5)
    with pytest.raises(InputError):
        Cusp("exponential", -1.0)
    for p in (np.inf, np.nan):
        with pytest.raises(InputError, match="finite p >= 1"):
            Cusp("power", p)
    with pytest.raises(InputError, match="finite a > 0"):
        Cusp("exponential", np.inf)


def _series(m, n, caps, balls=None, resolved=None):
    rho = [2.0 ** (-j) for j in range(len(caps))]
    balls = balls if balls is not None else [1.0] * len(caps)
    meta = {}
    if resolved is not None:
        meta["resolved"] = resolved
    return AnnulusCapacitySeries(m, n, (0, len(caps) - 1), rho, list(caps),
                                 list(balls), "homogeneous", meta)


def test_classifier_zero_series_irregular():
    v = wiener_classify(_series(1, 3, [0.0] * 8))
    assert v.classification == "irregular"


def test_classifier_too_few_scales_inconclusive():
    v = wiener_classify(_series(1, 3, [1.0] * 4))
    assert v.classification == "inconclusive"


def test_classifier_constant_terms_regular():
    # cone signature: capacity a fixed fraction of the full-ball unit
    caps = [0.45 * 2.0 ** (-j * 1.0) for j in range(9)]
    balls = [2.0 ** (-j * 1.0) for j in range(9)]
    v = wiener_classify(_series(1, 3, caps, balls))
    assert v.classification == "regular"


def test_classifier_geometric_decay_irregular():
    caps = [0.4 * 2.0 ** (-j) * 2.0 ** (-j) for j in range(9)]
    balls = [2.0 ** (-j) for j in range(9)]
    v = wiener_classify(_series(1, 3, caps, balls))
    assert v.classification == "irregular"
    assert np.isfinite(v.tail_estimate)


def test_classifier_rescaling_invariance():
    caps = [0.4 * 4.0 ** (-j) for j in range(9)]
    balls = [2.0 ** (-j) for j in range(9)]
    base = wiener_classify(_series(2, 5, caps, balls)).classification
    for lam in (0.25, 0.5, 2.0, 4.0):
        scaled = wiener_classify(_series(2, 5, [lam * c for c in caps], balls))
        assert scaled.classification == base


def test_classifier_respects_resolution_truncation():
    caps = [0.4] * 9
    resolved = [True] * 3 + [False] * 6
    v = wiener_classify(_series(1, 3, caps, resolved=resolved))
    assert v.classification == "inconclusive"
    assert any("truncated" in note for note in v.notes)


def test_classifier_on_real_families():
    cone = annulus_series(Cone(np.pi / 4), 1, 3, j_range=(0, 8), nodes_per_rho=10)
    assert wiener_classify(cone).classification == "regular"
    cusp = annulus_series(Cusp("power", 2.0), 2, 6, j_range=(0, 8), nodes_per_rho=32)
    assert wiener_classify(cusp).classification == "irregular"


@pytest.mark.parametrize("m,n", [(1, 3), (2, 5)])
def test_classifier_declines_a_geometric_fit_it_cannot_tell_from_a_power_law(m, n):
    # the p = 2 cusp series is cut to 6 resolved scales at 48 nodes per rho, where the
    # geometric fit of its 1/j tail beats the power law only narrowly
    analytic = cusp_criterion(Cusp("power", 2.0), m, n)["verdict"]
    series = annulus_series(Cusp("power", 2.0), m, n, j_range=(0, 8), nodes_per_rho=48)
    assert wiener_classify(series).classification in (analytic, "inconclusive")


@pytest.mark.parametrize("m,n", [(1, 5), (2, 7)])
def test_classifier_agrees_with_the_cusp_criterion_for_k_2(m, n):
    # k = n - 2m - 1 = 2: the slab capacities of the p = 1.5 cusp scale as
    # rho f(rho)^2, so the normalized terms shrink by about 2^(-(p-1)k) = 1/2
    # per scale, and every scale is resolved at 32 nodes per rho
    analytic = cusp_criterion(Cusp("power", 1.5), m, n)["verdict"]
    series = annulus_series(Cusp("power", 1.5), m, n, j_range=(0, 8), nodes_per_rho=32,
                            backend="axisym")
    assert all(series.metadata["resolved"])
    assert wiener_classify(series).classification == analytic == "irregular"


def test_classifier_borderline_dimension_continuum():
    # a segment through the origin in the plane: regular by the borderline test
    from polycap.grids import Ray

    series = annulus_series(Ray(axis=1, width=0.0), 1, 2, j_range=(0, 6),
                            nodes_per_rho=8)
    v = wiener_classify(series)
    assert v.classification == "regular"


def test_dirichlet_zero_source_zero_solution():
    g = Grid(2, 0.1, 10)
    interior = np.zeros(g.shape, dtype=bool)
    interior[2:-2, 2:-2] = True
    omega = Mask(g, interior)
    u, _ = dirichlet_solve(laplacian(2), omega, g.zeros())
    assert np.all(u == 0.0)


def test_dirichlet_linearity(monkeypatch):
    monkeypatch.setattr(solvers, "_CG_RTOL", 1e-12)
    g = Grid(2, 0.1, 12)
    interior = np.zeros(g.shape, dtype=bool)
    interior[3:-3, 3:-3] = True
    omega = Mask(g, interior)
    f1 = bump(g, (0.4, 0.0), 0.25)
    f2 = bump(g, (-0.3, 0.3), 0.2)
    for f in (f1, f2):
        f[dilate(~omega.where, 2)] = 0.0
    u1, _ = dirichlet_solve(laplacian(2), omega, f1)
    u2, _ = dirichlet_solve(laplacian(2), omega, f2)
    u12, _ = dirichlet_solve(laplacian(2), omega, f1 + f2)
    scale = np.abs(u12).max()
    assert np.abs(u12 - u1 - u2).max() <= 1e-9 * scale


def test_dirichlet_galerkin_orthogonality(monkeypatch):
    from polycap.energy import EnergyForm

    monkeypatch.setattr(solvers, "_CG_RTOL", 1e-12)
    g = Grid(2, 0.1, 12)
    interior = np.zeros(g.shape, dtype=bool)
    interior[3:-3, 3:-3] = True
    omega = Mask(g, interior)
    f = bump(g, (0.3, 0.2), 0.25)
    f[dilate(~omega.where, 2)] = 0.0
    u, _ = dirichlet_solve(laplacian(2), omega, f)
    form = EnergyForm("operator_form", g, 1, op=laplacian(2))
    resid = form.apply(u) - g.h**2 * f
    rng = np.random.default_rng(0)
    ref = np.abs(form.apply(u)).max()
    for _ in range(100):
        v = np.zeros(g.shape)
        v[omega.where] = rng.standard_normal(int(omega.where.sum()))
        val = float((resid * v).sum())
        assert abs(val) <= 1e-6 * ref * np.abs(v).max() * v.size**0.5


def test_dirichlet_green_function_decay():
    # point-mass solution approximates the free kernel away from all boundaries
    g = Grid(3, 0.1, 40)
    interior = np.zeros(g.shape, dtype=bool)
    interior[1:-1, 1:-1, 1:-1] = True
    omega = Mask(g, interior)
    f = g.zeros()
    f[g.origin_index()] = 1.0 / g.h**3
    u, _ = dirichlet_solve(laplacian(3), omega, f)
    r = g.radii()
    sel = (r >= 0.2) & (r <= 0.45)
    ratio = u[sel] * 4 * np.pi * r[sel]
    # probes at a tenth of the box scale keep the wall depression under 10%
    assert np.median(ratio) == pytest.approx(1.0, abs=0.10)


def test_dirichlet_source_validation():
    g = Grid(2, 0.1, 10)
    interior = np.zeros(g.shape, dtype=bool)
    interior[2:-2, 2:-2] = True
    omega = Mask(g, interior)
    f = np.ones(g.shape)
    with pytest.raises(InputError):
        dirichlet_solve(laplacian(2), omega, f)


def test_probe_verdicts_axisym():
    deep = dict(h_values=(1 / 64, 1 / 128, 1 / 256), rho_levels=(1, 2, 3, 4, 5, 6, 7),
                backend="axisym")
    cone = regularity_probe(laplacian(3), Cone(np.pi / 3), 3, **deep)
    assert cone.trend == "vanishing"
    cusp = regularity_probe(laplacian(3), Cusp("exponential", 1.0), 3, **deep)
    assert cusp.trend == "non-vanishing"


def test_probe_zero_source_region_error():
    with pytest.raises(InputError):
        regularity_probe(laplacian(3), Ball(2.0), 3, h_values=(1 / 8, 1 / 16, 1 / 32))


def test_probe_shallow_ladder_inconclusive():
    rep = regularity_probe(laplacian(3), Cusp("exponential", 1.0), 3,
                           h_values=(1 / 8, 1 / 16, 1 / 32))
    assert rep.trend == "inconclusive"


def test_probe_unreachable_ladder_skips_solves(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the probe solved a ladder that cannot give a verdict")

    monkeypatch.setattr("polycap.radial.axisym_dirichlet", no_solve)
    rep = regularity_probe(laplacian(3), Cone(np.pi / 3), 3)
    assert rep.trend == "inconclusive"
    assert rep.sup_tables == []
    # 3 trusted scales down to rho = 1/16 need 6 h <= 1/16 at the finest spacing
    assert rep.notes[0].endswith(f"h <= {1 / 96:.6g}")


# the criterion-9 ladder: each of these problems is refused before any solve
@pytest.mark.parametrize("op, complement, n", [
    # about the first axis, not the last: rasterised on the (r, z) grid it would
    # be a different set, and the probe would call its vertex "non-vanishing"
    (laplacian(3), Ray(axis=0), 3),
    (laplacian(3), Ball(0.2, (0.3, 0.0, 0.0)), 3),
    # a body of revolution about the last axis, in a dimension without an (r, z) reduction
    (laplacian(2), Ray(axis=1), 2),
    # the (r, z) energy is that of (-Delta)^m, so another operator would be probed
    # as the Laplacian
    (EllipticOperator(3, 1, {((1, 0, 0), (1, 0, 0)): 1.0, ((0, 1, 0), (0, 1, 0)): 2.0,
                             ((0, 0, 1), (0, 0, 1)): 0.5}), Cone(np.pi / 3), 3),
], ids=["ray_about_x", "off_axis_ball", "n_2", "anisotropic"])
def test_probe_refuses_problems_the_rz_grid_cannot_hold(op, complement, n):
    with pytest.raises(UnsupportedRegimeError, match="body of revolution"):
        regularity_probe(op, complement, n, h_values=(1 / 64, 1 / 128, 1 / 256),
                         rho_levels=(1, 2, 3, 4, 5, 6, 7))


def test_probe_refuses_a_cartesian_backend():
    with pytest.raises(InputError, match="backend 'cartesian'"):
        regularity_probe(laplacian(3), Cone(np.pi / 3), 3, backend="cartesian")


def test_decay_check_cone_and_stability():
    a = decay_check(laplacian(3), Cone(np.pi / 4), 3, R=0.25, grid_h=1 / 24)
    assert a.passed and a.c2 > 0.0
    b = decay_check(laplacian(3), Cone(np.pi / 4), 3, R=0.25, grid_h=1 / 48)
    assert b.passed
    assert b.c2 == pytest.approx(a.c2, rel=0.30)


def test_decay_check_memory_is_a_count_of_half_grid_arrays(monkeypatch):
    axes = []

    def solve(*args, **kwargs):
        u, info = solvers.solve_constrained(*args, **kwargs)
        axes.append(info["mirror_axes"])
        return u, info

    monkeypatch.setattr(regularity, "solve_constrained", solve)
    # a coarser run first, so the traced one imports nothing
    decay_check(laplacian(3), Cone(np.pi / 4), 3, R=0.25, grid_h=1 / 16)
    tracemalloc.start()
    try:
        decay_check(laplacian(3), Cone(np.pi / 4), 3, R=0.25, grid_h=1 / 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the source sits on the x_1 axis and the cone about the x_3 axis, so the
    # solve folds x_2 alone: its half grid has 65 x 33 x 65 nodes
    assert axes == [(1,), (1,)]
    half = 8 * 65 * 33 * 65
    # the arrays alive while CG runs, in half-grid float arrays: the vectors
    # x, r, p and q (4); the DST round's two buffers and its spectrum (3);
    # the ghost array and the Laplacian's two Horner buffers, one ghost layer
    # larger (3); the full-grid source (2); the boolean masks of the domain,
    # the fixed nodes, the annulus and the three balls, a quarter each, and
    # the free mask (2); and one for the ghost layers and everything smaller
    assert peak < (4 + 3 + 3 + 2 + 2 + 1) * half


def test_decay_check_refuses_an_erased_source():
    # at h = 1/8 the 4-step neighbourhood of the cone and the box covers the source bump
    with pytest.raises(InputError, match="forbidden zone"):
        decay_check(polyharmonic(5, 2), Cone(np.pi / 4), 5, grid_h=1 / 8)


def test_decay_check_degenerate_is_inconclusive():
    class Nothing(Ball):
        def contains(self, points):
            return np.zeros((), dtype=bool)

    rep = decay_check(laplacian(3), Nothing(0.0), 3, R=0.25, grid_h=1 / 24)
    assert rep.inconclusive
