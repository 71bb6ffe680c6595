"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
the suite touches multi-minute grids, so it is marked slow as a whole.
"""

import filecmp
import subprocess
import sys
import time

import numpy as np
import pytest

from polycap import (Ball, Cone, Cusp, Grid, annulus_series,
                     capacitary_potential, channel_positivity, compute_profile,
                     cusp_criterion, decay_check, evaluate_ball_potential,
                     gradient_decay_check, laplacian, maximal_bound_check,
                     mn8_operator, polyharmonic, radial_ball_potential, range_check,
                     regularity_probe, riesz_constant, sign_summary, wiener_classify,
                     lower_bound_check)
from polycap.capacity import cap_m
from polycap.energy import EnergyForm
from polycap.grids import Shell
from polycap.radial import axisym_capacity
from polycap.solvers import solve_constrained

pytestmark = pytest.mark.slow

FOUR_PI = 4.0 * np.pi


def _ball_cap(h, box, rtol=1e-8):
    grid = Grid(3, h, int(round(box / h)))
    mask = Ball(1.0).mask(grid)
    form = EnergyForm("homogeneous_m", grid, 1)
    t0 = time.time()
    _, info = solve_constrained(form, mask.where, 1.0, rtol=rtol)
    return info["energy"], time.time() - t0


def test_criterion_1_capacity_oracle():
    c4_h1, t1 = _ball_cap(0.1, 4.0)
    c8_h1, t2 = _ball_cap(0.1, 8.0)
    extrap_h1 = 2.0 * c8_h1 - c4_h1
    err_h1 = abs(extrap_h1 / FOUR_PI - 1.0)
    # transfer the box correction, itself h-insensitive, to the finer spacing
    delta = extrap_h1 - c4_h1
    c4_h05, t3 = _ball_cap(0.05, 4.0)
    extrap_h05 = c4_h05 + delta
    err_h05 = abs(extrap_h05 / FOUR_PI - 1.0)
    assert err_h1 <= 0.10
    assert err_h05 < err_h1
    assert max(t1, t2, t3) < 60.0
    print(f"\nACCEPTANCE 1: PASS - unit-ball capacity {extrap_h1:.4f} at h=0.1 "
          f"({err_h1:.2%} off 4pi), {extrap_h05:.4f} at h=0.05 ({err_h05:.2%}); "
          f"slowest solve {max(t1, t2, t3):.1f}s")


def test_criterion_2_capacity_homogeneity():
    # (1,3): one spacing, box-extrapolated at both radii
    h = 0.2
    c1 = 2.0 * _ball_cap(h, 8.0)[0] - _ball_cap(h, 4.0)[0]

    def ball2(h, box):
        grid = Grid(3, h, int(round(box / h)))
        mask = Ball(2.0).mask(grid)
        form = EnergyForm("homogeneous_m", grid, 1)
        return solve_constrained(form, mask.where, 1.0)[1]["energy"]

    c2 = 2.0 * ball2(h, 16.0) - ball2(h, 8.0)
    ratio13 = c2 / c1
    assert ratio13 == pytest.approx(2.0 ** (3 - 2), rel=0.10)
    # (2,5): axisymmetric backend, one spacing
    a1 = 2.0 * axisym_capacity(Ball(1.0), 2, 5, 0.05, 8.0)[0] - axisym_capacity(
        Ball(1.0), 2, 5, 0.05, 4.0)[0]
    a2 = 2.0 * axisym_capacity(Ball(2.0), 2, 5, 0.05, 16.0)[0] - axisym_capacity(
        Ball(2.0), 2, 5, 0.05, 8.0)[0]
    ratio25 = a2 / a1
    assert ratio25 == pytest.approx(2.0 ** (5 - 4), rel=0.10)
    print(f"\nACCEPTANCE 2: PASS - cap(2K)/cap(K) = {ratio13:.3f} for (1,3) and "
          f"{ratio25:.3f} for (2,5), target 2 within 10%")


def test_criterion_3_fundamental_solutions():
    lap = compute_profile(laplacian(3))
    worst = float(np.abs(lap.values * FOUR_PI - 1.0).max())
    assert worst <= 0.01
    bih = compute_profile(polyharmonic(5, 2))
    assert bih.values.min() > 0.0
    mn = compute_profile(mn8_operator())
    summary = sign_summary(mn)
    assert summary["fraction_negative"] > 0.0 and summary["min"] < 0.0
    print(f"\nACCEPTANCE 3: PASS - Newton kernel within {worst:.2%} of 1/(4pi); "
          f"order-4 n=5 profile min {bih.values.min():.3e} > 0; anisotropic n=8 "
          f"profile negative fraction {summary['fraction_negative']:.2e}")


def test_criterion_4_positivity_thresholds():
    positives = [(1, 3), (1, 4), (2, 5), (2, 6), (2, 7), (3, 7), (3, 8)]
    violated = [(2, 8), (2, 9)]
    worst_time = 0.0
    for (m, n) in positives:
        t0 = time.time()
        v = channel_positivity(m, n)
        worst_time = max(worst_time, time.time() - t0)
        assert v.status == "positive_at_resolution", (m, n, v.status)
    for (m, n) in violated:
        t0 = time.time()
        v = channel_positivity(m, n)
        worst_time = max(worst_time, time.time() - t0)
        assert v.status == "violated", (m, n, v.status)
        assert v.witness["quotient_fine_grid"] < 0.0
        assert v.witness["quotient_spectral"] < 0.0
    assert worst_time < 300.0
    print(f"\nACCEPTANCE 4: PASS - positive at resolution for {positives}, violated "
          f"with re-validated witnesses for {violated}; slowest sweep {worst_time:.0f}s")


def test_criterion_5_potential_range():
    tol = 1e-6
    worst = {}
    # reduced radial solves reach huge boxes for every positive pair
    for (m, n) in [(1, 3), (1, 4), (2, 5), (2, 6), (2, 7)]:
        rg, u, _ = radial_ball_potential(m, n, 1.0, h=0.01, box=200.0)
        off = rg.r > 1.0
        worst[(m, n)] = (float(u[off].min()), float(u.max()))
        assert u[off].min() > -tol and u.max() < 2.0 + tol
    # order-6 pairs via the exact matched power solution
    r = np.geomspace(1.0 + 1e-9, 300.0, 200000)
    for (m, n) in [(3, 7), (3, 8)]:
        u = evaluate_ball_potential(m, n, 1.0, r)
        worst[(m, n)] = (float(u.min()), float(u.max()))
        assert u.min() > -tol and u.max() < 2.0 + tol
    # Cartesian cross-check in the Newtonian case
    rep = capacitary_potential(laplacian(3), Ball(1.0), Grid(3, 0.1, 40))
    assert range_check(rep, tol)["passed"]
    lo = min(v[0] for v in worst.values())
    hi = max(v[1] for v in worst.values())
    print(f"\nACCEPTANCE 5: PASS - capacitary potentials of all positive pairs lie "
          f"in [{lo:.2e}, {hi:.6f}], inside (-1e-6, 2+1e-6) off K")


def test_criterion_6_pointwise_bounds():
    # kernel-unit value ratio from the far radial box
    rg, u, cap = radial_ball_potential(1, 3, 1.0, h=0.01, box=300.0)
    r0 = []
    for rho in (1.5, 2.0, 3.0):
        i = int(np.argmin(np.abs(rg.r - rho)))
        r0.append(u[i] * rg.r[i] * FOUR_PI / cap)
    assert np.abs(np.array(r0) - 1.0).max() <= 0.15
    # gradient ratio from the Cartesian box (flux-like, box-insensitive)
    rep = capacitary_potential(laplacian(3), Ball(1.0), Grid(3, 0.1, 80))
    decay = gradient_decay_check(rep, orders=(1,), probe_radii=(1.5, 2.0))
    r1 = [row["riesz_unit_mean"] for row in decay["orders"][1]["probes"]]
    assert np.abs(np.array(r1) - 1.0).max() <= 0.15
    # capacity lower bound: strictly positive, refinement stable within 25%
    lows = []
    for h, ext in ((0.2, 20), (0.1, 40)):
        rep_h = capacitary_potential(laplacian(3), Ball(1.0), Grid(3, h, ext))
        res = lower_bound_check(rep_h, 1.0, probe_radii=(1.5, 2.0))
        assert res["passed"]
        lows.append(res["fitted_c"])
    assert lows[1] == pytest.approx(lows[0], rel=0.25)
    # annulus maximal bound: refinement stable within 25%
    ratios = {0: [], 1: []}
    for g in (Grid(3, 0.15, 20), Grid(3, 0.1, 30)):
        out = maximal_bound_check(laplacian(3), Shell(0.6, 1.0), g, theta=0.5,
                                  rho=1.0, orders=(0, 1))
        for ell in (0, 1):
            ratios[ell].append(out["orders"][ell]["ratio"])
    for ell in (0, 1):
        assert ratios[ell][1] == pytest.approx(ratios[ell][0], rel=0.25)
    print(f"\nACCEPTANCE 6: PASS - kernel-unit ratios r0={np.round(r0, 3)}, "
          f"r1={np.round(r1, 3)} within 15%; lower-bound constants {np.round(lows, 4)} "
          f"and maximal ratios stable within 25%")


def test_criterion_7_cusp_criteria():
    cases = [
        (Cusp("power", 1.0), 1, 4, "regular"),
        (Cusp("power", 2.0), 1, 4, "irregular"),
        (Cusp("power", 2.0), 1, 3, "regular"),
        (Cusp("power", 2.0), 2, 6, "irregular"),
        (Cusp("exponential", 1.0), 1, 3, "irregular"),
        (Cusp("exponential", 1.0), 2, 6, "irregular"),
    ]
    for prof, m, n, expect in cases:
        closed = cusp_criterion(prof, m, n)
        assert closed["verdict"] == expect and closed["method"] == "closed-form"
        tau = np.geomspace(1e-4, 1.0, 300)
        tab = Cusp("tabulated", table=(tau, prof.profile(tau)))
        quadr = cusp_criterion(tab, m, n)
        assert quadr["verdict"] == expect
    print("\nACCEPTANCE 7: PASS - six closed-form cusp verdicts exact and the "
          "quadrature branch agrees on tabulated profiles")


def test_criterion_8_classifier_consistency():
    # a cusp is both the series' complement and the criterion's profile
    power, exponential = Cusp("power", 2.0), Cusp("exponential", 1.0)
    domains = {
        "cone(45deg)": (Cone(np.pi / 4), Cusp("power", 1.0), 10),
        "power cusp p=2": (power, power, 32),
        "exponential cusp": (exponential, exponential, 32),
    }
    lines = []
    for (m, n) in [(1, 3), (2, 5), (2, 6)]:
        for label, (region, profile, npr) in domains.items():
            analytic = cusp_criterion(profile, m, n)["verdict"]
            series = annulus_series(region, m, n, j_range=(0, 8), nodes_per_rho=npr)
            verdict = wiener_classify(series).classification
            assert verdict in (analytic, "inconclusive"), (m, n, label, verdict, analytic)
            lines.append(f"({m},{n}) {label}: classifier={verdict}, analytic={analytic}")
    print("\nACCEPTANCE 8: PASS - classifier never contradicts the closed-form "
          "criterion;\n  " + "\n  ".join(lines))


def test_criterion_9_regularity_probe():
    deep = dict(h_values=(1 / 64, 1 / 128, 1 / 256), rho_levels=(1, 2, 3, 4, 5, 6, 7),
                backend="axisym")
    cone = regularity_probe(laplacian(3), Cone(np.pi / 3), 3, **deep)
    cusp = regularity_probe(laplacian(3), Cusp("exponential", 1.0), 3, **deep)
    assert cone.trend == "vanishing"
    assert cusp.trend == "non-vanishing"
    print(f"\nACCEPTANCE 9: PASS - exterior-cone domain: {cone.trend} "
          f"({cone.notes[0]}); exponential-cusp complement: {cusp.trend} "
          f"({cusp.notes[0]})")


def test_criterion_10_decay_estimate():
    a = decay_check(laplacian(3), Cone(np.pi / 4), 3, R=0.25, grid_h=1 / 24)
    b = decay_check(laplacian(3), Cone(np.pi / 4), 3, R=0.25, grid_h=1 / 48)
    assert a.passed and a.c2 > 0.0
    assert b.passed and b.c2 == pytest.approx(a.c2, rel=0.30)
    print(f"\nACCEPTANCE 10: PASS - cone-complement decay exponent c2 = {a.c2:.3f} "
          f"(refined: {b.c2:.3f}, within 30%)")


def test_criterion_11_determinism(tmp_path, cli_env):
    base = [sys.executable, "-m", "polycap"]
    args = ["wiener", "--m", "1", "--n", "3", "--domain", "cone:45", "--j-max", "6",
            "--nodes-per-rho", "8", "--out", "d1"]
    rerun = ["--config", str(tmp_path / "d1" / "manifest.json"), "wiener", "--out", "d2"]
    for argv in (args, rerun):
        r = subprocess.run(base + argv, cwd=tmp_path, env=cli_env, capture_output=True,
                           text=True)
        assert r.returncode == 0, r.stderr
    for name in ("summary.json", "series.csv"):
        assert filecmp.cmp(tmp_path / "d1" / name, tmp_path / "d2" / name,
                           shallow=False), name
    print("\nACCEPTANCE 11: PASS - manifest rerun reproduces summary.json and "
          "series.csv bitwise")
