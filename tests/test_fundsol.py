import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from polycap import (EllipticOperator, InputError, UnsupportedRegimeError, check_ellipticity,
                     compute_profile, fundsol, laplacian, mn8_operator, polyharmonic,
                     riesz_constant, sign_summary)
from polycap.fundsol import SphereProfile
from polycap.operators import quadratic_form_matrix


def _rule_on_axis(op, axis, alphas, refine=1, shrink=1):
    # the plane-wave rule as compute_profile runs it, on the given axis
    P = fundsol._axial_symbol(op, axis)
    return fundsol._planewave_alpha_profile(op, P, fundsol._contour_radius(P) / shrink,
                                            alphas, refine)


@pytest.fixture(scope="module")
def lap3_profile():
    return compute_profile(laplacian(3))


def test_laplacian_profile_hits_newton_constant(lap3_profile):
    kappa = 1.0 / (4.0 * np.pi)
    assert np.abs(lap3_profile.values / kappa - 1.0).max() <= 0.01


def test_rotational_invariance(lap3_profile):
    vals = lap3_profile.values
    assert (vals.max() - vals.min()) <= 0.01 * vals.mean()


def test_reconstruction_scaling(lap3_profile):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 3))
    f1 = lap3_profile.reconstruct(x)
    f2 = lap3_profile.reconstruct(2.0 * x)
    assert np.allclose(f2, 2.0 ** (2 * 1 - 3) * f1, rtol=1e-12)


def test_biharmonic5_profile_positive_and_calibrated():
    prof = compute_profile(polyharmonic(5, 2))
    assert prof.values.min() > 0.0
    assert np.abs(prof.values / riesz_constant(2, 5) - 1.0).max() <= 1e-6


def test_isotropic_planewave_is_one_constant():
    op = laplacian(5)
    prof = compute_profile(op)
    assert (prof.method, prof.angular_model) == ("planewave", "constant")
    assert np.all(prof.values == prof.values[0])
    assert prof.model_data["constant"] == prof.values[0]
    assert abs(prof.values[0] / riesz_constant(1, 5) - 1.0) <= 1e-10
    # the angle the constant is taken at does not matter: on and across the
    # axis the quadrature gives the same value
    ends, _ = _rule_on_axis(op, 4, [0.0, np.pi / 2])
    assert np.abs(ends / prof.values[0] - 1.0).max() <= 1e-12


@pytest.mark.parametrize("op", [mn8_operator(), laplacian(5), laplacian(3), laplacian(4)],
                         ids=["mn8", "laplacian5", "laplacian3", "laplacian4"])
def test_planewave_error_estimate_covers_the_axis(op):
    prof = compute_profile(op)
    base, _ = _rule_on_axis(op, op.n - 1, [0.0])
    fine, _ = _rule_on_axis(op, op.n - 1, [0.0], refine=4)
    diff = abs(base[0] - fine[0])
    assert diff <= 1e-12
    assert diff <= prof.error_estimate <= 1e-10 * np.abs(prof.values).max()


def _stiff_axis_operator(c):
    # c xi_8^4 + |xi|^4 in R^8, the mn8 family; on the axis 1/P = 1/(c t^4 + 1)
    # has poles at |t| = c^(-1/4), inside a circle of radius 0.2 for c > 625
    coeffs = dict(polyharmonic(8, 2).coefficients)
    e8 = (0,) * 7 + (2,)
    coeffs[(e8, e8)] += c
    return EllipticOperator(8, 2, coeffs, name=f"mn8_c{c}")


def _stiff_axis_value(c):
    # independent reference for the axis value.  There the slice integral is
    # closed-form, G(t) = |S^5| B(1/2, 3) (1 - t^2)^(5/2) / (c t^4 + 1), and
    # F = (2 pi)^-8 Gamma(4) f.p. int t^-4 G dt.  The finite part runs along
    # the real axis for |t| >= e and along the upper half circle |t| = e,
    # which holds no pole for e < c^(-1/4)
    def G(t):
        return 16.0 * np.pi**3 / 15.0 * (1.0 - t * t) ** 2.5 / (c * t**4 + 1.0)

    e = c**-0.25 / 3.0
    line = quad(lambda t: G(t) / t**4, e, 1.0, epsabs=0.0, epsrel=1e-13)[0]
    # -int_0^pi i G(t) t^-3 dtheta is the path from -e to e over t = e exp(i theta)
    arc = quad(lambda th: (1j * G(e * np.exp(1j * th)) * (e * np.exp(1j * th)) ** -3).real,
               0.0, np.pi, epsabs=0.0, epsrel=1e-13)[0]
    return 6.0 * (2.0 * np.pi) ** -8 * (2.0 * line - arc)


def test_planewave_circle_avoids_zeros_of_the_symbol():
    prof = compute_profile(_stiff_axis_operator(1000.0))
    f = prof.model_data["f_alpha"]
    assert abs(f[0] - _stiff_axis_value(1000.0)) <= prof.error_estimate
    assert prof.error_estimate <= 1e-10 * np.abs(f).max()


def test_planewave_error_estimate_sees_a_zero_inside_the_circle(monkeypatch):
    # a circle of radius 0.2 encloses the axis poles at 5000^(-1/4) = 0.119;
    # doubling the nodes on that circle alone changes the value by 5e-5 only
    monkeypatch.setattr(fundsol, "_contour_radius", lambda P: 0.2)
    prof = compute_profile(_stiff_axis_operator(5000.0))
    right = _stiff_axis_value(5000.0)
    wrong = prof.model_data["f_alpha"][0]
    assert abs(wrong - right) > 0.1 * abs(right)
    assert prof.error_estimate >= abs(wrong - right)


E3 = [tuple(row) for row in np.eye(3, dtype=int)]
EVEN_ANISOTROPIC = EllipticOperator(3, 1, {(E3[0], E3[0]): 1.0, (E3[1], E3[1]): 2.0,
                                           (E3[2], E3[2]): 3.5}, name="even_anisotropic")
CROSS_TERM = EllipticOperator(3, 1, {(E3[0], E3[0]): 1.0, (E3[1], E3[1]): 1.0,
                                     (E3[2], E3[2]): 1.0, (E3[0], E3[1]): 0.3},
                              name="cross_term")


def _diagonal_operator(*diag):
    n = len(diag)
    axes = [tuple(row) for row in np.eye(n, dtype=int)]
    return EllipticOperator(n, 1, {(axes[i], axes[i]): v for i, v in enumerate(diag)})


NO_AXIS_5D = EllipticOperator(5, 1, {**_diagonal_operator(1.0, 2.0, 3.0, 4.0, 5.0).coefficients,
                                     ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)): 0.3},
                              name="no_axis_5d")


@pytest.mark.parametrize("diag", [(1.0, 1.0, 3.5), (1.0, 1.0, 1.0, 0.2)], ids=["n3", "n4"])
def test_closed_form_matches_planewave_on_an_axis(diag):
    # an axisymmetric quadratic symbol takes the plane-wave route; the closed
    # form, evaluated through the quadratic model, must agree with it
    op = _diagonal_operator(*diag)
    n = op.n
    assert compute_profile(op).method == "planewave"
    alphas = np.linspace(0.0, np.pi / 2, 13)
    planewave, _ = _rule_on_axis(op, n - 1, alphas)
    dirs = np.zeros((alphas.size, n))
    dirs[:, 0], dirs[:, n - 1] = np.sin(alphas), np.cos(alphas)
    mdata, _ = fundsol._quadratic_kernel(op)
    closed = SphereProfile(dirs, None, 2 - n, "", "closed-form", 0.0, "quadratic", mdata)
    assert np.abs(closed.value_at_directions(dirs) / planewave - 1.0).max() <= 1e-12


def _centred_gradient(prof, x, h):
    return np.stack([(prof.reconstruct(x + h * e) - prof.reconstruct(x - h * e)) / (2 * h)
                     for e in np.eye(x.shape[1])], axis=1)


def _symbol_of_derivatives(prof, A, x, h):
    # sum_ij A_ij d_i d_j F by centred differences, and the sum of the moduli
    # of its terms, the scale its cancellation is measured against
    total, scale = 0.0, 0.0
    n = x.shape[1]
    for i in range(n):
        for j in range(n):
            ei, ej = h * np.eye(n)[i], h * np.eye(n)[j]
            d2 = (prof.reconstruct(x + ei + ej) - prof.reconstruct(x + ei - ej)
                  - prof.reconstruct(x - ei + ej) + prof.reconstruct(x - ei - ej)) / (4 * h * h)
            total, scale = total + A[i, j] * d2, scale + np.abs(A[i, j] * d2)
    return total, scale


@pytest.mark.parametrize("op", [CROSS_TERM, EVEN_ANISOTROPIC], ids=lambda op: op.name)
def test_closed_form_is_the_fundamental_solution(op):
    # P(d) F = delta: the flux of -A grad F through the unit sphere is 1, and
    # P(d) F vanishes away from the origin
    prof = compute_profile(op)
    assert (prof.method, prof.angular_model) == ("closed-form", "quadratic")
    assert prof.values.min() > 0.0
    A = quadratic_form_matrix(op)
    c, w = np.polynomial.legendre.leggauss(48)
    phi = 2 * np.pi * np.arange(96) / 96
    C, PHI = np.meshgrid(c, phi, indexing="ij")
    S = np.sqrt(1.0 - C**2)
    nu = np.stack([S * np.cos(PHI), S * np.sin(PHI), C], axis=-1).reshape(-1, 3)
    weights = np.outer(w, np.full(phi.size, 2 * np.pi / phi.size)).ravel()
    grad = _centred_gradient(prof, nu, 1e-4)
    flux = -(((grad @ A) * nu).sum(1) * weights).sum()
    assert abs(flux - 1.0) <= 1e-6
    rng = np.random.default_rng(0)
    x = nu[rng.choice(nu.shape[0], 20, replace=False)] * rng.uniform(0.5, 2.0, (20, 1))
    total, scale = _symbol_of_derivatives(prof, A, x, 1e-4)
    assert np.abs(total / scale).max() <= 1e-5


def test_second_order_symbol_without_axis_is_served_in_five_dimensions():
    prof = compute_profile(NO_AXIS_5D)
    assert (prof.method, prof.angular_model) == ("closed-form", "quadratic")
    assert prof.values.min() > 0.0
    assert prof.error_estimate <= 1e-12 * prof.values.max()
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 5))
    total, scale = _symbol_of_derivatives(prof, quadratic_form_matrix(NO_AXIS_5D), x, 1e-4)
    assert np.abs(total / scale).max() <= 1e-5


def _no_axis_order_four():
    coeffs = dict(polyharmonic(5, 2).coefficients)
    e1, e2 = (2, 0, 0, 0, 0), (0, 2, 0, 0, 0)
    coeffs[(e1, e1)] += 1.0
    coeffs[(e2, e2)] += 2.0
    return EllipticOperator(5, 2, coeffs, name="no_rotation_axis")


@pytest.mark.parametrize("op, axis", [
    (laplacian(3), 3), (laplacian(4), 4), (laplacian(5), 5), (polyharmonic(5, 2), 5),
    (polyharmonic(4, 2), 4), (mn8_operator(), 7), (_stiff_axis_operator(1000.0), 7),
    (_stiff_axis_operator(5000.0), 7), (_stiff_axis_operator(1e6), 7),
    (_diagonal_operator(1.0, 1.0, 3.5), 2), (_diagonal_operator(1.0, 1.0, 1.0, 0.2), 3),
    (_diagonal_operator(3.5, 1.0, 1.0), 0), (EVEN_ANISOTROPIC, None), (CROSS_TERM, None),
    (NO_AXIS_5D, None), (_no_axis_order_four(), None),
], ids=["laplacian3", "laplacian4", "laplacian5", "biharmonic5", "biharmonic4", "mn8",
        "stiff1e3", "stiff5e3", "stiff1e6", "diag_n3", "diag_n4", "diag_axis0",
        "even_anisotropic", "cross_term", "no_axis_5d", "no_axis_order_four"])
def test_isotropy_axis_picks_the_route(op, axis):
    # n for a fully isotropic symbol, else the rotation axis, else None
    assert fundsol._isotropy_axis(op) == axis


def test_warm_profile_evaluates_the_symbol_only_for_its_axial_fit(monkeypatch):
    # the sphere sample is taken once per operator; a second profile of the
    # same instance evaluates P only on the m + 1 points of _axial_symbol
    op = polyharmonic(5, 2)
    compute_profile(op)
    points = []
    symbol = EllipticOperator.symbol

    def counted(self, xi):
        points.append(np.asarray(xi)[..., 0].size)
        return symbol(self, xi)

    monkeypatch.setattr(EllipticOperator, "symbol", counted)
    compute_profile(op)
    assert points and max(points) <= op.m + 1


def test_laplacian4_fft_calibrated():
    prof = compute_profile(laplacian(4))
    assert np.abs(prof.values / riesz_constant(1, 4) - 1.0).max() <= 1e-12


def test_sign_summary_trivia():
    dirs = np.eye(3)
    pos = SphereProfile(dirs, np.ones(3), -1, "c", "exact", 0.0)
    assert sign_summary(pos)["fraction_negative"] == 0.0
    mixed = SphereProfile(np.vstack([dirs, -dirs]), np.array([1.0, 1, 1, -1, -1, -1]),
                          -1, "c", "exact", 0.0)
    assert sign_summary(mixed)["fraction_negative"] == 0.5


@pytest.mark.slow
def test_mn8_profile_attains_both_signs():
    prof = compute_profile(mn8_operator())
    summary = sign_summary(prof)
    assert summary["fraction_negative"] > 0.0
    assert summary["min"] < 0.0 < summary["max"]
    # the negative values live in a thin cone around the distinguished axis
    axis_vals = prof.value_at_directions(np.eye(8)[[7]])
    assert axis_vals[0] < 0.0
    equator = prof.value_at_directions(np.eye(8)[[0]])
    assert equator[0] > 0.0


def _profile_bits(prof):
    data = {k: np.asarray(v).tobytes() for k, v in prof.model_data.items()}
    return prof.values.tobytes(), np.float64(prof.error_estimate).tobytes(), data


@pytest.mark.slow
def test_cached_quadrature_rules_are_bitwise_unchanged(monkeypatch):
    # the rules' __wrapped__ builds every rule afresh on each call
    ops = [laplacian(3), laplacian(4), polyharmonic(5, 2), mn8_operator()]
    cached = [_profile_bits(compute_profile(op)) for op in ops]
    monkeypatch.setattr(fundsol, "_gauss_legendre", fundsol._gauss_legendre.__wrapped__)
    monkeypatch.setattr(fundsol, "_gauss_jacobi", fundsol._gauss_jacobi.__wrapped__)
    assert [_profile_bits(compute_profile(op)) for op in ops] == cached


def test_cached_quadrature_rules_are_read_only():
    for x, w in (fundsol._gauss_legendre(32), fundsol._gauss_jacobi(160, 0.5)):
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.0


def test_regime_and_ellipticity_guards():
    with pytest.raises(UnsupportedRegimeError):
        compute_profile(polyharmonic(4, 2))
    e1, e2 = (1, 0, 0), (0, 1, 0)
    saddle = EllipticOperator(3, 1, {(e1, e1): 1.0, (e2, e2): -1.0})
    with pytest.raises(InputError):
        compute_profile(saddle)


def test_second_order_ellipticity_is_decided_exactly(rotated_indefinite_operator):
    op = rotated_indefinite_operator
    ok, worst, direction = check_ellipticity(op)
    assert not ok and worst == pytest.approx(-1e-4, rel=1e-9)
    assert op.symbol(direction[None])[0] == pytest.approx(worst, rel=1e-9)
    with pytest.raises(InputError):
        compute_profile(op)


def test_fft_backend_refuses_five_dimensions():
    # order four without a rotation axis has no exact route: refused
    with pytest.raises(UnsupportedRegimeError):
        compute_profile(_no_axis_order_four())


def _reference_alpha_profile(op, axis, alphas, refine=1, shrink=1):
    # reference rule: 1/P(a^2) through Polynomial.__call__, with fresh
    # temporaries at every angle
    from scipy.special import gamma

    n, m = op.n, op.m
    count, tail_count, slice_count = (refine * c for c in fundsol._PW_NODES)
    P = fundsol._axial_symbol(op, axis)
    t, tw = fundsol._t_rule(n - 2 * m, fundsol._contour_radius(P) / shrink, count, tail_count)
    x, xw = fundsol._gauss_jacobi(slice_count, n / 2.0 - 2.0)
    R = np.sqrt(1.0 - t * t)
    scale = (2.0 * math.pi**(n / 2.0 - 1.0) / gamma(n / 2.0 - 1.0) * R ** (n - 3)
             * (2.0 * math.pi) ** -n)
    values, sizes = np.empty(len(alphas)), np.empty(len(alphas))
    for i, alpha in enumerate(alphas):
        a = t[:, None] * math.cos(alpha) + np.outer(R * math.sin(alpha), x)
        G = scale * ((1.0 / P(a * a)) @ xw)
        values[i] = (G @ tw).real
        sizes[i] = np.abs(G) @ np.abs(tw)
    return values, sizes


@pytest.mark.parametrize("op", [laplacian(3), laplacian(4), polyharmonic(5, 2),
                                polyharmonic(7, 3), mn8_operator()],
                         ids=["laplacian3", "laplacian4", "biharmonic5", "triharmonic7", "mn8"])
def test_in_place_slice_values_are_bitwise_polynomial_calls(op):
    probes = fundsol._ALPHAS[fundsol._PROBES]
    runs = [(probes, {}), (probes, {"refine": 2, "shrink": 2})]
    if op.name == "mn8":
        runs.append((fundsol._ALPHAS, {}))
    for alphas, rule in runs:
        got = _rule_on_axis(op, op.n - 1, alphas, **rule)
        want = _reference_alpha_profile(op, op.n - 1, alphas, **rule)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


@pytest.mark.memory
def test_planewave_profile_memory_is_two_slice_buffers():
    op = laplacian(4)
    compute_profile(op)
    tracemalloc.start()
    try:
        compute_profile(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the estimate rule's slice buffers are complex, 264 t nodes by 320 slice
    # nodes; its two buffers and the small arrays around them peaked at 2.24
    # buffers (3.03 MB, numpy 2.4), against 6.14 when each angle allocated
    # its own temporaries
    assert peak < 2.5 * 16 * 264 * 320
