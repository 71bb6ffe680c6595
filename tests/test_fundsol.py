import numpy as np
import pytest

from polycap import (InputError, UnsupportedRegimeError, compute_profile, laplacian,
                     mn8_operator, polyharmonic, riesz_constant, sign_summary)
from polycap.fundsol import (SphereProfile, _subordination_alpha_profile,
                             _subordination_setup)


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


def test_resolution_doubling_within_error_estimate(lap3_profile):
    # the reported estimate is calibrated from exactly this comparison
    smaller = compute_profile(laplacian(3), resolution=64)
    e1 = np.eye(3)[0]
    a = lap3_profile.values[np.argmax(lap3_profile.directions @ e1)]
    b = smaller.values[np.argmax(smaller.directions @ e1)]
    assert abs(a - b) <= max(lap3_profile.error_estimate, 1e-12)


def test_biharmonic5_profile_positive_and_calibrated():
    prof = compute_profile(polyharmonic(5, 2))
    assert prof.values.min() > 0.0
    assert np.abs(prof.values / riesz_constant(2, 5) - 1.0).max() <= 1e-6


def test_isotropic_subordination_is_one_constant():
    op = laplacian(5)
    prof = compute_profile(op)
    assert (prof.method, prof.angular_model) == ("subordination", "constant")
    assert np.all(prof.values == prof.values[0])
    assert prof.model_data["constant"] == prof.values[0]
    assert abs(prof.values[0] / riesz_constant(1, 5) - 1.0) <= 1e-6
    # the angle the constant is taken at does not matter: on and across the
    # axis the quadrature agrees to its own accuracy (5e-10 on the axis)
    ends = _subordination_alpha_profile(_subordination_setup(op, 4), [0.0, np.pi / 2])
    assert np.abs(ends / prof.values[0] - 1.0).max() <= 1e-9


def test_laplacian4_fft_calibrated():
    prof = compute_profile(laplacian(4), backend="fft")
    assert np.abs(prof.values / riesz_constant(1, 4) - 1.0).max() <= 0.02


def test_sign_summary_trivia():
    dirs = np.eye(3)
    pos = SphereProfile(dirs, np.ones(3), -1, "c", "exact", 0.0, "general")
    assert sign_summary(pos)["fraction_negative"] == 0.0
    mixed = SphereProfile(np.vstack([dirs, -dirs]), np.array([1.0, 1, 1, -1, -1, -1]),
                          -1, "c", "exact", 0.0, "general")
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


def test_regime_and_ellipticity_guards():
    with pytest.raises(UnsupportedRegimeError):
        compute_profile(polyharmonic(4, 2))
    from polycap import EllipticOperator

    e1, e2 = (1, 0, 0), (0, 1, 0)
    saddle = EllipticOperator(3, 1, {(e1, e1): 1.0, (e2, e2): -1.0})
    with pytest.raises(InputError):
        compute_profile(saddle)
