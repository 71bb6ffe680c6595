import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse

from polycap import (ChannelForm, Grid, InputError, UnsupportedRegimeError,
                     channel_positivity, hardy_channel_symbol, min_symbol_quotient,
                     op_channel_symbol, polyharmonic, positivity, riesz_constant,
                     smallest_generalized_eig)
from polycap.fundsol import SphereProfile
from polycap.positivity import hardy_channel_poly, op_channel_poly
from polycap.stencils import alpha_offsets, sparse_stencil


def test_channel_symbols_match_hand_formulas():
    tau = np.array([0.5, 1.0, 2.0, 3.0])
    # order 4, dimension 8, radial channel: Re prod = tau^2 (tau^2 - 4)
    assert np.allclose(op_channel_symbol(2, 8, 0, tau), tau**2 * (tau**2 - 4.0))
    # Hardy side: tau^2 + (tau^4 + 8 tau^2)
    assert np.allclose(hardy_channel_symbol(2, 8, 0, tau), tau**4 + 9.0 * tau**2)
    # second order: k(k+n-2) + tau^2 for every channel
    for k in (0, 1, 3):
        assert np.allclose(op_channel_symbol(1, 5, k, tau), k * (k + 3) + tau**2)


def test_hardy_symbol_is_a_squared_norm():
    tau = np.linspace(0.01, 30.0, 500)
    for (m, n, k) in ((2, 5, 0), (2, 8, 1), (3, 7, 0), (3, 9, 2)):
        assert hardy_channel_symbol(m, n, k, tau).min() > 0.0


CRITERION_4_PAIRS = [(1, 3), (1, 4), (2, 5), (2, 6), (2, 7), (3, 7), (3, 8), (2, 8), (2, 9)]


@pytest.mark.parametrize("m,n,k", [(m, n, 0) for m, n in CRITERION_4_PAIRS]
                         + [(2, 5, 20), (3, 8, 26)])
def test_min_symbol_quotient_matches_dense_oracle(m, n, k):
    """The exact infimum against a dense tau grid on [0, 400] refined by a
    bounded scalar minimisation around the grid minimum.  At k = 20 and
    k = 26 the minimiser lies beyond tau = 45."""
    kappa = riesz_constant(m, n)

    def ratio(tau):
        return kappa * op_channel_symbol(m, n, k, tau) / hardy_channel_symbol(m, n, k, tau)

    tau = np.linspace(0.0, 400.0, 400_001)
    tau[0] = 1e-8  # both k = 0 symbols vanish at tau = 0
    vals = ratio(tau)
    j = int(np.argmin(vals))
    res = scipy.optimize.minimize_scalar(
        lambda t: float(ratio(np.array([t]))[0]),
        bounds=(tau[max(j - 1, 0)], tau[min(j + 1, tau.size - 1)]), method="bounded",
        options={"xatol": 1e-12})
    oracle = min(float(vals[j]), float(res.fun))
    assert min_symbol_quotient(m, n, k) == pytest.approx(oracle, rel=1e-10, abs=0.0)


def test_discrete_quotient_matches_symbol_minimum():
    for (m, n) in ((2, 5), (2, 8)):
        form = ChannelForm(m, n, 0, 80.0, 0.1)
        val, _ = smallest_generalized_eig(form.A, form.B)
        assert val == pytest.approx(min_symbol_quotient(m, n, 0), abs=2e-4)


@pytest.mark.parametrize("m,n,k", [(1, 3, 2), (2, 8, 0), (2, 9, 5), (3, 8, 2)])
def test_channel_forms_match_padded_definition(m, n, k):
    """The Toeplitz bands against sum_p c_p dt D_p^T D_p with sparse order-p
    differences on the grid padded by m + 1 nodes, restricted to the nodes."""
    form = ChannelForm(m, n, k, 8.0, 0.1)
    pad = m + 1
    padded = (form.nodes + 2 * pad,)
    inner = np.arange(pad, pad + form.nodes)
    for mat, poly, scale in ((form.A, op_channel_poly(m, n, k), riesz_constant(m, n)),
                             (form.B, hardy_channel_poly(m, n, k), 1.0)):
        ref = 0.0
        for p, c in enumerate(scale * np.asarray(poly.coef).real[0::2]):
            d = sparse_stencil(padded, alpha_offsets((p,))).tocsc()[:, inner] / form.dt**p
            ref = ref + c * form.dt * (d.T @ d)
        assert abs(mat - ref).max() <= 1e-13 * abs(ref).max()


@pytest.mark.parametrize("m,n,k", [(2, 5, 0), (2, 8, 0), (2, 8, 3), (3, 8, 2)])
def test_banded_eig_matches_dense_reference(m, n, k):
    form = ChannelForm(m, n, k, 60.0, 0.1)
    val, vec = smallest_generalized_eig(form.A, form.B)
    ref = scipy.linalg.eigh(form.A.toarray(), form.B.toarray(), eigvals_only=True).min()
    assert abs(val - ref) <= 1e-11
    ax = form.A @ vec
    assert np.linalg.norm(ax - val * (form.B @ vec)) <= 1e-8 * np.linalg.norm(ax)


def test_banded_eig_rejects_indefinite_b():
    a = scipy.sparse.diags([np.full(4, -1.0), np.full(5, 2.0), np.full(4, -1.0)], [-1, 0, 1])
    b = scipy.sparse.diags([1.0, 1.0, -1.0, 1.0, 1.0])
    with pytest.raises(InputError):
        smallest_generalized_eig(a, b)


@pytest.mark.parametrize("m,n,expect", [
    (1, 3, "positive_at_resolution"),
    (2, 5, "positive_at_resolution"),
    (2, 8, "violated"),
])
def test_channel_verdicts(m, n, expect):
    verdict = channel_positivity(m, n)
    assert verdict.status == expect
    if expect == "violated":
        w = verdict.witness
        assert w is not None
        assert w["quotient_fine_grid"] < 0.0
        assert w["quotient_spectral"] < 0.0


@pytest.mark.parametrize("m,n", [(3, 9), (3, 10), (4, 12)])
def test_higher_order_violations_ship_negative_witnesses(m, n):
    verdict = channel_positivity(m, n)
    assert verdict.status == "violated"
    w = verdict.witness
    assert w["quotient"] < 0.0
    assert w["quotient_fine_grid"] < 0.0
    assert w["quotient_spectral"] < 0.0


@pytest.mark.parametrize("m,n", [(2, 6), (2, 8)])
def test_channel_guard_extends_a_sweep_that_ends_at_its_minimum(m, n):
    # the smallest quotient of the sweep [0, 1] sits at one of its two
    # highest channels, so the sweep goes on to twice the highest, and the
    # verdict is the default sweep's
    guarded = channel_positivity(m, n, channels=[0, 1])
    assert guarded.resolution["channels"] == [0, 1, 2]
    assert guarded.notes == ["channel guard extended the sweep to k <= 2"]
    assert guarded.status == channel_positivity(m, n).status


def test_failed_revalidation_is_inconclusive(monkeypatch, tmp_path):
    from polycap import cli, positivity

    monkeypatch.setattr(positivity, "_revalidate_witness", lambda *args: (1e-3, -1e-3))
    verdict = channel_positivity(2, 8)
    assert verdict.status == "inconclusive"
    assert verdict.witness is None
    assert "failed re-validation" in verdict.notes[-1]
    monkeypatch.chdir(tmp_path)
    assert cli.main(["positivity", "--m", "2", "--n", "8", "--require-verdict",
                     "--out", "inc"]) == 4


def test_witness_shift_invariance():
    form = ChannelForm(2, 8, 0, 120.0, 0.1)
    val, vec = smallest_generalized_eig(form.A, form.B)
    # taper the window edges (hard cutoffs cost fourth-order energy), then
    # translate; constant coefficients in the log variable make the quotient
    # shift invariant
    edge = len(vec) // 10
    taper = np.ones_like(vec)
    ramp = np.linspace(0.0, 1.0, edge)
    taper[:edge] = ramp
    taper[-edge:] = ramp[::-1]
    w = vec * taper
    base = form.quotient(w)
    assert base < 0.0
    for shift in (1, 3):
        assert form.quotient(np.roll(w, shift)) == pytest.approx(base, abs=1e-8)


def test_channel_regime_guard():
    with pytest.raises(UnsupportedRegimeError):
        channel_positivity(2, 4)


def _riesz_profile(m, n):
    k = riesz_constant(m, n)
    return SphereProfile(np.eye(n), np.full(n, k), 2 * m - n, "riesz-exact", "exact",
                         0.0, "constant", {"constant": k})


@pytest.mark.slow
def test_cross_method_agreement_biharmonic5():
    """Cartesian energies and channel forms agree quantitatively in (m, n) = (2, 5).

    A full 5-d eigensolve is out of reach, so the cross-check evaluates both
    quadratic forms on the same radial test field: the Cartesian weighted and
    Hardy energies against the one-dimensional channel forms.  The channel
    verdict itself is positive, and the grid-side ratio must agree with the
    channel ratio of the matching profile.
    """
    from polycap import hardy_weighted_energy, weighted_operator_energy

    channel = channel_positivity(2, 5)
    assert channel.status == "positive_at_resolution"

    grid = Grid(5, 0.35, 9)
    r = grid.radii()
    t = np.log(np.where(r > 0, r, 1.0))
    u = np.exp(-40.0 * (t - 0.72) ** 2)
    u[np.abs(grid.coords()).max(axis=-1) <= 4 * grid.h + 1e-12] = 0.0
    num = weighted_operator_energy(u, polyharmonic(5, 2), grid, _riesz_profile(2, 5))
    den = hardy_weighted_energy(u, 2, grid)
    grid_ratio = num / den

    form = ChannelForm(2, 5, 0, 8.0, 0.01)
    tg = np.linspace(-4.0, 4.0, form.nodes)
    channel_ratio = form.quotient(np.exp(-40.0 * (tg - 0.72) ** 2))
    assert grid_ratio == pytest.approx(channel_ratio, rel=0.05)
    assert grid_ratio > 0.0


def test_channel_forms_validated_against_grid_hardy():
    """The Mellin reduction of the comparison form matches a Cartesian sum for
    a concrete profile in channels k = 0 and k = 1."""
    from polycap import hardy_weighted_energy

    n, m = 3, 1
    grid = Grid(n, 0.05, 60)
    r = grid.radii()
    f = np.exp(-8.0 * (np.log(np.maximum(r, 1e-12)) + 0.3) ** 2)
    f[r < 0.25] = 0.0
    # k = 0: u = f(r)
    got0 = hardy_weighted_energy(f, m, grid)
    # Mellin side evaluated spectrally on a 1-d profile in t = log r
    from polycap import sphere_surface

    tg = np.linspace(-3.0, 3.0, 4096)
    prof = np.exp(-8.0 * (tg + 0.3) ** 2)
    prof[tg < np.log(0.25)] = 0.0
    dt = tg[1] - tg[0]
    fhat = np.fft.fft(prof)
    tau = 2 * np.pi * np.fft.fftfreq(prof.size, d=dt)
    want0 = sphere_surface(n) * float(
        (hardy_channel_symbol(m, n, 0, tau) * np.abs(fhat) ** 2).sum()
    ) * dt / prof.size
    assert got0 == pytest.approx(want0, rel=0.03)
    # k = 1: u = f(r) * (x_n / r), a degree-one harmonic with unit sphere norm
    # times sqrt of the sphere average of (x_n/r)^2 = 1/n
    xn = grid.coords()[..., -1]
    u1 = np.where(r > 0, f * xn / np.maximum(r, 1e-300), 0.0)
    got1 = hardy_weighted_energy(u1, m, grid)
    want1 = sphere_surface(n) / n * float(
        (hardy_channel_symbol(m, n, 1, tau) * np.abs(fhat) ** 2).sum()
    ) * dt / prof.size
    assert got1 == pytest.approx(want1, rel=0.03)


def test_memoised_hardy_recursion_is_bitwise_unchanged(monkeypatch):
    # hardy_channel_poly.__wrapped__ bypasses the per-channel cache; with
    # _g_poly unwrapped in the module, its recursion runs without memo too
    memoised = [hardy_channel_poly.__wrapped__(4, 12, k).coef for k in range(13)]
    monkeypatch.setattr(positivity, "_g_poly", positivity._g_poly.__wrapped__)
    plain = [hardy_channel_poly.__wrapped__(4, 12, k).coef for k in range(13)]
    for a, b in zip(memoised, plain):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
