import numpy as np
import pytest

from polycap import (EllipticOperator, InputError, check_ellipticity, fourier_kernel_probe,
                     laplacian, load_operator, mn8_operator, polyharmonic, save_operator,
                     unit_directions)


def test_symbol_values():
    assert laplacian(3).symbol([1.0, 2.0, 2.0]) == pytest.approx(9.0)
    e1 = np.eye(5)[0]
    assert polyharmonic(5, 2).symbol(e1) == pytest.approx(1.0)
    e8 = np.zeros(8)
    e8[7] = 1.0
    assert mn8_operator().symbol(e8) == pytest.approx(11.0)


def test_symbol_homogeneity():
    rng = np.random.default_rng(3)
    for op in (laplacian(3), polyharmonic(4, 2), mn8_operator()):
        xi = rng.standard_normal(op.n)
        base = op.symbol(xi)
        for t in (2.0, 3.0):
            scaled = op.symbol(t * xi)
            assert abs(scaled - t ** (2 * op.m) * base) <= 1e-10 * t ** (2 * op.m) * abs(base)


def test_symbol_terms_are_built_once_and_read_only():
    for op in (laplacian(4), polyharmonic(5, 2), mn8_operator()):
        exps, coefs = op._terms
        assert op._terms is op._terms
        assert not exps.flags.writeable and not coefs.flags.writeable
        fresh = EllipticOperator._terms.func(op)
        assert exps.tobytes() == fresh[0].tobytes() and coefs.tobytes() == fresh[1].tobytes()


def test_unit_directions_are_built_once_and_read_only():
    for n, count in [(3, 0), (5, 128), (8, 4096)]:
        dirs = unit_directions(n, count)
        assert unit_directions(n, count) is dirs
        assert not dirs.flags.writeable
        fresh = unit_directions.__wrapped__(n, count)
        assert dirs.tobytes() == fresh.tobytes()


def test_symmetrization_idempotent():
    e1 = (1, 0)
    e2 = (0, 1)
    # one triple declares both ordered entries of the symmetric table
    op = EllipticOperator(2, 1, {(e1, e2): 2.0})
    again = EllipticOperator(2, 1, dict(op.coefficients))
    assert op.coefficients == again.coefficients
    assert op.symbol([1.0, 1.0]) == pytest.approx(4.0)
    # declarations over the same orbit average rather than accumulate
    both = EllipticOperator(2, 1, {(e1, e2): 2.0, (e2, e1): 4.0})
    assert both.symbol([1.0, 1.0]) == pytest.approx(6.0)


def test_ellipticity_verdicts():
    ok, val, _ = check_ellipticity(polyharmonic(5, 2), 1000)
    assert ok and val == pytest.approx(1.0, abs=1e-12)
    ok, _, _ = check_ellipticity(mn8_operator(), 600)
    assert ok
    # P = xi_1^4 - |xi|^4 vanishes on the first axis and is negative off it
    bad_coeffs = dict(polyharmonic(2, 2).coefficients)
    neg = {k: -v for k, v in bad_coeffs.items()}
    e11 = ((2, 0), (2, 0))
    neg[e11] = neg.get(e11, 0.0) + 1.0
    bad = EllipticOperator(2, 2, neg)
    ok, val, _ = check_ellipticity(bad, 500)
    assert not ok and val <= 0.0


def test_kernel_probe_hand_value():
    nodes = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    val = fourier_kernel_probe(laplacian(3), nodes, np.array([1.0, 1.0]))
    assert val == pytest.approx(1.0, abs=1e-14)


def test_kernel_probe_symmetric_in_nodes():
    rng = np.random.default_rng(11)
    nodes = rng.standard_normal((6, 3))
    w = rng.standard_normal(6)
    op = laplacian(3)
    base = fourier_kernel_probe(op, nodes, w)
    perm = rng.permutation(6)
    assert abs(fourier_kernel_probe(op, nodes[perm], w[perm]) - base) <= 1e-12 * abs(base)


def test_kernel_probe_biharmonic_axes_positive():
    op = polyharmonic(5, 2)
    nodes = np.vstack([np.eye(5), -np.eye(5)])[:6]
    val = fourier_kernel_probe(op, nodes, np.ones(6))
    assert val > 0.0


def test_kernel_probe_errors():
    op = laplacian(2)
    with pytest.raises(InputError):
        fourier_kernel_probe(op, np.array([[1.0, 0.0]]), np.array([1.0]))
    with pytest.raises(InputError, match="coincide"):
        fourier_kernel_probe(op, np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones(2))
    with pytest.raises(InputError):
        fourier_kernel_probe(op, np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))


def test_operator_file_round_trip(tmp_path):
    op = mn8_operator()
    path = tmp_path / "mn8.json"
    save_operator(op, path)
    back = load_operator(path)
    assert back.n == 8 and back.m == 2
    assert back.coefficients == op.coefficients


def test_dimension_mismatch():
    with pytest.raises(InputError):
        laplacian(3).symbol([1.0, 2.0])
