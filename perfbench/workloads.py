"""The benchmark's workloads: fixed problems, the operations that run them
through polycap's public API and in-process CLI, and the checks on each
result.

A workload is a list of `Op`s.  `run` is the timed call into polycap; `check`
is untimed and returns the failed checks plus the relative errors of the
calibrated quantities against the closed forms in `oracles`.  Every check
compares with an independent computation or a property the method must have,
never with a stored copy of earlier output.
"""

import filecmp
import json
import math
import os

import numpy as np

import polycap as pc
from polycap import cli

import oracles


class Op:
    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _cli(outdir, *argv):
    code = cli.main(list(argv) + ["--out", outdir])
    if code != 0:
        raise RuntimeError(f"polycap {argv[0]} exited with code {code}")
    with open(os.path.join(outdir, "summary.json")) as fh:
        return json.load(fh)


def _dilation_failures(label, series):
    """Every scale is an exact power-of-two dilation of the first, so the
    ball normaliser over rho^(n-2m) must agree across scales."""
    scaled = np.array(series.ball_capacity) / np.array(series.rho) ** (series.n - 2 * series.m)
    spread = float(np.abs(scaled / scaled[0] - 1.0).max())
    return [f"{label}: ball normaliser breaks dilation by {spread:.3e}"] if spread > 1e-12 else []


def _normaliser_errors(series):
    return [oracles.rel_err(b, oracles.ball_capacity(series.m, series.n, rho))
            for rho, b in zip(series.rho, series.ball_capacity)]


# -- cartesian_solves ----------------------------------------------------------


def cartesian_solves(tmp):
    ball25, grid25 = pc.Ball(0.25), pc.Grid(5, 0.25, 5)
    ball24, grid24 = pc.Ball(0.25), pc.Grid(4, 0.125, 8)
    lap3, cone = pc.laplacian(3), pc.Cone(math.pi / 4)
    decay_h = (1 / 16, 1 / 32)

    def check_capacity(summary):
        raw = summary["raw_values"]
        fails = []
        err = oracles.rel_err(summary["value"], oracles.newton_capacity(3, 1.0))
        if err > 0.10:
            fails.append(f"(1,3) extrapolated capacity off 4 pi by {err:.1%}")
        if not raw["extent_20"] >= raw["extent_40"]:
            fails.append("raw capacity grew with the box")
        return fails, [err]

    def check_potential(_):
        table = np.loadtxt(os.path.join(tmp, "potential", "potential.csv"), delimiter=",",
                           skiprows=1)
        x, u = table[:, :3], table[:, 3]
        fails = []
        if u.min() < -1e-9 or u.max() > 1.0 + 1e-9:
            fails.append(f"potential leaves [0, 1]: [{u.min():.3e}, {u.max():.3e}]")
        on_k = np.linalg.norm(x, axis=1) <= 1.0 + 1e-9
        if not on_k.any() or np.abs(u[on_k] - 1.0).max() > 1e-9:
            fails.append("potential is not 1 on the ball")
        return fails, []

    def check_cap25(value):
        err = oracles.rel_err(value.value, oracles.biharmonic_ball_capacity(5, ball25.radius))
        return ([] if value.value > 0 else ["(2,5) capacity is not positive"]), [err]

    def check_bessel(value):
        # the order-0 term alone gives energy >= h^n * #(nodes of K)
        x = grid24.axis_coords()
        r2 = sum(np.meshgrid(*([x**2] * 4), indexing="ij"))
        floor = grid24.h**4 * int((r2 <= 0.25**2 + 1e-12).sum())
        ok = math.isfinite(value.value) and value.value >= floor
        return ([] if ok else [f"Sobolev capacity {value.value} below {floor}"]), []

    def check_decay(reports):
        a, b = reports
        fails = []
        if not (a.c2 > 0 and b.c2 > 0):
            fails.append(f"decay exponents not positive: {a.c2}, {b.c2}")
        elif abs(b.c2 - a.c2) > 0.30 * a.c2:
            fails.append(f"decay exponent unstable under refinement: {a.c2}, {b.c2}")
        return fails, []

    return [
        Op("cli_capacity_1_3", lambda: _cli(
            os.path.join(tmp, "capacity"), "capacity", "--preset", "laplacian", "--n", "3",
            "--ball", "1.0", "--h", "0.2", "--box", "4", "--box-levels", "2"),
           check_capacity),
        Op("cli_potential_1_3", lambda: _cli(
            os.path.join(tmp, "potential"), "potential", "--preset", "laplacian", "--n", "3",
            "--ball", "1.0", "--h", "0.125", "--box", "3"),
           check_potential),
        Op("cap_m_2_5", lambda: pc.cap_m(ball25, 2, grid25), check_cap25),
        Op("bessel_capacity_2_4", lambda: pc.bessel_capacity(ball24, 2, grid24),
           check_bessel),
        Op("decay_check_cone", lambda: [pc.decay_check(lap3, cone, 3, R=0.25, grid_h=h)
                                        for h in decay_h],
           check_decay),
    ]


# -- wiener_regularity ---------------------------------------------------------


def wiener_regularity(tmp):
    # (label, complement, closed-form verdict key, m, n, nodes per rho, backend)
    series_cases = [
        ("power_cusp_2_6", pc.Cusp("power", 2.0), ("power", 2.0), 2, 6, 12, "axisym"),
        ("exp_cusp_2_6", pc.Cusp("exponential", 1.0), ("exponential", 1.0), 2, 6, 12,
         "axisym"),
        ("cone_2_5", pc.Cone(math.pi / 4), ("cone", 1.0), 2, 5, 8, "axisym"),
        ("cone_1_3_cartesian", pc.Cone(math.pi / 4), ("cone", 1.0), 1, 3, 5, "cartesian"),
    ]
    lap3 = pc.laplacian(3)
    ladder = dict(h_values=(1 / 64, 1 / 128, 1 / 256), rho_levels=(1, 2, 3, 4, 5, 6, 7),
                  backend="axisym")
    d1, d2 = os.path.join(tmp, "wiener_1"), os.path.join(tmp, "wiener_2")

    def series_op(label, region, key, m, n, npr, backend):
        def run():
            series = pc.annulus_series(region, m, n, j_range=(0, 8), nodes_per_rho=npr,
                                       backend=backend)
            return series, pc.wiener_classify(series)

        def check(result):
            series, verdict = result
            expected = oracles.cusp_verdict(key[0], key[1], m, n)
            got = verdict.classification
            fails = _dilation_failures(label, series)
            if key[0] == "cone" and got != "regular":
                fails.append(f"{label}: cone classified {got}")
            elif got not in (expected, "inconclusive"):
                fails.append(f"{label}: classified {got}, criterion says {expected}")
            return fails, _normaliser_errors(series)

        return Op(f"series_{label}", run, check)

    def probe_op(label, region, expected):
        def check(report):
            ok = report.trend == expected
            return ([] if ok else [f"probe {label}: {report.trend}, expected {expected}"]), []

        return Op(f"probe_{label}", lambda: pc.regularity_probe(lap3, region, 3, **ladder),
                  check)

    def cli_rerun():
        first = _cli(d1, "wiener", "--m", "1", "--n", "3", "--domain", "cone:45",
                     "--j-max", "6", "--nodes-per-rho", "8")
        _cli(d2, "--config", os.path.join(d1, "manifest.json"), "wiener")
        return first

    def check_rerun(summary):
        fails = [f"manifest rerun changed {name}" for name in ("summary.json", "series.csv")
                 if not filecmp.cmp(os.path.join(d1, name), os.path.join(d2, name),
                                    shallow=False)]
        if summary["classification"] != "regular":
            fails.append(f"CLI cone classified {summary['classification']}")
        return fails, []

    return ([series_op(*case) for case in series_cases] + [
        probe_op("cone", pc.Cone(math.pi / 3), "vanishing"),
        probe_op("exp_cusp", pc.Cusp("exponential", 1.0), "non-vanishing"),
        Op("cli_wiener_rerun", cli_rerun, check_rerun),
    ])


# -- kernels_positivity --------------------------------------------------------


def kernels_positivity(tmp):
    # (operator, m, n); n <= 4 takes the fft backend, (5, 2) the subordination one
    kernels = [(pc.laplacian(3), 1, 3), (pc.laplacian(4), 1, 4), (pc.polyharmonic(5, 2), 2, 5)]

    def profile_op(op, m, n):
        def check(profile):
            exact = oracles.riesz_constant(m, n)
            err = float(np.abs(np.asarray(profile.values) / exact - 1.0).max())
            return ([] if err <= 0.01 else
                    [f"({m},{n}) kernel off its Riesz constant by {err:.2%}"]), [err]

        return Op(f"profile_{m}_{n}", lambda: pc.compute_profile(op), check)

    def check_positive(verdict):
        ok = verdict.status == "positive_at_resolution"
        return ([] if ok else [f"(2,6) positivity: {verdict.status}"]), []

    def check_violated(verdict):
        w = verdict.witness or {}
        ok = (verdict.status == "violated" and w.get("quotient_fine_grid", 1.0) < 0
              and w.get("quotient_spectral", 1.0) < 0)
        return ([] if ok else [f"(2,8) positivity: {verdict.status}, witness {w}"]), []

    return [profile_op(*k) for k in kernels] + [
        Op("channel_positivity_2_6", lambda: pc.channel_positivity(2, 6), check_positive),
        Op("channel_positivity_2_8", lambda: pc.channel_positivity(2, 8), check_violated),
    ]


# workload -> (operations, fewest rounds a run makes); the short rounds repeat
# so that each run measures for about 14 s or more, which averages over some
# of the host's slow phases
WORKLOADS = {
    "cartesian_solves": (cartesian_solves, 2),
    "wiener_regularity": (wiener_regularity, 3),
    "kernels_positivity": (kernels_positivity, 1),
}
