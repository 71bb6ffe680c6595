"""Batch front door: subcommands wiring run configurations to the modules.

Every run validates its configuration, writes a manifest echoing the
resolved settings next to its outputs, and emits JSON summaries plus CSV
tables.  Exit codes: 0 success, 2 invalid input or configuration, 3
unsupported regime, 4 inconclusive where the run demanded a hard verdict or
an iterative solve did not converge.
"""

import argparse
import os
import sys

import numpy as np

from .capacity import annulus_series, bessel_capacity, cap_m, series_to_csv
from .errors import ConfigurationError, InconclusiveError, InputError, UnsupportedRegimeError
from .fundsol import compute_profile, sign_summary
from .grids import Grid, Mask, dilate, mask_from_csv, region_from_dict
from .operators import check_ellipticity, load_operator, preset_operator, unit_directions
from .positivity import channel_positivity, grid_positivity
from .potential import (capacitary_potential, gradient_decay_check, lower_bound_check,
                        range_check)
from .regularity import (CuspProfile, bump, cusp_criterion, decay_check, dirichlet_solve,
                         wiener_classify)
from .reporting import write_csv, write_json, write_manifest, load_manifest_config


def _resolve_operator(cfg):
    if cfg.get("operator_file"):
        return load_operator(cfg["operator_file"])
    preset = cfg.get("preset", "laplacian")
    return preset_operator(preset, cfg.get("n"), cfg.get("m"))


def _parse_domain(spec):
    """Compact domain strings: cone:45, cusp:power:2, cusp:exponential:1,
    ball:0.5, ray; JSON dicts pass through region_from_dict."""
    if isinstance(spec, dict):
        return region_from_dict(spec)
    parts = str(spec).split(":")
    kind = parts[0]
    if kind == "cone":
        return region_from_dict({"kind": "cone", "half_angle_deg": float(parts[1])})
    if kind == "cusp":
        return region_from_dict({"kind": "cusp", "cusp_kind": parts[1],
                                 "param": float(parts[2])})
    if kind == "ball":
        return region_from_dict({"kind": "ball", "radius": float(parts[1])})
    if kind == "ray":
        return region_from_dict({"kind": "ray", "axis": int(parts[1]) if len(parts) > 1 else 0})
    raise ConfigurationError(f"cannot parse domain spec {spec!r}")


def _grid(cfg, n, box):
    """Grid of spacing h (default 0.1) and the given extent, else box / h nodes."""
    h = float(cfg.get("h", 0.1))
    return Grid(n, h, int(cfg.get("extent", round(box / h))))


def _outdir(cfg):
    out = cfg.get("out", "polycap_out")
    os.makedirs(out, exist_ok=True)
    return out


# -- subcommand handlers -------------------------------------------------------


def _run_symbol_check(cfg):
    op = _resolve_operator(cfg)
    samples = int(cfg.get("samples", 1024))
    ok, worst, direction = check_ellipticity(op, samples)
    out = _outdir(cfg)
    dirs = unit_directions(op.n, min(samples, 512))
    vals = op.symbol(dirs)
    write_csv(os.path.join(out, "symbol_samples.csv"),
              [f"d{i+1}" for i in range(op.n)] + ["P"],
              np.column_stack([dirs, vals]))
    write_json(os.path.join(out, "summary.json"), {
        "operator": op.name, "n": op.n, "m": op.m, "elliptic": ok,
        "min_symbol_on_sphere": worst, "worst_direction": list(direction),
        "samples": samples,
    })
    return 0


def _run_fundsol(cfg):
    op = _resolve_operator(cfg)
    profile = compute_profile(op, direction_count=cfg.get("directions"))
    out = _outdir(cfg)
    profile.to_csv(os.path.join(out, "profile.csv"))
    write_json(os.path.join(out, "summary.json"), {
        "operator": op.name, "n": op.n, "m": op.m,
        "homogeneity_degree": profile.homogeneity_degree,
        "method": profile.method, "sign_summary": sign_summary(profile),
    })
    return 0


def _run_capacity(cfg):
    op = _resolve_operator(cfg)
    m = op.m
    grid = _grid(cfg, op.n, float(cfg.get("box", 4.0)))
    if cfg.get("mask_csv"):
        target = mask_from_csv(grid, cfg["mask_csv"])
    elif cfg.get("ball") is not None:
        target = _parse_domain(f"ball:{cfg['ball']}")
    elif cfg.get("domain"):
        target = _parse_domain(cfg["domain"])
    else:
        raise ConfigurationError("capacity needs --ball, --domain, or --mask-csv")
    kind = cfg.get("kind", "homogeneous")
    if kind == "homogeneous":
        value = cap_m(target, m, grid, box_levels=int(cfg.get("box_levels", 1)))
    elif kind == "inhomogeneous":
        value = bessel_capacity(target, m, grid)
    else:
        raise ConfigurationError(f"unknown capacity kind {kind!r}")
    out = _outdir(cfg)
    write_json(os.path.join(out, "summary.json"),
               {"operator": op.name, "n": op.n, "m": m, **value.as_dict()})
    return 0


def _run_potential(cfg):
    op = _resolve_operator(cfg)
    grid = _grid(cfg, op.n, float(cfg.get("box", 4.0)))
    if cfg.get("mask_csv"):
        target = mask_from_csv(grid, cfg["mask_csv"])
    else:
        target = _parse_domain(f"ball:{cfg.get('ball', 1.0)}")
    report = capacitary_potential(op, target, grid)
    out = _outdir(cfg)
    summary = report.summary()
    summary["range_check"] = range_check(report)
    if "decay" in str(cfg.get("checks", "")):
        summary["gradient_decay"] = gradient_decay_check(report)
    if "lower" in str(cfg.get("checks", "")):
        summary["lower_bound"] = lower_bound_check(report, float(cfg.get("enclosing", 1.0)))
    write_json(os.path.join(out, "summary.json"), summary)
    coords = grid.coords().reshape(-1, grid.n)
    write_csv(os.path.join(out, "potential.csv"),
              [f"x{i+1}" for i in range(grid.n)] + ["u"],
              np.column_stack([coords, report.u.ravel()]))
    return 0


def _run_positivity(cfg):
    m = int(cfg["m"])
    n = int(cfg["n"])
    out = _outdir(cfg)
    if cfg.get("grid_check"):
        op = preset_operator("polyharmonic", n, m)
        profile = compute_profile(op)
        h = float(cfg.get("h", 0.25))
        extent = int(cfg.get("extent", 8))
        verdict = grid_positivity(op, Grid(n, h, extent), profile)
    else:
        kwargs = {}
        if cfg.get("channels") is not None:
            kwargs["channels"] = range(int(cfg["channels"]) + 1)
        if cfg.get("window") is not None:
            kwargs["t_window"] = float(cfg["window"])
        if cfg.get("dt") is not None:
            kwargs["dt"] = float(cfg["dt"])
        verdict = channel_positivity(m, n, **kwargs)
    if verdict.witness is not None and "values" in verdict.witness:
        vals = np.asarray(verdict.witness["values"]).ravel()
        write_csv(os.path.join(out, "witness.csv"), ["index", "value"],
                  np.column_stack([np.arange(vals.size), vals]))
    write_json(os.path.join(out, "summary.json"), verdict.as_dict())
    if cfg.get("require_verdict") and verdict.status not in ("positive_at_resolution",
                                                             "violated"):
        raise InconclusiveError("positivity did not reach a verdict")
    return 0


def _run_wiener(cfg):
    m = int(cfg["m"])
    n = int(cfg["n"])
    domain = _parse_domain(cfg["domain"])
    series = annulus_series(domain, m, n,
                            j_range=(int(cfg.get("j_min", 0)), int(cfg.get("j_max", 8))),
                            backend=cfg.get("backend", "auto"),
                            nodes_per_rho=int(cfg.get("nodes_per_rho", 12)))
    verdict = wiener_classify(series, require_verdict=bool(cfg.get("require_verdict")))
    out = _outdir(cfg)
    series_to_csv(series, os.path.join(out, "series.csv"))
    write_json(os.path.join(out, "summary.json"), verdict.as_dict())
    return 0


def _run_cusp(cfg):
    kind = cfg.get("kind", "power")
    param = float(cfg.get("p", cfg.get("a", 2.0)))
    profile = CuspProfile(kind, param)
    result = cusp_criterion(profile, int(cfg["m"]), int(cfg["n"]))
    out = _outdir(cfg)
    write_json(os.path.join(out, "summary.json"), {
        "kind": kind, "param": param, "m": int(cfg["m"]), "n": int(cfg["n"]), **result,
    })
    return 0


def _run_dirichlet(cfg):
    op = _resolve_operator(cfg)
    grid = _grid(cfg, op.n, 1.0)
    if cfg.get("domain"):
        comp = _parse_domain(cfg["domain"]).mask(grid)
        omega = Mask(grid, ~comp.where)
    else:
        interior = np.zeros(grid.shape, dtype=bool)
        interior[tuple(slice(1, -1) for _ in range(grid.n))] = True
        omega = Mask(grid, interior)
    center = np.zeros(grid.n)
    center[0] = 0.4 * grid.box_radius
    f = bump(grid, center, 0.15 * grid.box_radius)
    f[dilate(~omega.where, 2 * op.m)] = 0.0
    u, info = dirichlet_solve(op, omega, f)
    out = _outdir(cfg)
    coords = grid.coords().reshape(-1, grid.n)
    write_csv(os.path.join(out, "solution.csv"),
              [f"x{i+1}" for i in range(grid.n)] + ["u"],
              np.column_stack([coords, u.ravel()]))
    write_json(os.path.join(out, "summary.json"), {
        "operator": op.name, "n": grid.n, "m": op.m, "iterations": info["iterations"],
        "residual": info["residual"], "u_max": float(np.abs(u).max()),
    })
    return 0


def _run_decay(cfg):
    op = _resolve_operator(cfg)
    domain = _parse_domain(cfg["domain"])
    report = decay_check(op, domain, op.n, R=float(cfg.get("R", 0.25)),
                         grid_h=1.0 / float(cfg.get("inv_h", 24)))
    out = _outdir(cfg)
    write_json(os.path.join(out, "summary.json"), report.as_dict())
    write_csv(os.path.join(out, "decay.csv"),
              ["rho", "sup_sq", "weighted_energy", "cap_integral"],
              np.column_stack([report.radii, report.sup_sq, report.weighted_energy,
                               report.cap_integral]))
    if cfg.get("require_verdict") and report.inconclusive:
        raise InconclusiveError("decay fit is degenerate")
    return 0


_HANDLERS = {
    "symbol-check": _run_symbol_check,
    "fundsol": _run_fundsol,
    "capacity": _run_capacity,
    "potential": _run_potential,
    "positivity": _run_positivity,
    "wiener": _run_wiener,
    "cusp": _run_cusp,
    "dirichlet": _run_dirichlet,
    "decay": _run_decay,
}


# settings that divide or size a grid, with the cast their handlers apply
_POSITIVE = {"h": float, "R": float, "inv_h": int, "directions": int, "window": float,
             "dt": float}


def _check_positive(cfg):
    """Reject a non-positive grid setting (exit code 2), from the command line
    or from a config file alike: the check runs after the two are merged."""
    for key, cast in _POSITIVE.items():
        if cfg.get(key) is None:
            continue
        try:
            ok = cast(cfg[key]) > 0
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ConfigurationError(f"{key} must be positive, got {cfg[key]!r}")


def _build_parser():
    p = argparse.ArgumentParser(prog="polycap",
                                description="higher-order capacity and regularity runs")
    p.add_argument("--config", help="JSON run configuration (or a manifest.json)")
    sub = p.add_subparsers(dest="subcommand")
    for name in _HANDLERS:
        sp = sub.add_parser(name)
        sp.add_argument("--preset")
        sp.add_argument("--operator-file", dest="operator_file")
        sp.add_argument("--n", type=int)
        sp.add_argument("--m", type=int)
        sp.add_argument("--h", type=float)
        sp.add_argument("--extent", type=int)
        sp.add_argument("--box", type=float)
        sp.add_argument("--ball", type=float)
        sp.add_argument("--mask-csv", dest="mask_csv")
        sp.add_argument("--domain")
        sp.add_argument("--kind")
        sp.add_argument("--p", type=float)
        sp.add_argument("--a", type=float)
        sp.add_argument("--box-levels", dest="box_levels", type=int)
        sp.add_argument("--backend")
        sp.add_argument("--directions", type=int)
        sp.add_argument("--channels", type=int)
        sp.add_argument("--window", type=float, help="positivity: witness grid length in log r")
        sp.add_argument("--dt", type=float, help="positivity: witness grid spacing")
        sp.add_argument("--grid-check", dest="grid_check", action="store_true")
        sp.add_argument("--j-min", dest="j_min", type=int)
        sp.add_argument("--j-max", dest="j_max", type=int)
        sp.add_argument("--nodes-per-rho", dest="nodes_per_rho", type=int)
        sp.add_argument("--R", type=float)
        sp.add_argument("--inv-h", dest="inv_h", type=int)
        sp.add_argument("--samples", type=int)
        sp.add_argument("--checks")
        sp.add_argument("--enclosing", type=float)
        sp.add_argument("--require-verdict", dest="require_verdict", action="store_true")
        sp.add_argument("--out")
    return p


def run(config):
    """Execute one resolved run configuration; returns the exit code."""
    sub = config.get("subcommand")
    if sub not in _HANDLERS:
        raise ConfigurationError(f"unknown subcommand {sub!r}")
    _check_positive(config)
    outdir = _outdir(config)
    write_manifest(outdir, config)
    return _HANDLERS[sub](config)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = {}
    if args.config:
        cfg.update(load_manifest_config(args.config))
    # by identity: `v not in (None, False)` would also drop 0, since 0 == False
    cli_items = {k: v for k, v in vars(args).items()
                 if k != "config" and v is not None and v is not False}
    cfg.update(cli_items)
    if not cfg.get("subcommand"):
        parser.print_help()
        return 2
    try:
        return run(cfg)
    except (InputError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedRegimeError as exc:
        print(f"unsupported regime: {exc}", file=sys.stderr)
        return 3
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
