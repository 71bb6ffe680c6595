"""Batch front door: subcommands wiring run configurations to the modules.

The table `SUBCOMMANDS` names each subcommand's handler and the settings it
reads; the parsers (`box_levels` is `--box-levels`) and the check of each
merged configuration come from it, so a flag or config key the subcommand,
or the branch of it that the other settings choose, does not read exits 2.
Every run writes a manifest echoing the merged settings next to its outputs,
and emits JSON summaries plus CSV tables.  Exit codes: 0 success, 2 invalid
input or configuration, 3 unsupported regime, 4 inconclusive where the run
demanded a hard verdict or an iterative solve did not converge.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np

from .capacity import annulus_series, bessel_capacity, cap_m, series_to_csv
from .errors import ConfigurationError, InconclusiveError, InputError, UnsupportedRegimeError
from .fundsol import compute_profile, sign_summary
from .grids import Ball, Cusp, Grid, Mask, mask_from_csv, region_from_dict
from .operators import check_ellipticity, load_operator, preset_operator, unit_directions
from .positivity import channel_positivity
from .potential import (capacitary_potential, gradient_decay_check, lower_bound_check,
                        range_check)
from .regularity import (bump, clear_forbidden_zone, cusp_criterion, decay_check, dirichlet_solve,
                         wiener_classify)
from .reporting import write_csv, write_json, write_manifest, load_manifest_config


def _resolve_operator(cfg):
    if cfg.get("operator_file"):
        return load_operator(cfg["operator_file"])
    preset = cfg.get("preset", "laplacian")
    return preset_operator(preset, cfg.get("n"), cfg.get("m"))


# the region_from_dict fields of each compact domain spec, in order
_COMPACT_DOMAINS = {"cone": ("half_angle_deg",), "cusp": ("cusp_kind", "param"),
                    "ball": ("radius",), "ray": ("axis",)}


def _parse_domain(spec):
    """Compact domain strings: cone:45, cusp:power:2, cusp:exponential:1,
    ball:0.5, ray, ray:1; JSON dicts, or their text, pass through
    region_from_dict, whose InputError keeps its own message."""
    try:
        if isinstance(spec, dict):
            return region_from_dict(spec)
        if str(spec).startswith("{"):
            return region_from_dict(json.loads(spec))
        kind, *fields = str(spec).split(":")
        keys = _COMPACT_DOMAINS.get(kind, ())
        if len(fields) > len(keys):
            raise ValueError
        return region_from_dict({"kind": kind, **dict(zip(keys, fields))})
    except InputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError):
        raise ConfigurationError(f"cannot parse domain spec {spec!r}") from None


def _checks(spec):
    """The comma-separated potential checks; `range` runs whatever is named."""
    names = frozenset(str(spec).split(","))
    unknown = sorted(names - {"range", "decay", "lower"})
    if unknown:
        raise ConfigurationError(f"unknown check {unknown[0]!r}; known: range, decay, lower")
    return names


def _integer(value):
    """An integer setting: an int, an integral number or its text, never a
    bool or a fraction, which int() would truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigurationError(f"expected an integer, got {value!r}")
    return int(value)


def _flag(value):
    """A switch: JSON true or false, as the flag stores it."""
    if value not in (True, False):
        raise ConfigurationError(f"expected true or false, got {value!r}")
    return bool(value)


def _grid(cfg, n, box):
    """Grid of spacing h (default 0.1) with round(box / h) nodes each side of
    the origin, box the --box setting (default `box`)."""
    h = cfg.get("h", 0.1)
    return Grid(n, h, round(cfg.get("box", box) / h))


def _write_field(path, grid, u):
    """One row per grid node: its coordinates and the value of u there."""
    table = np.empty(grid.shape + (grid.n + 1,))
    for a, x in enumerate(grid.axes()):
        table[..., a] = x
    table[..., -1] = u
    write_csv(path, [f"x{i+1}" for i in range(grid.n)] + ["u"], table.reshape(-1, grid.n + 1))


# -- subcommand handlers -------------------------------------------------------
# Each handler gets the settings of its table row, cast and checked, unset ones
# absent, and the output directory `out` made; it writes its outputs or raises,
# and one that takes --require-verdict returns whether it reached a verdict.


def _run_symbol_check(cfg):
    op = _resolve_operator(cfg)
    ok, worst, direction = check_ellipticity(op)
    dirs = unit_directions(op.n, 512)
    vals = op.symbol(dirs)
    write_csv(os.path.join(cfg["out"], "symbol_samples.csv"),
              [f"d{i+1}" for i in range(op.n)] + ["P"],
              np.column_stack([dirs, vals]))
    write_json(os.path.join(cfg["out"], "summary.json"), {
        "operator": op.name, "n": op.n, "m": op.m, "elliptic": ok,
        "min_symbol_on_sphere": worst, "worst_direction": list(direction),
        "samples": 1024,  # check_ellipticity's default
    })


def _run_fundsol(cfg):
    op = _resolve_operator(cfg)
    profile = compute_profile(op)
    profile.to_csv(os.path.join(cfg["out"], "profile.csv"))
    write_json(os.path.join(cfg["out"], "summary.json"), {
        "operator": op.name, "n": op.n, "m": op.m,
        "homogeneity_degree": profile.homogeneity_degree,
        "method": profile.method, "sign_summary": sign_summary(profile),
    })


def _run_capacity(cfg):
    op = _resolve_operator(cfg)
    m = op.m
    grid = _grid(cfg, op.n, 4.0)
    if cfg.get("mask_csv"):
        target = mask_from_csv(grid, cfg["mask_csv"])
    elif "ball" in cfg:
        target = Ball(cfg["ball"])
    elif "domain" in cfg:
        target = cfg["domain"]
    else:
        raise ConfigurationError("capacity needs --ball, --domain, or --mask-csv")
    kind = cfg.get("kind", "homogeneous")
    if kind == "homogeneous":
        value = cap_m(target, m, grid, box_levels=cfg.get("box_levels", 1))
    elif kind == "inhomogeneous":
        value = bessel_capacity(target, m, grid)
    else:
        raise ConfigurationError(f"unknown capacity kind {kind!r}")
    write_json(os.path.join(cfg["out"], "summary.json"),
               {"operator": op.name, "n": op.n, "m": m, **asdict(value)})


def _run_potential(cfg):
    op = _resolve_operator(cfg)
    grid = _grid(cfg, op.n, 4.0)
    if cfg.get("mask_csv"):
        target = mask_from_csv(grid, cfg["mask_csv"])
    else:
        target = Ball(cfg.get("ball", 1.0))
    report = capacitary_potential(op, target, grid)
    summary = report.summary()
    summary["range_check"] = range_check(report)
    checks = cfg.get("checks", ())
    if "decay" in checks:
        summary["gradient_decay"] = gradient_decay_check(report)
    if "lower" in checks:
        farthest = np.linalg.norm(report.mask.points(), axis=1).max(initial=0.0)
        summary["lower_bound"] = lower_bound_check(report, float(farthest))
    write_json(os.path.join(cfg["out"], "summary.json"), summary)
    _write_field(os.path.join(cfg["out"], "potential.csv"), grid, report.u)


def _run_positivity(cfg):
    verdict = channel_positivity(cfg["m"], cfg["n"])
    if verdict.witness is not None:
        vals = np.asarray(verdict.witness["values"]).ravel()
        write_csv(os.path.join(cfg["out"], "witness.csv"), ["index", "value"],
                  np.column_stack([np.arange(vals.size), vals]))
    write_json(os.path.join(cfg["out"], "summary.json"), verdict.as_dict())
    return verdict.status != "inconclusive"


def _run_wiener(cfg):
    series = annulus_series(cfg["domain"], cfg["m"], cfg["n"],
                            j_range=(cfg.get("j_min", 0), cfg.get("j_max", 8)),
                            nodes_per_rho=cfg.get("nodes_per_rho", 12))
    verdict = wiener_classify(series)
    series_to_csv(series, os.path.join(cfg["out"], "series.csv"))
    write_json(os.path.join(cfg["out"], "summary.json"), verdict)
    return verdict.classification != "inconclusive"


def _run_cusp(cfg):
    kind = cfg.get("kind", "power")
    param = cfg.get("p" if kind == "power" else "a", 2.0)
    result = cusp_criterion(Cusp(kind, param), cfg["m"], cfg["n"])
    write_json(os.path.join(cfg["out"], "summary.json"), {
        "kind": kind, "param": param, "m": cfg["m"], "n": cfg["n"], **result,
    })


def _run_dirichlet(cfg):
    op = _resolve_operator(cfg)
    grid = _grid(cfg, op.n, 1.0)
    if "domain" in cfg:
        omega = Mask(grid, ~cfg["domain"].mask(grid).where)
    else:
        interior = np.zeros(grid.shape, dtype=bool)
        interior[tuple(slice(1, -1) for _ in range(grid.n))] = True
        omega = Mask(grid, interior)
    center = np.zeros(grid.n)
    center[0] = 0.4 * grid.box_radius
    f = clear_forbidden_zone(bump(grid, center, 0.15 * grid.box_radius), ~omega.where, op.m)
    u, info = dirichlet_solve(op, omega, f)
    _write_field(os.path.join(cfg["out"], "solution.csv"), grid, u)
    write_json(os.path.join(cfg["out"], "summary.json"), {
        "operator": op.name, "n": grid.n, "m": op.m, "iterations": info["iterations"],
        "residual": info["residual"], "u_max": float(np.abs(u).max()),
    })


def _run_decay(cfg):
    op = _resolve_operator(cfg)
    report = decay_check(op, cfg["domain"], op.n, R=cfg.get("R", 0.25),
                         grid_h=1.0 / cfg.get("inv_h", 24))
    write_json(os.path.join(cfg["out"], "summary.json"), report)
    write_csv(os.path.join(cfg["out"], "decay.csv"),
              ["rho", "sup_sq", "weighted_energy", "cap_integral"],
              np.column_stack([report.radii, report.sup_sq, report.weighted_energy,
                               report.cap_integral]))
    return not report.inconclusive


# -- the settings table --------------------------------------------------------


class Setting(NamedTuple):
    """A setting a handler reads; integer and float casts also type its flag.
    With `read_if` = (branch, test) the handler reads it only where test(cfg)
    holds, and setting it elsewhere exits 2 naming the other branch."""
    cast: Callable
    positive: bool = False
    required: bool = False
    read_if: tuple = None


_INT, _FLOAT, _STR, _SWITCH = Setting(_integer), Setting(float), Setting(str), Setting(_flag)
_SCALE = Setting(float, positive=True)  # sizes or divides a grid
_OPERATOR = {"preset": _STR, "operator_file": _STR, "n": _INT, "m": _INT}
_MN = {"m": Setting(_integer, required=True), "n": Setting(_integer, required=True)}
# (branch, test) for a setting the handler reads only where test(cfg) holds
_BALL = ("with --mask-csv", lambda cfg: "mask_csv" not in cfg)
_DOMAIN = ("with --ball or --mask-csv", lambda cfg: not {"ball", "mask_csv"} & set(cfg))
_HOMOGENEOUS = ("with --kind inhomogeneous", lambda cfg: cfg.get("kind") != "inhomogeneous")
_POWER = ("unless --kind power", lambda cfg: cfg.get("kind", "power") == "power")
_EXPONENTIAL = ("unless --kind exponential", lambda cfg: cfg.get("kind") == "exponential")


def _subcommand(handler, **settings):
    """A table row: the handler and its settings, `out` included."""
    return handler, {**settings, "out": _STR}


SUBCOMMANDS = {
    "symbol-check": _subcommand(_run_symbol_check, **_OPERATOR),
    "fundsol": _subcommand(_run_fundsol, **_OPERATOR),
    "capacity": _subcommand(_run_capacity, **_OPERATOR, h=_SCALE, box=_FLOAT,
                            ball=Setting(float, read_if=_BALL),
                            domain=Setting(_parse_domain, read_if=_DOMAIN), mask_csv=_STR,
                            kind=_STR, box_levels=Setting(_integer, read_if=_HOMOGENEOUS)),
    "potential": _subcommand(_run_potential, **_OPERATOR, h=_SCALE, box=_FLOAT,
                             ball=Setting(float, read_if=_BALL), mask_csv=_STR,
                             checks=Setting(_checks)),
    "positivity": _subcommand(_run_positivity, **_MN, require_verdict=_SWITCH),
    "wiener": _subcommand(_run_wiener, **_MN, domain=Setting(_parse_domain, required=True),
                          j_min=_INT, j_max=_INT, nodes_per_rho=_INT, require_verdict=_SWITCH),
    "cusp": _subcommand(_run_cusp, **_MN, kind=_STR, p=Setting(float, read_if=_POWER),
                        a=Setting(float, read_if=_EXPONENTIAL)),
    "dirichlet": _subcommand(_run_dirichlet, **_OPERATOR, h=_SCALE, box=_FLOAT,
                             domain=Setting(_parse_domain)),
    "decay": _subcommand(_run_decay, **_OPERATOR, domain=Setting(_parse_domain, required=True),
                         R=_SCALE, inv_h=Setting(_integer, positive=True),
                         require_verdict=_SWITCH),
}


def _option(key):
    return "--" + key.replace("_", "-")


def _resolve(config):
    """The handler of the merged `config` and its settings, cast and checked
    against the handler's table row; raises ConfigurationError (exit code 2)."""
    sub = config["subcommand"]
    if sub not in SUBCOMMANDS:
        raise ConfigurationError(f"unknown subcommand {sub!r}")
    handler, settings = SUBCOMMANDS[sub]
    for key in config:
        # accepted but read by no handler: older manifests carry seed and jobs
        if key not in settings and key not in ("subcommand", "seed", "jobs"):
            raise ConfigurationError(f"{sub} does not read {key!r}")
    cfg = {}
    for key, setting in settings.items():
        if config.get(key) is None:
            if setting.required:
                raise ConfigurationError(f"{sub} needs {_option(key)}")
            continue
        try:
            cfg[key] = setting.cast(config[key])
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{key}: {exc}") from None
        if setting.positive and not cfg[key] > 0:
            raise ConfigurationError(f"{key} must be positive, got {config[key]!r}")
    for key, setting in settings.items():
        if key in cfg and setting.read_if and not setting.read_if[1](cfg):
            raise ConfigurationError(f"{sub} does not read {_option(key)} {setting.read_if[0]}")
    return handler, cfg


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """One stderr line and exit code 2, as for any other invalid setting."""
        self.exit(2, f"error: {message}\n")


def _build_parser():
    p = _Parser(prog="polycap", description="higher-order capacity and regularity runs")
    p.add_argument("--config", help="JSON run configuration (or a manifest.json)")
    sub = p.add_subparsers(dest="subcommand")
    for name, (_, settings) in SUBCOMMANDS.items():
        # unset flags stay out of the namespace, so only given ones override the config
        sp = sub.add_parser(name, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        for key, setting in settings.items():
            kind = ({"action": "store_true"} if setting.cast is _flag else
                    {"type": {_integer: int, float: float}.get(setting.cast, str)})
            sp.add_argument(_option(key), **kind)
    return p


def main(argv=None):
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    path = args.pop("config")
    try:
        config = load_manifest_config(path) if path else {}
        config.update((k, v) for k, v in args.items() if v is not None)
        if not config.get("subcommand"):
            parser.print_help()
            return 2
        handler, cfg = _resolve(config)
        os.makedirs(cfg.setdefault("out", "polycap_out"), exist_ok=True)
        write_manifest(cfg["out"], config)
        reached = handler(cfg)
        if cfg.get("require_verdict") and not reached:
            raise InconclusiveError(f"{config['subcommand']} did not reach a verdict")
        return 0
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
