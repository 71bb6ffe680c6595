"""Deterministic JSON and CSV writers plus run manifests.

Reruns from the same manifest must be bitwise identical, so nothing here
writes timestamps, hostnames, or unordered containers; floats go through
repr (shortest round-trip form) in JSON and through a fixed %.17g format in
CSV tables.
"""

import json
import os

import numpy as np

from .errors import ConfigurationError
from .operators import SYMBOL_CONVENTION

PACKAGE_VERSION = "0.1.0"


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and obj != obj:
        return "nan"
    if isinstance(obj, float) and obj in (float("inf"), float("-inf")):
        return "inf" if obj > 0 else "-inf"
    return obj


def write_json(path, payload):
    payload = _sanitize(payload)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_csv(path, header, table):
    """Write the header names and then each row of the 2-D float array
    `table`, every value in %.17g; integral values (an index column) print
    without a decimal point, NaN as nan."""
    table = np.asarray(table, dtype=float)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((line * table.shape[0]) % tuple(table.ravel().tolist()))


def write_manifest(outdir, resolved_config):
    manifest = {
        "tool": "polycap",
        "version": PACKAGE_VERSION,
        "symbol_convention": SYMBOL_CONVENTION,
        "config": resolved_config,
    }
    write_json(os.path.join(outdir, "manifest.json"), manifest)
    return manifest


def load_manifest_config(path):
    """The JSON object of a run configuration file, or the `config` of a
    manifest; a file that cannot be read, is not JSON or holds no object
    raises ConfigurationError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigurationError(f"config {path} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"config {path} is not a JSON object")
    if isinstance(data.get("config"), dict):
        return data["config"]
    return data
