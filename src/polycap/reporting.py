"""Deterministic JSON and CSV writers plus run manifests.

Every output file of a run is written here: a JSON summary is a report's
dataclass fields (or a dict) through one sanitiser, and a CSV table is a
float array through write_csv.  Reruns from the same manifest must be
bitwise identical, so nothing here writes timestamps, hostnames, or
unordered containers; floats go through repr (shortest round-trip form) in
JSON and through a fixed %.17g format in CSV tables, whose lines end in a
bare newline.  A grid field repeats few values per column (a coordinate
column holds one per node of an axis), so write_csv formats each distinct
value of a column once and assembles the rows from those strings, a block of
_CSV_BLOCK_ROWS rows at a time, so the text of the whole table is never held
at once.
"""

import dataclasses
import functools
import json
import os
import platform

import numpy as np

from . import __version__
from .errors import ConfigurationError
from .operators import SYMBOL_CONVENTION

# write_csv renders and writes this many rows at a time
_CSV_BLOCK_ROWS = 8192
# the BLAS thread settings, which can change the last bits of a solve
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _sanitize(obj):
    """JSON-ready copy of obj: a dataclass becomes the dict of its fields,
    dict keys strings in sorted order, numpy values Python ones, and
    non-finite floats the strings nan, inf and -inf."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
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
    without a decimal point, NaN as nan.  Values are told apart by their bit
    pattern, so 0.0 and -0.0 keep their own strings."""
    table = np.asarray(table, dtype=float)
    columns = []
    for column in table.T:
        keys, inverse = np.unique(column.view(np.uint64), return_inverse=True)
        text = ("%.17g\n" * len(keys) % tuple(keys.view(float).tolist())).split("\n")[:-1]
        columns.append((np.array(text, dtype=object), inverse))
    line = ",".join(["%s"] * table.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            cells = np.column_stack([text[inverse[rows]] for text, inverse in columns])
            fh.write((line * cells.shape[0]) % tuple(cells.ravel().tolist()))


@functools.cache
def _scipy_version():
    """scipy's version from its package metadata, which imports no scipy;
    looked up once per process, since a lookup scans sys.path (about 5 ms)."""
    from importlib import metadata

    try:
        return metadata.version("scipy")
    except metadata.PackageNotFoundError:
        return None


def environment():
    """What a bitwise rerun depends on besides the configuration: the Python,
    numpy and scipy versions, the BLAS numpy was built with, and the BLAS
    thread settings of the environment (None where unset)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": _scipy_version(),
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {name: os.environ.get(name) for name in _THREAD_VARIABLES}}


def write_manifest(outdir, resolved_config):
    """manifest.json: the tool, its version and symbol convention, the run's
    configuration, which --config reads back, and its environment, which
    --config ignores."""
    manifest = {
        "tool": "polycap",
        "version": __version__,
        "symbol_convention": SYMBOL_CONVENTION,
        "config": resolved_config,
        "environment": environment(),
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
