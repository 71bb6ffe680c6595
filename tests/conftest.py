import os
from pathlib import Path

import numpy as np
import pytest

import polycap


@pytest.fixture(scope="session")
def cli_env():
    """Environment for `python -m polycap` child processes.

    Children run with `cwd=tmp_path`, where a relative `PYTHONPATH` entry such
    as `src` resolves to nothing. Putting the absolute source root of the
    imported package first makes each child import the same `polycap` as the
    test that spawned it, installed or not.
    """
    root = str(Path(polycap.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def rotated_indefinite_operator():
    """P(xi) = xi^T A xi with A = Q diag(1, 1, -1e-4) Q^T for a random rotation Q.

    P is negative in one direction off every coordinate axis; the sphere
    sample's 2n + 1024 directions miss it (their minimum is +1.9e-4).
    """
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    A = q @ np.diag([1.0, 1.0, -1e-4]) @ q.T
    axes = [tuple(row) for row in np.eye(3, dtype=int)]
    return polycap.EllipticOperator(3, 1, {(axes[i], axes[j]): A[i, j]
                                           for i in range(3) for j in range(i, 3)},
                                    name="rotated_indefinite")
