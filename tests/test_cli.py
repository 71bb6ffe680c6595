import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

BASE = [sys.executable, "-m", "polycap"]


def run_cli(args, cwd, env):
    return subprocess.run(BASE + args, cwd=cwd, env=env, capture_output=True, text=True)


def test_cusp_subcommand_and_exit_codes(tmp_path, cli_env):
    r = run_cli(["cusp", "--kind", "power", "--p", "2", "--m", "2", "--n", "6",
                 "--out", "o1"], tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "o1" / "summary.json") as fh:
        data = json.load(fh)
    assert data["verdict"] == "irregular"
    # borderline dimension: unsupported regime code
    r = run_cli(["cusp", "--kind", "power", "--p", "2", "--m", "1", "--n", "2",
                 "--out", "o2"], tmp_path, cli_env)
    assert r.returncode == 3, r.stderr
    # malformed configuration
    r = run_cli(["capacity", "--preset", "laplacian", "--n", "3", "--out", "o3"],
                tmp_path, cli_env)
    assert r.returncode == 2, r.stderr


def test_capacity_run_and_manifest_rerun_bitwise(tmp_path, cli_env):
    args = ["capacity", "--preset", "laplacian", "--n", "3", "--ball", "1.0",
            "--h", "0.25", "--box", "3.0", "--out", "runA"]
    r = run_cli(args, tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "runA" / "summary.json") as fh:
        iterations = json.load(fh)["iterations"]
    assert isinstance(iterations, int) and iterations > 0
    r = run_cli(["--config", str(tmp_path / "runA" / "manifest.json"),
                 "capacity", "--out", "runB"], tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    assert filecmp.cmp(tmp_path / "runA" / "summary.json",
                       tmp_path / "runB" / "summary.json", shallow=False)


def test_manifest_with_seed_key_reruns(tmp_path, cli_env):
    # manifests written while the CLI still took --seed and --jobs carry those keys
    r = run_cli(["cusp", "--kind", "power", "--p", "2", "--m", "2", "--n", "6",
                 "--out", "s1"], tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "s1" / "manifest.json") as fh:
        manifest = json.load(fh)
    manifest["config"]["seed"] = 7
    manifest["config"]["jobs"] = 2
    with open(tmp_path / "seeded.json", "w") as fh:
        json.dump(manifest, fh)
    r = run_cli(["--config", str(tmp_path / "seeded.json"), "cusp", "--out", "s2"],
                tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    assert filecmp.cmp(tmp_path / "s1" / "summary.json",
                       tmp_path / "s2" / "summary.json", shallow=False)


def test_positivity_subcommand_violated_with_witness(tmp_path, cli_env):
    for out in ("pos", "pos2"):
        r = run_cli(["positivity", "--m", "2", "--n", "8", "--out", out],
                    tmp_path, cli_env)
        assert r.returncode == 0, r.stderr
    with open(tmp_path / "pos" / "summary.json") as fh:
        data = json.load(fh)
    assert data["status"] == "violated"
    witness = np.loadtxt(tmp_path / "pos" / "witness.csv", delimiter=",", skiprows=1)[:, 1]
    # normalised to max |f| = 1 with the sign fixed by the largest entry
    assert witness[np.argmax(np.abs(witness))] == 1.0
    for name in ("summary.json", "witness.csv"):
        assert filecmp.cmp(tmp_path / "pos" / name, tmp_path / "pos2" / name, shallow=False)


def test_positivity_keeps_zero_channels_and_witness_grid(tmp_path, cli_env):
    r = run_cli(["positivity", "--m", "2", "--n", "8", "--channels", "0", "--window", "30",
                 "--dt", "0.2", "--out", "p0"], tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "p0" / "summary.json") as fh:
        data = json.load(fh)
    assert data["resolution"]["channels"] == [0]
    assert (data["resolution"]["t_window"], data["resolution"]["dt"]) == (30.0, 0.2)
    assert (data["witness"]["t_window"], data["witness"]["dt"]) == (30.0, 0.2)
    witness = np.loadtxt(tmp_path / "p0" / "witness.csv", delimiter=",", skiprows=1)
    assert witness.shape[0] == 151


def test_wiener_subcommand(tmp_path, cli_env):
    r = run_cli(["wiener", "--m", "1", "--n", "3", "--domain", "cone:45",
                 "--j-max", "7", "--nodes-per-rho", "8", "--out", "w"],
                tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "w" / "summary.json") as fh:
        assert json.load(fh)["classification"] == "regular"
    assert os.path.exists(tmp_path / "w" / "series.csv")


def test_wiener_keeps_zero_valued_options(tmp_path, cli_env):
    # 0 == False in Python; a zero option must not fall back to its default
    r = run_cli(["wiener", "--m", "1", "--n", "3", "--domain", "cone:45", "--j-max", "0",
                 "--nodes-per-rho", "4", "--out", "w0"], tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "w0" / "manifest.json") as fh:
        assert json.load(fh)["config"]["j_max"] == 0
    with open(tmp_path / "w0" / "series.csv") as fh:
        assert len(fh.read().splitlines()) == 2  # header and the one scale j = 0


CONE_WIENER = ["wiener", "--m", "1", "--n", "3", "--domain", "cone:45"]


@pytest.mark.parametrize("args", [
    CONE_WIENER + ["--nodes-per-rho", "0"],
    CONE_WIENER + ["--nodes-per-rho", "-3"],
    ["capacity", "--preset", "laplacian", "--n", "3", "--ball", "1.0", "--h", "0"],
    ["positivity", "--m", "2", "--n", "8", "--dt", "0"],
    ["positivity", "--m", "2", "--n", "8", "--dt", "-0.1"],
    ["positivity", "--m", "2", "--n", "8", "--window", "0"],
    ["positivity", "--m", "2", "--n", "8", "--window", "-5"],
])
def test_non_positive_scale_settings_exit_2(tmp_path, cli_env, args):
    r = run_cli(args + ["--out", "bad"], tmp_path, cli_env)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("config", [
    {"subcommand": "capacity", "preset": "laplacian", "n": 3, "ball": 1.0, "h": 0},
    {"subcommand": "decay", "preset": "laplacian", "n": 3, "domain": "cone:45", "R": -0.25},
], ids=["zero_h", "negative_R"])
def test_non_positive_scale_settings_from_config_exit_2(tmp_path, cli_env, config):
    # a config file bypasses argparse; the merged settings are checked all the same
    with open(tmp_path / "c.json", "w") as fh:
        json.dump(config, fh)
    r = run_cli(["--config", str(tmp_path / "c.json"), config["subcommand"], "--out", "bad"],
                tmp_path, cli_env)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert "must be positive" in r.stderr


def test_wiener_oversized_borderline_grid_exits_3(tmp_path, cli_env):
    # n = 2m runs on one global Cartesian grid; (3, 6) at the default scales is refused
    # before any mask is built
    r = run_cli(["wiener", "--m", "3", "--n", "6", "--domain", "cone:45", "--out", "w"],
                tmp_path, cli_env)
    assert r.returncode == 3, r.stderr
    assert "Traceback" not in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1
    assert not os.path.exists(tmp_path / "w" / "summary.json")


def test_wiener_unknown_backend_exits_2(tmp_path, cli_env):
    r = run_cli(["wiener", "--m", "1", "--n", "3", "--domain", "cone:45",
                 "--backend", "bogus", "--out", "w"], tmp_path, cli_env)
    assert r.returncode == 2
    assert "unknown backend" in r.stderr


def test_symbol_check_with_operator_file(tmp_path, cli_env):
    from polycap import mn8_operator, save_operator

    path = tmp_path / "op.json"
    save_operator(mn8_operator(), path)
    r = run_cli(["symbol-check", "--operator-file", str(path), "--out", "s"],
                tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "s" / "summary.json") as fh:
        data = json.load(fh)
    assert data["elliptic"] is True and data["n"] == 8


def test_dirichlet_subcommand(tmp_path, cli_env):
    r = run_cli(["dirichlet", "--preset", "laplacian", "--n", "2", "--h", "0.1",
                 "--extent", "10", "--out", "d"], tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    assert os.path.exists(tmp_path / "d" / "solution.csv")


def test_fundsol_subcommand(tmp_path, cli_env):
    r = run_cli(["fundsol", "--preset", "laplacian", "--n", "3", "--out", "f"],
                tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "f" / "summary.json") as fh:
        data = json.load(fh)
    assert data["sign_summary"]["fraction_negative"] == 0.0
    assert os.path.exists(tmp_path / "f" / "profile.csv")
    # n = 2m: the kernel is logarithmic, not homogeneous
    r = run_cli(["fundsol", "--preset", "polyharmonic", "--n", "4", "--m", "2",
                 "--out", "f4"], tmp_path, cli_env)
    assert r.returncode == 3, r.stderr


def test_fundsol_refuses_an_indefinite_second_order_symbol(tmp_path, cli_env,
                                                            rotated_indefinite_operator):
    from polycap import save_operator

    save_operator(rotated_indefinite_operator, tmp_path / "op.json")
    r = run_cli(["fundsol", "--operator-file", str(tmp_path / "op.json"), "--out", "f"],
                tmp_path, cli_env)
    assert r.returncode == 2, r.stderr
    assert "not elliptic" in r.stderr


def test_potential_subcommand(tmp_path, cli_env):
    r = run_cli(["potential", "--preset", "laplacian", "--n", "3", "--ball", "1.0",
                 "--h", "0.25", "--box", "2.5", "--checks", "range,lower",
                 "--out", "p"], tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "p" / "summary.json") as fh:
        data = json.load(fh)
    assert data["range_check"]["passed"] is True
    assert os.path.exists(tmp_path / "p" / "potential.csv")


def test_decay_subcommand(tmp_path, cli_env):
    r = run_cli(["decay", "--preset", "laplacian", "--n", "3", "--domain", "cone:45",
                 "--inv-h", "16", "--out", "dc"], tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "dc" / "summary.json") as fh:
        assert json.load(fh)["c2"] > 0.0


def test_wiener_require_verdict_inconclusive_exit4(tmp_path, cli_env):
    # a power cusp in the log-divergent regime stays inconclusive at desk scale
    r = run_cli(["wiener", "--m", "1", "--n", "3", "--domain", "cusp:power:2",
                 "--j-max", "8", "--nodes-per-rho", "16", "--require-verdict",
                 "--out", "wi"], tmp_path, cli_env)
    assert r.returncode == 4, r.stderr
