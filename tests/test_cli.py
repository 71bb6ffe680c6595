import filecmp
import json
import os
import platform
import re
import subprocess
import sys
from importlib import metadata

import numpy as np
import pytest

BASE = [sys.executable, "-m", "polycap"]


def run_cli(args, cwd, env):
    return subprocess.run(BASE + args, cwd=cwd, env=env, capture_output=True, text=True)


def assert_plain_csv(path, fields):
    """Every line of the CSV ends in a bare \\n and holds `fields` fields."""
    data = path.read_bytes()
    assert b"\r" not in data
    assert {line.count(b",") + 1 for line in data.splitlines()} == {fields}


def test_cusp_subcommand_and_exit_codes(tmp_path, cli_env):
    r = run_cli(["cusp", "--kind", "power", "--p", "2", "--m", "2", "--n", "6",
                 "--out", "o1"], tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "o1" / "summary.json") as fh:
        data = json.load(fh)
    assert data["verdict"] == "irregular"
    assert data["integral"] == 0.5
    # Gamma(k/a) = Gamma(1000) overflows float64: the integral saturates to inf
    r = run_cli(["cusp", "--kind", "exponential", "--a", "0.001", "--m", "2", "--n", "7",
                 "--out", "o4"], tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "o4" / "summary.json") as fh:
        assert json.load(fh)["verdict"] == "irregular"
    # s = k/a overflows to inf, as Gamma(k/a) does above: no nan, no RuntimeWarning
    r = subprocess.run([sys.executable, "-W", "error", "-m", "polycap", "cusp", "--kind",
                        "exponential", "--a", "1e-320", "--m", "2", "--n", "7", "--out", "o5"],
                       cwd=tmp_path, env=cli_env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "o5" / "summary.json") as fh:
        data = json.load(fh)
    assert data["verdict"] == "irregular" and data["integral"] == "inf"
    # a non-finite a is no cusp
    r = run_cli(["cusp", "--kind", "exponential", "--a", "inf", "--m", "2", "--n", "7",
                 "--out", "o6"], tmp_path, cli_env)
    assert_one_line_exit_2(r)
    assert "finite a > 0" in r.stderr
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
        summary = json.load(fh)
    assert isinstance(summary["iterations"], int) and summary["iterations"] > 0
    assert 0.0 < summary["residual"] < 1e-7
    r = run_cli(["--config", str(tmp_path / "runA" / "manifest.json"),
                 "capacity", "--out", "runB"], tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    assert filecmp.cmp(tmp_path / "runA" / "summary.json",
                       tmp_path / "runB" / "summary.json", shallow=False)


def test_manifest_records_the_environment_and_reruns_bitwise(tmp_path, cli_env):
    env = dict(cli_env, OPENBLAS_NUM_THREADS="1")
    env.pop("MKL_NUM_THREADS", None)
    r = run_cli(["dirichlet", "--preset", "laplacian", "--n", "2", "--h", "0.1",
                 "--box", "1", "--out", "e1"], tmp_path, env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "e1" / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["environment"] == {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": {key: np.show_config(mode="dicts")["Build Dependencies"]["blas"][key]
                 for key in ("name", "version")},
        "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": env.get("OMP_NUM_THREADS"),
                    "MKL_NUM_THREADS": None}}
    # --config reads the configuration alone, so an edited environment changes nothing
    manifest["environment"] = {"python": "0.0", "threads": {"OMP_NUM_THREADS": "64"}}
    with open(tmp_path / "edited.json", "w") as fh:
        json.dump(manifest, fh)
    r = run_cli(["--config", str(tmp_path / "edited.json"), "dirichlet", "--out", "e2"],
                tmp_path, env)
    assert r.returncode == 0, r.stderr
    outputs = sorted(p.name for p in (tmp_path / "e1").iterdir() if p.name != "manifest.json")
    assert "summary.json" in outputs and any(name.endswith(".csv") for name in outputs)
    for name in outputs:
        assert filecmp.cmp(tmp_path / "e1" / name, tmp_path / "e2" / name, shallow=False), name
    with open(tmp_path / "e2" / "manifest.json") as fh:
        rerun = json.load(fh)
    assert rerun["environment"]["python"] == platform.python_version()
    assert {k: v for k, v in rerun["config"].items() if k != "out"} == \
        {k: v for k, v in manifest["config"].items() if k != "out"}


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


def test_wiener_subcommand(tmp_path, cli_env):
    r = run_cli(["wiener", "--m", "1", "--n", "3", "--domain", "cone:45",
                 "--j-max", "7", "--nodes-per-rho", "8", "--out", "w"],
                tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "w" / "summary.json") as fh:
        assert json.load(fh)["classification"] == "regular"
    assert_plain_csv(tmp_path / "w" / "series.csv", 5)


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
    # positivity takes no --dt or --window: its witness grid is fixed
    ["positivity", "--m", "2", "--n", "8", "--dt", "0"],
    ["positivity", "--m", "2", "--n", "8", "--dt", "-0.1"],
    ["positivity", "--m", "2", "--n", "8", "--window", "0"],
    ["positivity", "--m", "2", "--n", "8", "--window", "-5"],
    # orders and dimensions below 1
    ["positivity", "--m", "0", "--n", "3"],
    ["wiener", "--m", "0", "--n", "3", "--domain", "cone:45"],
    ["wiener", "--m", "1", "--n", "-3", "--domain", "cone:45"],
    ["cusp", "--m", "0", "--n", "3"],
    ["symbol-check", "--preset", "polyharmonic", "--n", "3", "--m", "-1"],
    ["fundsol", "--preset", "polyharmonic", "--n", "9", "--m", "-1"],
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


@pytest.mark.parametrize("args", [
    ["capacity", "--preset", "laplacian", "--n", "5", "--ball", "1.0", "--h", "0.05",
     "--box", "4"],
    ["potential", "--preset", "laplacian", "--n", "5", "--ball", "1.0", "--h", "0.05",
     "--box", "4"],
    ["dirichlet", "--preset", "laplacian", "--n", "5", "--h", "0.02", "--box", "1"],
    ["decay", "--preset", "polyharmonic", "--m", "2", "--n", "5", "--domain", "cone:45"],
], ids=["capacity", "potential", "dirichlet", "decay"])
def test_oversized_cartesian_grid_exits_3(tmp_path, cli_env, args):
    # 161^5, 161^5, 101^5 and 49^5 nodes: refused before any grid array is allocated
    r = run_cli(args + ["--out", "o"], tmp_path, cli_env)
    assert r.returncode == 3, r.stderr
    assert len(r.stderr.strip().splitlines()) == 1, r.stderr
    assert "limit 16,777,216" in r.stderr
    assert not os.path.exists(tmp_path / "o" / "summary.json")


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


def test_symbol_check_csv_holds_the_rows_of_its_verdict(tmp_path, cli_env):
    r = run_cli(["symbol-check", "--preset", "polyharmonic", "--n", "5", "--m", "2",
                 "--out", "s"], tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "s" / "summary.json") as fh:
        data = json.load(fh)
    table = np.loadtxt(tmp_path / "s" / "symbol_samples.csv", delimiter=",", skiprows=1)
    assert table.shape == (2 * 5 + 1024, 5 + 1) and data["samples"] == 1024
    assert table[:, -1].min() == data["min_symbol_on_sphere"]


def test_symbol_check_of_a_second_order_symbol_samples_nothing(tmp_path, cli_env):
    # the m = 1 verdict is the exact smallest eigenvalue of the symbol's matrix
    r = run_cli(["symbol-check", "--preset", "laplacian", "--n", "3", "--out", "s"],
                tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "s" / "summary.json") as fh:
        assert json.load(fh)["samples"] == 0


@pytest.mark.parametrize("subcommand", ["symbol-check", "fundsol"])
def test_dimension_past_the_sphere_directions_exits_3(tmp_path, cli_env, subcommand):
    r = run_cli([subcommand, "--preset", "laplacian", "--n", "17", "--out", "o"],
                tmp_path, cli_env)
    assert r.returncode == 3, r.stderr
    assert len(r.stderr.strip().splitlines()) == 1, r.stderr
    assert "n <= 16" in r.stderr


def test_dirichlet_subcommand(tmp_path, cli_env):
    r = run_cli(["dirichlet", "--preset", "laplacian", "--n", "2", "--h", "0.1",
                 "--box", "1", "--out", "d"], tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    assert os.path.exists(tmp_path / "d" / "solution.csv")


def test_fundsol_subcommand(tmp_path, cli_env):
    r = run_cli(["fundsol", "--preset", "laplacian", "--n", "3", "--out", "f"],
                tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "f" / "summary.json") as fh:
        data = json.load(fh)
    assert data["sign_summary"]["fraction_negative"] == 0.0
    assert_plain_csv(tmp_path / "f" / "profile.csv", 4)  # d1, d2, d3, value
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
    assert 0.0 < data["residual"] < 1e-7
    assert os.path.exists(tmp_path / "p" / "potential.csv")


def test_potential_lower_check_encloses_k_in_its_farthest_node(tmp_path, cli_env):
    # the lower-bound check weights by |y| + d, d the radius of K's farthest node
    r = run_cli(["potential", "--preset", "laplacian", "--n", "3", "--ball", "0.5",
                 "--h", "0.25", "--box", "2.5", "--checks", "lower", "--out", "p"],
                tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "p" / "summary.json") as fh:
        assert json.load(fh)["lower_bound"]["enclosing_radius"] == 0.5


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
    # the outputs are written before the run exits 4
    assert (tmp_path / "wi" / "series.csv").exists()
    with open(tmp_path / "wi" / "summary.json") as fh:
        assert json.load(fh)["classification"] == "inconclusive"


def assert_one_line_exit_2(r):
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1, r.stderr


@pytest.mark.parametrize("args", [
    ["decay", "--preset", "polyharmonic", "--m", "2", "--n", "5", "--domain", "cone:45",
     "--inv-h", "8"],
    ["dirichlet", "--preset", "laplacian", "--n", "2", "--h", "0.1", "--box", "1",
     "--domain", "ball:0.9"],
], ids=["decay", "dirichlet"])
def test_source_erased_by_the_forbidden_zone_exits_2(tmp_path, cli_env, args):
    # the 2m-neighbourhood of the complement covers the whole source bump, so the
    # solution would be u = 0
    r = run_cli(args + ["--out", "o"], tmp_path, cli_env)
    assert_one_line_exit_2(r)
    assert "forbidden zone" in r.stderr
    assert not os.path.exists(tmp_path / "o" / "summary.json")


@pytest.mark.parametrize("spec", ["cone", "cone:abc", "cusp:power", "ray:x",
                                  '{"kind": "cone"', '{"kind": "union", "parts": [1]}'])
def test_malformed_domain_spec_exits_2(tmp_path, cli_env, spec):
    r = run_cli(["wiener", "--m", "1", "--n", "3", "--domain", spec, "--out", "w"],
                tmp_path, cli_env)
    assert_one_line_exit_2(r)
    assert "cannot parse domain spec" in r.stderr


@pytest.mark.parametrize("spec,message", [
    ("cusp:power:0.5", "power profiles need a finite p >= 1"),
    ("cusp:exponential:0", "exponential profiles need a finite a > 0"),
])
def test_domain_spec_of_no_cusp_exits_2_with_the_region_message(tmp_path, cli_env, spec,
                                                                message):
    # parsed, but the region refuses its parameter: its message, not a parse error
    r = run_cli(["wiener", "--m", "1", "--n", "3", "--domain", spec, "--out", "w"],
                tmp_path, cli_env)
    assert_one_line_exit_2(r)
    assert message in r.stderr


def test_json_domain_spec_matches_the_ball_flag_and_reruns_bitwise(tmp_path, cli_env):
    grid = ["capacity", "--preset", "laplacian", "--n", "3", "--h", "0.25", "--box", "2"]
    r = run_cli(grid + ["--ball", "0.5", "--out", "ball"], tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    r = run_cli(grid + ["--domain", '{"kind": "ball", "radius": 0.5}', "--out", "json"],
                tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    r = run_cli(["--config", str(tmp_path / "json" / "manifest.json"), "capacity",
                 "--out", "rerun"], tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    summary = (tmp_path / "ball" / "summary.json").read_bytes()
    assert (tmp_path / "json" / "summary.json").read_bytes() == summary
    assert (tmp_path / "rerun" / "summary.json").read_bytes() == summary


@pytest.mark.parametrize("args", [
    ["positivity", "--n", "8"],
    ["wiener", "--m", "1", "--n", "3"],
    ["cusp", "--kind", "power", "--m", "2"],
    ["decay", "--preset", "laplacian", "--n", "3"],
])
def test_missing_required_setting_exits_2(tmp_path, cli_env, args):
    r = run_cli(args + ["--out", "o"], tmp_path, cli_env)
    assert_one_line_exit_2(r)
    assert "needs" in r.stderr
    assert not os.path.exists(tmp_path / "o" / "manifest.json")


@pytest.mark.parametrize("args", [
    ["dirichlet", "--preset", "laplacian", "--n", "2", "--extent", "10"],
    ["cusp", "--m", "2", "--n", "6", "--domain", "cone:45"],
    ["positivity", "--m", "2", "--n", "8", "--grid"],  # no prefix matching
    ["potential", "--preset", "laplacian", "--n", "3", "--checks", "decya"],
    ["potential", "--preset", "laplacian", "--n", "3", "--checks", "nodecay"],
])
def test_flag_the_subcommand_does_not_read_exits_2(tmp_path, cli_env, args):
    r = run_cli(args + ["--out", "o"], tmp_path, cli_env)
    assert_one_line_exit_2(r)


@pytest.mark.parametrize("config, named", [
    ({"subcommand": "dirichlet", "preset": "laplacian", "n": 2, "sourse_radius": 0.3},
     "sourse_radius"),
    ({"subcommand": "symbol-check", "polyharmonic": True, "n": 7, "m": 3}, "polyharmonic"),
    ({"subcommand": "wiener", "m": 1, "n": 3, "domain": "cone:45", "j_max": "x"}, "j_max"),
    ({"subcommand": "cusp", "kind": "power", "m": 2, "n": "three"}, "n"),
    ({"subcommand": "decay", "preset": "laplacian", "n": 3, "domain": "cone:45",
      "require_verdict": "yes"}, "require_verdict"),
    # a forced "cartesian" ignored would silently change the rerun
    ({"subcommand": "wiener", "m": 1, "n": 3, "domain": "cone:45", "backend": "cartesian"},
     "backend"),
    # as would an extent ignored next to --box, which sets the grid
    ({"subcommand": "capacity", "preset": "laplacian", "n": 3, "ball": 0.5, "h": 0.25,
      "box": 2.0, "extent": 8}, "extent"),
    # resolution knobs that no program path set: each now fixed or worked out from
    # the problem, so a manifest carrying one no longer reruns
    ({"subcommand": "symbol-check", "preset": "laplacian", "n": 3, "samples": 64}, "samples"),
    ({"subcommand": "fundsol", "preset": "laplacian", "n": 3, "directions": 64}, "directions"),
    ({"subcommand": "positivity", "m": 2, "n": 8, "channels": 4}, "channels"),
    ({"subcommand": "positivity", "m": 2, "n": 8, "window": 30.0}, "window"),
    ({"subcommand": "positivity", "m": 2, "n": 8, "dt": 0.2}, "dt"),
    ({"subcommand": "potential", "preset": "laplacian", "n": 3, "checks": "lower",
      "enclosing": 2.0}, "enclosing"),
], ids=["misspelt_key", "retired_key", "int_as_text", "int_as_word", "switch_as_text",
        "retired_backend", "retired_extent", "retired_samples", "retired_directions",
        "retired_channels", "retired_window", "retired_dt", "retired_enclosing"])
def test_config_key_not_read_or_of_wrong_type_exits_2(tmp_path, cli_env, config, named):
    with open(tmp_path / "c.json", "w") as fh:
        json.dump(config, fh)
    r = run_cli(["--config", str(tmp_path / "c.json"), config["subcommand"], "--out", "o"],
                tmp_path, cli_env)
    assert_one_line_exit_2(r)
    assert named in r.stderr


def test_each_subcommand_takes_only_the_flags_of_its_table_row():
    from polycap import cli

    parser = cli._build_parser()
    rows = {name: settings for name, (_, settings) in cli.SUBCOMMANDS.items()}
    all_keys = set().union(*rows.values())
    assert sum(map(len, rows.values())) == 67
    for name, settings in rows.items():
        for key in settings:
            value = [] if settings[key].cast is cli._flag else ["1"]
            assert vars(parser.parse_args([name, cli._option(key)] + value))[key] is not None
        for key in all_keys - set(settings):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([name, cli._option(key), "1"])
            assert exc.value.code == 2


def test_readme_flags_table_lists_the_settings_of_each_subcommand():
    # a removed flag cannot outlive its row; "operator" stands for the four
    # operator flags and every subcommand takes --out
    from polycap import cli

    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        text = fh.read()
    table = text[text.index("| subcommand | flags |"):].split("\n\n")[0].splitlines()[2:]
    operator = {"--preset", "--operator-file", "--n", "--m"}
    listed = {}
    for row in table:
        name, flags = row.strip("|").split("|")
        keys = listed[name.strip(" `")] = set(re.findall(r"`(--[\w-]+)`", flags)) | {"--out"}
        if flags.strip().startswith("operator"):
            keys |= operator
    assert listed == {name: set(map(cli._option, settings))
                      for name, (_, settings) in cli.SUBCOMMANDS.items()}


def test_potential_checks_run_the_named_checks_only(tmp_path, cli_env):
    r = run_cli(["potential", "--preset", "laplacian", "--n", "3", "--ball", "1.0",
                 "--h", "0.25", "--box", "2.5", "--checks", "decay", "--out", "p"],
                tmp_path, cli_env)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "p" / "summary.json") as fh:
        data = json.load(fh)
    assert "gradient_decay" in data and "lower_bound" not in data


@pytest.mark.parametrize("content", [None, "not json", "[1, 2]", "7"],
                         ids=["missing", "not_json", "list", "number"])
def test_unreadable_config_exits_2(tmp_path, cli_env, content):
    if content is not None:
        (tmp_path / "c.json").write_text(content)
    r = run_cli(["--config", str(tmp_path / "c.json"), "cusp", "--out", "o"],
                tmp_path, cli_env)
    assert_one_line_exit_2(r)
    assert "c.json" in r.stderr
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("value", [6.9, True, False], ids=["fraction", "true", "false"])
def test_integer_setting_refuses_bools_and_fractions(tmp_path, cli_env, value):
    config = {"subcommand": "cusp", "kind": "power", "m": 2, "n": value}
    with open(tmp_path / "c.json", "w") as fh:
        json.dump(config, fh)
    r = run_cli(["--config", str(tmp_path / "c.json"), "cusp", "--out", "o"],
                tmp_path, cli_env)
    assert_one_line_exit_2(r)
    assert "expected an integer" in r.stderr


@pytest.mark.parametrize("args", [
    ["capacity", "--preset", "laplacian", "--n", "3", "--ball", "1", "--kind", "inhomogeneous",
     "--box-levels", "2"],
    ["capacity", "--preset", "laplacian", "--n", "3", "--ball", "1", "--domain", "ball:0.5"],
    ["cusp", "--m", "1", "--n", "4", "--kind", "power", "--p", "3", "--a", "5"],
    ["cusp", "--m", "1", "--n", "4", "--a", "1"],
    ["cusp", "--m", "1", "--n", "4", "--kind", "exponential", "--p", "3"],
    ["cusp", "--m", "1", "--n", "4", "--kind", "tabulated", "--p", "3"],
], ids=["box_levels_inhomogeneous", "domain_with_ball", "a_with_power", "a_with_default_power", "p_with_exponential",
        "p_with_tabulated"])
def test_setting_the_chosen_branch_does_not_read_exits_2(tmp_path, cli_env, args):
    r = run_cli(args + ["--out", "o"], tmp_path, cli_env)
    assert_one_line_exit_2(r)
    assert "does not read" in r.stderr
    assert not os.path.exists(tmp_path / "o" / "manifest.json")


def test_cusp_reads_the_parameter_of_its_kind(tmp_path, cli_env):
    for args, param in [(["--kind", "power", "--p", "3"], 3.0),
                        (["--kind", "exponential", "--a", "0.5"], 0.5), ([], 2.0)]:
        r = run_cli(["cusp", "--m", "1", "--n", "4", *args, "--out", "o"], tmp_path, cli_env)
        assert r.returncode == 0, r.stderr
        with open(tmp_path / "o" / "summary.json") as fh:
            assert json.load(fh)["param"] == param


def test_cusp_tabulated_without_a_table_exits_2(tmp_path, cli_env):
    # the command line cannot give a table, so this kind always exits 2
    r = run_cli(["cusp", "--m", "1", "--n", "4", "--kind", "tabulated", "--out", "o"],
                tmp_path, cli_env)
    assert_one_line_exit_2(r)
    assert "table" in r.stderr


@pytest.mark.parametrize("levels", ["0", "-1", "3"])
def test_capacity_box_levels_other_than_1_or_2_exit_2(tmp_path, cli_env, levels):
    r = run_cli(["capacity", "--preset", "laplacian", "--n", "3", "--ball", "0.5", "--h", "0.25",
                 "--box", "1", "--box-levels", levels, "--out", "o"], tmp_path, cli_env)
    assert_one_line_exit_2(r)
    assert "box_levels" in r.stderr
    assert not os.path.exists(tmp_path / "o" / "summary.json")


def test_mask_csv_blank_rows_are_skipped_and_short_rows_exit_2(tmp_path, cli_env):
    values = []
    for name, text in [("plain", "x1,x2,x3\n0,0,0\n"), ("blank", "x1,x2,x3\n\n0,0,0\n\n")]:
        (tmp_path / f"{name}.csv").write_text(text)
        r = run_cli(["capacity", "--preset", "laplacian", "--n", "3", "--h", "0.5",
                     "--box", "2", "--mask-csv", f"{name}.csv", "--out", name],
                    tmp_path, cli_env)
        assert r.returncode == 0, r.stderr
        with open(tmp_path / name / "summary.json") as fh:
            values.append(json.load(fh)["value"])
    assert values[0] == values[1]
    for name, row, named in [("short", "0,0", "fields"), ("letter", "0,a,0", "not a number"),
                             ("nan", "nan,0,0", "non-finite")]:
        (tmp_path / f"{name}.csv").write_text(f"x1,x2,x3\n{row}\n")
        r = run_cli(["capacity", "--preset", "laplacian", "--n", "3", "--h", "0.5",
                     "--box", "2", "--mask-csv", f"{name}.csv", "--out", name],
                    tmp_path, cli_env)
        assert_one_line_exit_2(r)
        assert named in r.stderr


@pytest.mark.parametrize("domain, named", [
    ({"kind": "ball", "radius": 0.5, "center": [0, 0]}, "center"),
    ({"kind": "box", "bounds": [[-0.5, 0.5], [-0.5, 0.5]]}, "2 bounds"),
], ids=["ball_center", "box_bounds"])
def test_region_that_does_not_fit_the_dimension_exits_2(tmp_path, cli_env, domain, named):
    config = {"subcommand": "capacity", "preset": "laplacian", "n": 3, "h": 0.25,
              "box": 2.0, "domain": domain}
    with open(tmp_path / "c.json", "w") as fh:
        json.dump(config, fh)
    r = run_cli(["--config", str(tmp_path / "c.json"), "capacity", "--out", "o"],
                tmp_path, cli_env)
    assert_one_line_exit_2(r)
    assert named in r.stderr


def test_ray_axis_past_the_dimension_exits_2(tmp_path, cli_env):
    r = run_cli(["wiener", "--m", "1", "--n", "3", "--domain", "ray:5", "--out", "w"],
                tmp_path, cli_env)
    assert_one_line_exit_2(r)
    assert "ray axis 5" in r.stderr
