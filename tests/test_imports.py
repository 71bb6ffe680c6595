"""Cold start: importing polycap loads no scipy module; each function imports
the scipy it uses when it runs, with the same results.  Also: every name the
benchmark tracer rebinds exists, and every definition in src/polycap has a
caller or a stated reason to exist without one."""

import ast
import dataclasses
import importlib.util
import json
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

import polycap as pc

_LOADED_SCIPY = ("[m for m in sorted(sys.modules) "
                 "if m == 'scipy' or m.startswith('scipy.')]")


def _fresh(code, env, cwd):
    """Run `code` in a new interpreter with warnings as errors; its stdout."""
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy(cli_env, tmp_path):
    out = _fresh(f"import sys, json, polycap, polycap.cli; print(json.dumps({_LOADED_SCIPY}))",
                 cli_env, tmp_path)
    assert json.loads(out) == []


def test_cartesian_dirichlet_run_loads_no_scipy(cli_env, tmp_path):
    argv = ["dirichlet", "--preset", "laplacian", "--n", "2", "--h", "0.1", "--box", "1",
            "--out", str(tmp_path / "dir")]
    out = _fresh("import sys, json\nfrom polycap import cli\n"
                 f"code = cli.main({argv!r})\n"
                 f"print(json.dumps({{'code': code, 'scipy': {_LOADED_SCIPY}}}))",
                 cli_env, tmp_path)
    assert json.loads(out) == {"code": 0, "scipy": []}
    assert (tmp_path / "dir" / "summary.json").exists()


def test_profile_rules_are_built_once_per_process(cli_env, tmp_path):
    # the mn8 profile (n = 8, even s = 4) takes two Gauss-Legendre rules and one
    # Gauss-Jacobi rule for its base rule and the same at doubled counts for
    # its error estimate; a second profile builds none
    code = ("import json, polycap\nfrom polycap import fundsol\n"
            "rules = (fundsol._gauss_legendre, fundsol._gauss_jacobi)\n"
            "info = lambda: [rule.cache_info()[:2] for rule in rules]\n"
            "seen = [info()]\n"
            "for _ in range(2):\n"
            "    polycap.compute_profile(polycap.mn8_operator())\n"
            "    seen.append(info())\n"
            "print(json.dumps(seen))")
    # (hits, misses) of each rule: after import, after one profile, after two
    assert json.loads(_fresh(code, cli_env, tmp_path)) == [
        [[0, 0], [0, 0]], [[0, 4], [0, 2]], [[4, 4], [2, 2]]]


def _results():
    cap, _, u = pc.axisym_capacity(pc.Ball(0.5), 1, 3, 0.1, 2.0)
    profile = pc.compute_profile(pc.laplacian(3))
    return {"axisym_capacity": cap, "axisym_potential": u,
            "profile": profile.values, "profile_error": profile.error_estimate,
            "positivity_2_6": dataclasses.asdict(pc.channel_positivity(2, 6)),
            "positivity_2_8": dataclasses.asdict(pc.channel_positivity(2, 8))}


def _bits(x):
    """x with every float and array replaced by its bytes, for comparison."""
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    return x


def test_results_in_a_fresh_interpreter_are_bitwise_those_of_this_one(cli_env, tmp_path):
    path = tmp_path / "results.pkl"
    _fresh("import pickle, sys\n"
           f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
           "from test_imports import _results\n"
           f"pickle.dump(_results(), open({str(path)!r}, 'wb'))",
           cli_env, tmp_path)
    with open(path, "rb") as fh:
        fresh = pickle.load(fh)
    here = _results()
    assert _bits(fresh) == _bits(here)
    assert here["positivity_2_8"]["status"] == "violated"


def test_every_traced_name_resolves():
    """Each (module, "attr" or "Class.attr") row of the benchmark tracer's
    TRACED table names something that exists, so deleting or renaming a
    traced function fails here and not only in a traced benchmark run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr, _ in tracing.TRACED:
        # a method is read from its own class's __dict__, as `Tracer.install`
        # does, so an __init__ inherited from object does not count
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = vars(obj).get(part)
            if obj is None:
                missing.append(f"{module_name}:{attr}")
                break
    assert missing == []


# definitions kept without a caller in the program, each with its reason
_KEPT_WITHOUT_CALLER = {
    "cli._Parser.error": "argparse calls it on a malformed command line",
    "energy.hardy_weighted_energy": "the Cartesian oracle the channel forms are tested against",
    "energy.weighted_operator_energy": "the kernel-weighted Cartesian oracle of the same tests",
    "energy.EnergyForm.tosparse": "the direct-solve reference of the energy and solver tests",
    "potential.stationarity_check": "the optimality oracle of the potential tests",
    "potential.sign_probe": "the exploratory API the README lists",
    "operators.save_operator": "writes the format that --operator-file reads",
}


def _definitions(tree, module):
    """module.name of each module-level function and class, and
    module.Class.name of each method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _references(tree, module, is_init):
    """(kind, name, owners) of each reference in `tree`: kind "name" for a
    loaded ast.Name, "attr" for an ast.Attribute, "import" for a name
    imported outside an __init__.py, "traced" for each dotted part of the
    strings in a TRACED table; owners are the definitions, named as
    `_definitions` names them, whose body holds the reference."""
    refs = []

    def visit(node, prefix, owners):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            prefix = f"{prefix}.{node.name}"
            owners = owners | {prefix}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append(("name", node.id, owners))
        elif isinstance(node, ast.Attribute):
            refs.append(("attr", node.attr, owners))
        elif isinstance(node, ast.ImportFrom) and not is_init:
            refs.extend(("import", alias.name, owners) for alias in node.names)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)):
            for const in ast.walk(node.value):
                if isinstance(const, ast.Constant) and isinstance(const.value, str):
                    refs.extend(("traced", part, owners) for part in const.value.split("."))
        for child in ast.iter_child_nodes(node):
            visit(child, prefix, owners)

    visit(tree, module, frozenset())
    return refs


def test_every_src_definition_has_a_caller():
    """Each function, class and method of src/polycap is referenced in the
    program (src/polycap, the demos, the benchmark) or by the acceptance
    criteria, or is kept without a caller for the reason given above.  A
    method counts as referenced only through an attribute or a TRACED
    string; a function or class also through a loaded name or an import
    outside __init__.py.  References in a definition's own body do not
    count."""
    root = Path(__file__).resolve().parents[1]
    src = sorted((root / "src" / "polycap").glob("*.py"))
    readers = (src + sorted((root / "demos").glob("*.py"))
               + sorted((root / "perfbench").glob("*.py"))
               + [root / "tests" / "test_acceptance.py"])
    by_name = {}
    for p in readers:
        for kind, name, owners in _references(ast.parse(p.read_text()), p.stem,
                                              p.name == "__init__.py"):
            by_name.setdefault(name, []).append((kind, owners))
    method_kinds = {"attr", "traced"}
    function_kinds = method_kinds | {"name", "import"}
    unused = []
    for p in src:
        for q, name in _definitions(ast.parse(p.read_text()), p.stem):
            kinds = method_kinds if q.count(".") == 2 else function_kinds
            if not any(k in kinds and q not in owners for k, owners in by_name.get(name, ())):
                unused.append(q)
    assert sorted(unused) == sorted(_KEPT_WITHOUT_CALLER)
