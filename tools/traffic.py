"""Which code of src/polycap the benchmark, the README examples and the demos run.

    python3 tools/traffic.py [--root .]

Runs, in this one process and under a line tracer (sys.settrace):
- the `run` of every operation of every workload in perfbench/workloads.py,
  which is imported as it stands, not changed;
- every `polycap ...` line of the README's fenced code blocks, through
  polycap.cli.main with `--out` sent to a temporary directory;
- every script in demos/, through runpy, with its output discarded.

Then prints, per module of src/polycap, each function or method whose body
never ran, and for the functions that ran, the lines of their bodies that
never did.  Lambdas and comprehensions count as lines of the function that
holds them; module and class bodies, which run at import, are not listed.
The polycap of --root's src/ is the one traced, so the same script reports on
any checkout.  A report, not a gate: it exits 0 whatever it finds, and a
failing operation, example or demo is printed and the rest still run.
"""

import argparse
import contextlib
import inspect
import io
import os
import runpy
import shlex
import sys
import tempfile
import traceback
import types


def _code_objects(code):
    """code and every code object nested in it, depth first."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _lines(code):
    """The line numbers of code's own instructions, its first line (the def
    or decorator line, which runs in the enclosing body) left out."""
    return {line for _, _, line in code.co_lines()
            if line is not None and line != code.co_firstlineno}


def _functions(path):
    """{(first line, name): (qualified name, executable lines)} of each named
    function of a source file; an anonymous code object (a lambda or a
    comprehension) adds its lines to the function that holds it."""
    with open(path) as fh:
        module = compile(fh.read(), path, "exec")
    out = {}

    def visit(code, owner):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if not const.co_flags & inspect.CO_OPTIMIZED:
                visit(const, owner)  # a class body: its methods are functions
            elif const.co_name.startswith("<"):
                if owner is not None:
                    for inner in _code_objects(const):
                        out[owner][1].update(_lines(inner))
            else:
                key = (const.co_firstlineno, const.co_name)
                out[key] = (const.co_qualname, _lines(const))
                visit(const, key)

    visit(module, None)
    return out


class LineTracer:
    """Records the calls and lines run in the files under one directory."""

    def __init__(self, directory):
        self.directory = os.path.realpath(directory) + os.sep
        self.calls = set()
        self.lines = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.directory):
            return None
        self.calls.add((code.co_filename, code.co_firstlineno, code.co_name))
        return self._local

    @contextlib.contextmanager
    def active(self):
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)


def _attempt(label, call, failures):
    try:
        call()
    except Exception as exc:  # the report goes on past a failing run
        failures.append(f"{label}: {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)


def _benchmark(root, tmp, failures):
    sys.path.insert(0, os.path.join(root, "perfbench"))
    import workloads

    count = 0
    for name, (build, _) in workloads.WORKLOADS.items():
        os.makedirs(os.path.join(tmp, name))
        for op in build(os.path.join(tmp, name)):
            _attempt(f"benchmark {name}/{op.name}", op.run, failures)
            count += 1
    return count


def readme_examples(root):
    """The argument lists of the `polycap ...` lines in the README's fenced
    code blocks, without their `--out DIR`."""
    examples, fenced = [], False
    with open(os.path.join(root, "README.md")) as fh:
        for line in fh:
            if line.startswith("```"):
                fenced = not fenced
            elif fenced and line.startswith("polycap "):
                argv = shlex.split(line)[1:]
                if "--out" in argv:
                    i = argv.index("--out")
                    argv = argv[:i] + argv[i + 2:]
                examples.append(argv)
    return examples


def _readme(root, tmp, failures):
    from polycap import cli

    examples = readme_examples(root)
    for k, argv in enumerate(examples):
        argv = argv + ["--out", os.path.join(tmp, f"readme_{k}")]

        def run(argv=argv):
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit code {code}")

        _attempt("README: polycap " + " ".join(argv), run, failures)
    return len(examples)


def _demos(root, tmp, failures):
    demos = sorted(f for f in os.listdir(os.path.join(root, "demos")) if f.endswith(".py"))
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        for name in demos:
            path = os.path.join(root, "demos", name)
            with contextlib.redirect_stdout(io.StringIO()):
                _attempt(f"demo {name}", lambda: runpy.run_path(path, run_name="__main__"),
                         failures)
    finally:
        os.chdir(cwd)
    return len(demos)


def _ranges(lines):
    """'3, 7-9' for [3, 7, 8, 9]: runs of consecutive numbers."""
    out, start, prev = [], None, None
    for line in sorted(lines):
        if start is None:
            start = prev = line
        elif line == prev + 1:
            prev = line
        else:
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = prev = line
    if start is not None:
        out.append(str(start) if start == prev else f"{start}-{prev}")
    return ", ".join(out)


def report(src, tracer):
    """The report lines: per module, the functions never called, then the
    never-run lines of the others."""
    out = []
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        path = os.path.realpath(os.path.join(src, name))
        functions = _functions(path)
        never, partial = [], []
        for (first, short), (qualname, lines) in sorted(functions.items()):
            if (path, first, short) not in tracer.calls:
                never.append(qualname)
                continue
            missed = {line for line in lines if (path, line) not in tracer.lines}
            if missed:
                partial.append(f"    {qualname}: {_ranges(missed)}")
        if never or partial:
            out.append(f"src/polycap/{name}")
            if never:
                out.append("  never runs: " + ", ".join(never))
            if partial:
                out.append("  lines that never run:")
                out.extend(partial)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="the checkout to trace (default: .)")
    args = parser.parse_args(argv)
    root = os.path.realpath(args.root)
    src = os.path.join(root, "src", "polycap")
    sys.path.insert(0, os.path.join(root, "src"))
    tracer, failures, counts = LineTracer(src), [], {}
    with tempfile.TemporaryDirectory(prefix="polycap-traffic-") as tmp:
        with tracer.active():
            import polycap  # noqa: F401  (its import-time code is traced too)

            for part, run in (("benchmark", _benchmark), ("readme", _readme),
                              ("demos", _demos)):
                os.makedirs(os.path.join(tmp, part))
                counts[part] = run(root, os.path.join(tmp, part), failures)
    print("traced: " + ", ".join(f"{n} {part}" for part, n in counts.items()))
    for line in failures:
        print("FAILED " + line)
    for line in report(src, tracer):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
