"""Record the benchmark of one checkout, or of a change and its parent, in a
BENCH_<tag>.json file.

    python3 tools/bench_snapshot.py --out BENCH_40.json [--root .] [--parent CHECKOUT]

For each workload of the checkout's BENCHMARK.json, runs its perfbench/run.py
REPEAT times untraced, at the file's run_seconds, and once traced at
--seconds 0 --trace 1.  With --parent, the untraced runs of the two checkouts
alternate as REPEAT pairs per workload, the parent first in odd pairs (the
first, third, ...), and each checkout makes one traced run.  The file holds,
per workload and checkout, the median, the range and every value of each
end-to-end metric over the untraced runs, the median over those runs of
each operation's time (the `op_s` that run.py writes to
.perfbench_runs/<workload>-seed0-trace0-result.json), the operations
attempted and failed, and the traced run's per-layer numbers; with
--parent, the parent's numbers sit under "parent" and "pairs" counts, per
end-to-end metric, the pairs each side won by BENCHMARK.json's direction
(ties count for neither).
It also holds the commits and the machine: cores, and the Python, numpy,
scipy and BLAS versions and the *_NUM_THREADS settings that
polycap.reporting.environment records in every manifest (run.py itself
limits BLAS to two threads in its workload process).  A speed claim quotes
such a file.

With --parent, after writing the file it prints a Markdown table with one
row per workload and end-to-end metric: each side's median [range], the
change in percent, the pairs won by each side, the parent's interquartile
range over its median, and a status against the metric's bound in
BENCHMARK.json: "past bound" when the change's median is worse than the
parent's by more than the bound, else "unresolved" when the parent's IQR
exceeds the bound and not every change run is better than every parent
run, else "within bound".

After the workloads, each `polycap ...` example of the change's README runs
REPEAT times per checkout as one cold `python -m polycap` process of that
checkout's src/, its --out sent to a temporary directory, in alternating
pairs as above: the CLI's own traffic, one fresh process per run.  The file
holds every wall time under "readme", per example; with --parent a second
table follows, per example: each side's median [range], the change in
percent and the pairs won.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

from traffic import readme_examples

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# untraced runs per workload and checkout
REPEAT = 11


def _run(root, workload, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        # run.py keeps each operation's median time of the round in its result file
        path = os.path.join(root, ".perfbench_runs", f"{workload}-seed0-trace0-result.json")
        with open(path) as fh:
            result["op_s"] = json.load(fh)["op_s"]
    return result


def _cold_run(root, argv):
    """Wall seconds of one `python -m polycap` process of root's src/ on argv,
    its --out in a fresh temporary directory."""
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    with tempfile.TemporaryDirectory(prefix="polycap-readme-") as tmp:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "polycap", *argv, "--out", os.path.join(tmp, "o")],
                       cwd=root, env=env, stdout=subprocess.DEVNULL, check=True)
        return time.perf_counter() - start


def _git(root, *args):
    return subprocess.run(["git", *args], cwd=root, stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()


def _checkout(root):
    return {"commit": _git(root, "rev-parse", "HEAD"),
            "dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no"))}


def _machine():
    sys.path.insert(0, os.path.join(HERE, "src"))
    from polycap.reporting import environment

    return {"nproc": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            **environment()}


def _stats(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "values": values}


def _side(runs, traced):
    """The numbers of one checkout: untraced statistics and the traced layers."""
    untraced = {}
    for metric, first in runs[0]["metrics"].items():
        values = [r["metrics"][metric]["value"] for r in runs]
        untraced[metric] = {"unit": first["unit"], **_stats(values)}
    op_s = {op: statistics.median(r["op_s"][op] for r in runs) for op in runs[0]["op_s"]}
    return {"untraced": untraced, "op_s": op_s,
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "traced": {metric: m["value"] for metric, m in traced["metrics"].items()}}


def _wins(change, parent, sign):
    """The pairs of values won by each side, sign +1 where lower is better;
    ties count for neither."""
    pairs = list(zip(change, parent))
    change_won = sum(sign * (p - c) > 0 for c, p in pairs)
    parent_won = sum(sign * (c - p) > 0 for c, p in pairs)
    return {"change": change_won, "parent": parent_won,
            "ties": len(pairs) - change_won - parent_won}


def _pairs(change, parent, better):
    """Per end-to-end metric, the pairs won by each side."""
    return {metric: _wins(change["untraced"][metric]["values"],
                          parent["untraced"][metric]["values"], sign)
            for metric, sign in better.items()}


def _alternate(roots, run):
    """REPEAT results of run(root) per side of roots, in alternating pairs."""
    results = {side: [] for side in roots}
    for pair in range(REPEAT):
        # the parent runs first in the odd pairs, counted from 1
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            if side in roots:
                results[side].append(run(roots[side]))
    return results


def _workload(roots, name, seconds, better):
    """roots maps "change" and, optionally, "parent" to a checkout."""
    runs = _alternate(roots, lambda root: _run(root, name, seconds, 0))
    out = _side(runs["change"], _run(roots["change"], name, 0, 1))
    if "parent" in roots:
        out["parent"] = _side(runs["parent"], _run(roots["parent"], name, 0, 1))
        out["pairs"] = _pairs(out, out["parent"], better)
    return out


def _readme(roots):
    """Per README example of the change, the wall seconds of its cold runs
    per side, and with a parent the pairs won."""
    out = {}
    for argv in readme_examples(roots["change"]):
        print(f"== polycap {' '.join(argv)}", file=sys.stderr)
        times = _alternate(roots, lambda root: _cold_run(root, argv))
        out[" ".join(argv)] = row = {side: _stats(v) for side, v in times.items()}
        if "parent" in roots:
            row["pairs"] = _wins(times["change"], times["parent"], 1)
    return out


def _ratio(x, base):
    return x / base if base else (0.0 if x == 0 else math.inf)


def _spread(values, median):
    """Interquartile range over the median (statistics.quantiles' default
    method: with 11 runs, the 3rd and 9th smallest)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return _ratio(q3 - q1, median)


def _status(parent, change, sign, bound):
    """The row status of one metric; sign is +1 where lower is better."""
    if _ratio(sign * (change["median"] - parent["median"]), parent["median"]) > bound:
        return "past bound"
    every_run_better = all(sign * (p - c) > 0
                           for c in change["values"] for p in parent["values"])
    if _spread(parent["values"], parent["median"]) > bound and not every_run_better:
        return "unresolved"
    return "within bound"


def _cell(m):
    return f"{m['median']:.4g} [{m['min']:.4g}–{m['max']:.4g}]"


def _table(snapshot, end_to_end):
    """The Markdown comparison table of a snapshot made with --parent."""
    lines = ["| workload | metric | parent | change | change % | pairs won (change/parent) "
             "| parent IQR / median | status |", "|" + " --- |" * 8]
    for name, w in snapshot["workloads"].items():
        for metric in end_to_end:
            key, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            parent, change = w["parent"]["untraced"][key], w["untraced"][key]
            pct = 100.0 * _ratio(change["median"] - parent["median"], parent["median"])
            won = w["pairs"][key]
            lines.append(
                f"| {name} | {key} | {_cell(parent)} | {_cell(change)} | {pct:+.1f}% "
                f"| {won['change']}/{won['parent']} "
                f"| {100.0 * _spread(parent['values'], parent['median']):.1f}% "
                f"| {_status(parent, change, sign, metric['bound'])} |")
    return "\n".join(lines)


def _readme_table(snapshot):
    """The Markdown table of the README examples' cold wall seconds."""
    lines = ["| README example | parent s | change s | change % | pairs won (change/parent) |",
             "|" + " --- |" * 5]
    for example, row in snapshot["readme"].items():
        parent, change = row["parent"], row["change"]
        pct = 100.0 * _ratio(change["median"] - parent["median"], parent["median"])
        lines.append(f"| `{example}` | {_cell(parent)} | {_cell(change)} | {pct:+.1f}% "
                     f"| {row['pairs']['change']}/{row['pairs']['parent']} |")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--root", default=HERE, help="the checkout to benchmark (default: this one)")
    ap.add_argument("--parent", help="a checkout of the parent commit, run in alternation")
    args = ap.parse_args()

    roots = {"change": os.path.abspath(args.root)}
    if args.parent:
        roots["parent"] = os.path.abspath(args.parent)
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    names = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    # +1 where lower is better: the change wins a pair where sign * (parent - change) > 0
    better = {m["name"]: 1 if m["better"] == "lower" else -1 for m in benchmark["end_to_end"]}
    snapshot = {**_checkout(roots["change"]), "machine": _machine(),
                "settings": {"repeat": REPEAT, "seconds": seconds}, "workloads": {}}
    if "parent" in roots:
        snapshot["parent"] = _checkout(roots["parent"])
    for name in names:
        print(f"== {name}", file=sys.stderr)
        snapshot["workloads"][name] = _workload(roots, name, seconds, better)
    snapshot["readme"] = _readme(roots)
    with open(args.out, "w") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if "parent" in roots:
        print(_table(snapshot, benchmark["end_to_end"]))
        print()
        print(_readme_table(snapshot))


if __name__ == "__main__":
    main()
