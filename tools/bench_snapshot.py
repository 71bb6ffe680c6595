"""Record the benchmark of one checkout, or of a change and its parent, in a
BENCH_<tag>.json file.

    python3 tools/bench_snapshot.py --out BENCH_37.json [--root .] [--parent CHECKOUT]

For each workload of the checkout's BENCHMARK.json, runs its perfbench/run.py
REPEAT times untraced, at the file's run_seconds, and once traced at
--seconds 0 --trace 1.  With --parent, the untraced runs of the two checkouts
alternate as REPEAT pairs per workload, the parent first in odd pairs (the
first, third, ...), and each checkout makes one traced run.  The file holds,
per workload and checkout, the median, the range and every value of each
end-to-end metric over the untraced runs, the operations attempted and
failed, and the traced run's per-layer numbers; with --parent, the parent's
numbers sit under "parent" and "pairs" counts, per end-to-end metric, the
pairs each side won by BENCHMARK.json's direction (ties count for neither).
It also holds the commits and the machine: cores, and the Python, numpy,
scipy and BLAS versions and the *_NUM_THREADS settings that
polycap.reporting.environment records in every manifest (run.py itself
limits BLAS to two threads in its workload process).  A speed claim quotes
such a file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# untraced runs per workload and checkout
REPEAT = 11


def _run(root, workload, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


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


def _side(runs, traced):
    """The numbers of one checkout: untraced statistics and the traced layers."""
    untraced = {}
    for metric, first in runs[0]["metrics"].items():
        values = [r["metrics"][metric]["value"] for r in runs]
        untraced[metric] = {"unit": first["unit"], "median": statistics.median(values),
                            "min": min(values), "max": max(values), "values": values}
    return {"untraced": untraced,
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "traced": {metric: m["value"] for metric, m in traced["metrics"].items()}}


def _pairs(change, parent, better):
    """Per end-to-end metric, the pairs won by each side; ties count for neither."""
    wins = {}
    for metric, sign in better.items():
        pairs = list(zip(change["untraced"][metric]["values"],
                         parent["untraced"][metric]["values"]))
        change_won = sum(sign * (p - c) > 0 for c, p in pairs)
        parent_won = sum(sign * (c - p) > 0 for c, p in pairs)
        wins[metric] = {"change": change_won, "parent": parent_won,
                        "ties": len(pairs) - change_won - parent_won}
    return wins


def _workload(roots, name, seconds, better):
    """roots maps "change" and, optionally, "parent" to a checkout."""
    runs = {side: [] for side in roots}
    for pair in range(REPEAT):
        # the parent runs first in the odd pairs, counted from 1
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            if side in roots:
                runs[side].append(_run(roots[side], name, seconds, 0))
    out = _side(runs["change"], _run(roots["change"], name, 0, 1))
    if "parent" in roots:
        out["parent"] = _side(runs["parent"], _run(roots["parent"], name, 0, 1))
        out["pairs"] = _pairs(out, out["parent"], better)
    return out


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
    with open(args.out, "w") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
