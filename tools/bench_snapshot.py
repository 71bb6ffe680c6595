"""Record the benchmark of one checkout in a BENCH_<tag>.json file.

    python3 tools/bench_snapshot.py --out BENCH_35.json [--root .]

For each workload of the checkout's BENCHMARK.json, runs its perfbench/run.py
REPEAT times untraced, at the file's run_seconds, and once traced at
--seconds 0 --trace 1, one run after the other.  The file holds, per
workload, the median, the range and every value of each end-to-end metric
over the untraced runs, the operations attempted and failed, and the traced
run's per-layer numbers; and the commit and the machine: cores, Python, numpy, scipy, the BLAS numpy was
built with, and the *_NUM_THREADS settings of the environment (run.py itself
limits BLAS to two threads in its workload process).  A speed claim compares
two such files taken on the same machine.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# untraced runs per workload
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


def _machine():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": {"name": blas.get("name"),
                                                 "version": blas.get("version")},
            "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES}}


def _workload(root, name, seconds):
    runs = [_run(root, name, seconds, 0) for _ in range(REPEAT)]
    untraced = {}
    for metric, first in runs[0]["metrics"].items():
        values = [r["metrics"][metric]["value"] for r in runs]
        untraced[metric] = {"unit": first["unit"], "median": statistics.median(values),
                            "min": min(values), "max": max(values), "values": values}
    traced = _run(root, name, 0, 1)
    return {"untraced": untraced,
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "traced": {metric: m["value"] for metric, m in traced["metrics"].items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    help="the checkout to benchmark (default: this one)")
    args = ap.parse_args()

    root = os.path.abspath(args.root)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    names = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    snapshot = {"commit": _git(root, "rev-parse", "HEAD"),
                "dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no")),
                "machine": _machine(),
                "settings": {"repeat": REPEAT, "seconds": seconds},
                "workloads": {}}
    for name in names:
        print(f"== {name}", file=sys.stderr)
        snapshot["workloads"][name] = _workload(root, name, seconds)
    with open(args.out, "w") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
