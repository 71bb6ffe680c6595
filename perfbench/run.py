"""polycap benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload cartesian_solves --seed 1 --seconds 5 --trace 0

Run from the root of a checkout; polycap is imported from its `src/`.  The
workload runs in a child process (worker.py) with BLAS limited to
min(2, available cores) threads.  Set-up is measured in that child and in
SETUP_PROBES further children that stop after set-up; `setup_s` is the median.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (spans from tracing.py; the traced run's own round time is
`bench.traced_wall_s`).  The inputs are fixed problems, so --seed is recorded
but changes nothing.  Outputs go to .perfbench_runs/ in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SETUP_PROBES = 2
DEADLINE_S = 170.0
HERE = os.path.dirname(os.path.abspath(__file__))


def _child(root, env, argv, deadline):
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--started", repr(started)] + argv,
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cartesian_solves", "wiener_regularity", "kernels_positivity"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polycap", "__init__.py")):
        sys.exit("run from the root of a polycap checkout (src/polycap is missing)")
    outdir = os.path.join(root, ".perfbench_runs")
    os.makedirs(outdir, exist_ok=True)
    threads = str(min(2, len(os.sched_getaffinity(0))))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), OMP_NUM_THREADS=threads,
               OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # relative and of fixed length, so the paths the CLI records in its
    # manifests (and the bytes written) do not depend on the checkout or seed
    tmp = os.path.relpath(tempfile.mkdtemp(prefix="tmp-", dir=outdir), root)
    env["TMPDIR"] = os.path.join(root, tmp)
    try:
        setups = [_child(root, env, ["--workload", args.workload, "--seconds", "0",
                                     "--tmp", tmp, "--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        run = _child(root, env, ["--workload", args.workload, "--seconds", str(args.seconds),
                                 "--trace", str(args.trace), "--tmp", tmp,
                                 "--spans", os.path.join(outdir, f"{tag}-spans.json")],
                     deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append(run["setup_s"])

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in run["layers"].items()}
        metrics["bench.traced_wall_s"] = {"value": run["wall_s"], "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": run["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            "oracle_rel_err": {"value": run["oracle_rel_err"], "unit": "1"},
        }
    # an operation that raised is failed; one whose checks failed is wrong too
    result = {"correct": run["wrong"] == 0, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    with open(os.path.join(outdir, f"{tag}-result.json"), "w") as fh:
        json.dump(dict(result, rounds=run["rounds"], setups=setups, op_s=run["op_s"],
                       failures=run["failures"], seconds=args.seconds), fh, indent=1)
    for line in run["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
