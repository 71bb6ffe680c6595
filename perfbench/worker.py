"""One workload in one process; started by run.py, which sets its environment.

Prints one JSON line: the set-up time (process start to the first operation)
and, unless --setup-only, the measured rounds.  A round runs every operation
of the workload once; rounds repeat until --seconds have passed and the
workload's fewest rounds are done, so every run attempts whole rounds of the
same operations.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() of the parent just before it started us")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import polycap

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(polycap.__file__).startswith(src + os.sep):
        sys.exit(f"polycap was imported from {polycap.__file__}, not from {src}")
    import workloads

    build, min_rounds = workloads.WORKLOADS[args.workload]
    ops = build(args.tmp)
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    attempted = failed = wrong = rounds = 0
    failures, oracle_errs, layers = [], [], []
    op_s = {op.name: [] for op in ops}
    t_first = time.monotonic()
    while rounds < min_rounds or time.monotonic() - t_first < args.seconds:
        base = len(tracer.spans) if tracer else 0
        for op in ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = tracer.span(f"op.{op.name}", op.run) if tracer else op.run()
            except Exception as exc:  # a failing operation is counted, not fatal
                failed += 1
                failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            finally:
                op_s[op.name].append(time.perf_counter() - t0)
            fails, errs = op.check(result)
            oracle_errs.extend(errs)
            if fails:
                failed += 1
                wrong += 1
                failures.extend(f"{op.name}: {f}" for f in fails)
        rounds += 1
        if tracer:
            layers.append(tracing.layer_metrics(tracer.spans, base))

    out = {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "failures": failures,
        "rounds": rounds,
        # a round's time with each operation at its median over the rounds
        "wall_s": sum(statistics.median(v) for v in op_s.values()),
        "op_s": {name: statistics.median(v) for name, v in op_s.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_rel_err": max(oracle_errs) if oracle_errs else None,
    }
    if tracer:
        # median over rounds; counts repeat exactly, so theirs is any round's
        out["layers"] = {
            key: [statistics.median(r[key][0] for r in layers), layers[0][key][1]]
            for key in layers[0]}
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(tracer.spans, fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
