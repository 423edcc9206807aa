"""One benchmark run of one workload, in its own process (started by
run.py, which pins the BLAS thread pools first).

Sets the workload up and runs one untimed warm-up round of its operations,
then runs whole rounds of them, one after another, until the time is up, and
sets the workload up once more after each round, outside the timed phase;
`setup_s` is the median of those set-ups.
It checks every output, and prints the environment and then the result as
the last line of standard output.  With tracing on, the run reports the
per-layer metrics instead of the end-to-end ones and writes its spans.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, run_checks

SETUP_REPEATS = 5       # set-ups per run at the least
OUT_DIR = Path("bench_out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "machine": platform.machine(),
    }


def _call(workload, ctx, item):
    try:
        return workload.op(ctx, item)
    except Exception as exc:  # a failed operation is counted, not fatal
        return exc


def run(workload, seed, seconds, tracer):
    """Set up, run the timed phase, and return what was measured.

    The host's speed drifts in phases of seconds to minutes, so the set-ups
    repeated between rounds sample the same phases as the operations do;
    the operations keep the context of the first set-up."""
    setup_s = []

    def set_up():
        if tracer is not None:
            tracer.current_op = -1
        t0 = time.perf_counter()
        ctx = workload.setup(seed)
        setup_s.append(time.perf_counter() - t0)
        return ctx

    ctx = set_up()
    # One untimed round first warms the caches and the lazy imports; its
    # outputs are the ones checked, and every timed operation must
    # reproduce the output of its input in that round.  A repeat is compared
    # as it finishes, outside the operation's own time, and only the
    # warm-up's outputs are kept, so memory does not grow with the run.
    first = {k: _call(workload, ctx, item) for k, item in enumerate(ctx.items)}
    durations, runs = [], []
    elapsed = 0.0  # the timed phase: the rounds, without the set-ups
    while True:  # whole rounds of the same inputs
        start = time.perf_counter()
        for k, item in enumerate(ctx.items):
            if tracer is not None:
                tracer.current_op = len(durations)
            t0 = time.perf_counter()
            out = _call(workload, ctx, item)
            durations.append(time.perf_counter() - t0)
            if isinstance(out, Exception):
                runs.append((k, out))
            else:
                runs.append((k, not isinstance(first[k], Exception)
                             and workload.same(first[k], out)))
        elapsed += time.perf_counter() - start
        if elapsed >= seconds:
            break
        set_up()
    while len(setup_s) < SETUP_REPEATS:
        set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.current_op = -1
        tracer.uninstall()
    return ctx, setup_s, durations, runs, first, elapsed, peak_rss_mb


def check(workload, ctx, runs, first):
    """Failure messages per operation: those of the checks on the warm-up
    output of its pool input, and a repeat that did not reproduce it."""
    verdicts = {k: [f"warm-up raised {type(out).__name__}: {out}"]
                if isinstance(out, Exception) else workload.check(ctx, k, out)
                for k, out in first.items()}
    failures = []
    for k, same in runs:
        if isinstance(same, Exception):
            failures.append([f"raised {type(same).__name__}: {same}"])
        elif same:
            failures.append(verdicts[k])
        else:
            failures.append(verdicts[k] + [
                "output differs from the first run of the same input"])
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        for name in tracer.missing:
            print(f"traced name missing: {name}", file=sys.stderr)
    ctx, setup_s, durations, runs, first, elapsed, rss = run(
        workload, args.seed, args.seconds, tracer)

    failures = check(workload, ctx, runs, first)
    run_errors = run_checks(ctx)
    failed = sum(1 for errors in failures if errors)
    for errors in [run_errors] + [e for e in failures if e][:3]:
        for msg in errors[:5]:
            print(f"check failed: {msg}", file=sys.stderr)

    n = len(durations)
    op_ms = np.asarray(durations) * 1e3
    e2e = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (n / elapsed, "1/s"),
        "op_ms_p50": (float(np.median(op_ms)), "ms"),
        "op_ms_p90": (float(np.percentile(op_ms, 90)), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    metrics = layer_metrics(tracer, n) if tracer else e2e
    result = {
        "correct": not run_errors,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "env": environment(), "result": result, "setup_s": setup_s,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "op_ms": [round(float(v), 4) for v in op_ms],
        "run_errors": run_errors,
        "failures": [e for e in failures if e][:10],
        "missing": tracer.missing if tracer else [],
    }
    if tracer is not None:
        tracer.save(f"{stem}-spans.npz")
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")

    print(json.dumps({"env": report["env"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
