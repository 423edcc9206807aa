"""dsmpc benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload chain30 --seed 1 --seconds 50 --trace 0

Run from the root of a source tree.  The workload runs in a child process
with the BLAS and OpenMP thread pools pinned to one thread, set before numpy
is imported.  The last line of standard output is the result as JSON;
bench/README.md describes the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("f3_loop", "chain30", "f3_verify")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Time left to a run beyond --seconds: interpreter start, set-up, the
# round in progress, and the checks.
GRACE_S = 120


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "dsmpc" / "__init__.py").is_file():
        print(f"no dsmpc sources under {src}; run from the root of a source tree",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                              timeout=args.seconds + GRACE_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} did not finish within "
              f"{args.seconds + GRACE_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"workload {args.workload} exited with code {proc.returncode}",
              file=sys.stderr)
        return proc.returncode
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
