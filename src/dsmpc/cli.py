"""Command-line entry point.

Subcommands: `check` (assumption validation + condensation self-tests),
`solve` (one-shot dual ascent at the scenario's initial state with a
suboptimality curve), `simulate` (closed loop, trace CSV + metadata JSON),
`sweep` (grid over rounds/regularization/seeds), `dump` (condensed
matrices).  Exit codes: 0 success, 2 usage, 3 scenario problems, 4 solver
failure (a `simulate` run truncated by an infeasible state exits 4 after
writing its partial trace).
"""

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from .analysis import suboptimality_curve, violation_profile
from .condense import dump_matrices, eval_condensed_cost, rollout_cost
from .coordinator import default_step, lipschitz_constant
from .errors import (DimensionError, DomainError, Infeasible, MaxIters,
                     NoConvergence, NotEquilibrium, ParseError, UnknownKind)
from .model import load_scenario, validate_assumptions
from .plant import make_disturbance, prepared, simulate_closed_loop

SCENARIO_ERRORS = (ParseError, DimensionError, NotEquilibrium, UnknownKind,
                   DomainError, ValueError, OSError)
# LinAlgError subclasses ValueError, so SOLVER_ERRORS is matched first.
SOLVER_ERRORS = (Infeasible, MaxIters, NoConvergence, np.linalg.LinAlgError)


def _add_common(sp, out=True):
    sp.add_argument("--scenario", required=True, help="scenario JSON file")
    if out:
        sp.add_argument("--out", default="runs", help="output directory")


def positive_int(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def comma_list(kind):
    """An argparse type: one or more comma-separated `kind` values."""
    def parse(text):
        return [kind(v) for v in text.split(",")]
    parse.__name__ = f"comma-separated {kind.__name__}"  # named in the error
    return parse


def build_parser():
    p = argparse.ArgumentParser(
        prog="dsmpc",
        description="Distributed suboptimal MPC: solve, simulate, sweep.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="validate assumptions and condensation")
    _add_common(sp, out=False)
    sp.add_argument("--points", type=positive_int, default=25,
                    help="random points for the cost self-test")

    sp = sub.add_parser("solve", help="one-shot dual ascent at x0")
    _add_common(sp)
    sp.add_argument("--iters", type=int, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--alpha", type=float, default=None)

    sp = sub.add_parser("simulate", help="closed-loop run")
    _add_common(sp)
    sp.add_argument("--iters", type=int, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--dist", default="zero",
                    choices=["zero", "uniform", "constant_worst"])
    sp.add_argument("--dist-bound", type=float, default=None,
                    help="componentwise bound; omitted, the agents' own")

    sp = sub.add_parser("sweep", help="grid of closed-loop runs")
    _add_common(sp)
    sp.add_argument("--iters", type=comma_list(int), default=[1],
                    help="comma-separated round counts")
    sp.add_argument("--eps", type=comma_list(float), default=[None],
                    help="comma-separated eps values; omitted, the scenario's")
    sp.add_argument("--seeds", type=comma_list(int), default=[None],
                    help="comma-separated seeds; omitted, the scenario's")
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--dist", default="zero",
                    choices=["zero", "uniform", "constant_worst"])
    sp.add_argument("--dist-bound", type=float, default=None)
    sp.add_argument("--jobs", type=positive_int, default=1)

    sp = sub.add_parser("dump", help="write condensed matrices")
    _add_common(sp)
    return p


def _trace_stem(scenario, ell, eps, seed):
    return f"{scenario.name}_l{ell}_e{eps:g}_s{seed}"


def cmd_check(args):
    s = load_scenario(args.scenario)
    report = validate_assumptions(s)
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        detail = f"  ({c.detail})" if c.detail else ""
        print(f"agent {c.agent} {c.item}: {status}{detail}")
    for w in report.warnings:
        print(f"warning: {w}")
    _, shifted, g = prepared(s)
    rng = np.random.default_rng(s.seed)
    worst = 0.0
    for _ in range(args.points):
        u = rng.normal(size=sum(ca.nu for ca in g.agents))
        x = rng.normal(size=g.n_total)
        cond = eval_condensed_cost(g, u, x)
        roll = rollout_cost(shifted, u, x)
        worst = max(worst, abs(cond - roll) / max(1.0, abs(roll)))
    print(f"condensed/sparse cost relative mismatch over {args.points} "
          f"random points: {worst:.3e}")
    ok = report.passed and worst <= 1e-9
    print("check:", "pass" if ok else "FAIL")
    if not ok:
        raise ValueError("scenario failed validation")
    return 0


def _load(path, **overrides):
    """The scenario at `path` with the fields given (not None) replaced and
    checked again, and the digest of the file as loaded."""
    s = load_scenario(path)
    return replace(s, **{k: v for k, v in overrides.items() if v is not None}), \
        s.digest()


def cmd_solve(args):
    s, digest = _load(args.scenario, iterations=args.iters)
    eps = s.epsilon if args.eps is None else args.eps
    ell = s.iterations
    _, shifted, g = prepared(s)
    alpha = args.alpha if args.alpha is not None else \
        default_step(lipschitz_constant(g, eps))
    rep = suboptimality_curve(g, shifted.x0_stacked(), None, ell, eps,
                              alpha=alpha)
    rep.provenance["scenario_digest"] = digest
    jpath, cpath = rep.save(args.out, tag=f"l{ell}_e{eps:g}")
    gap = rep.series["gap"][-1]
    print(f"dual gap after {ell} rounds: {gap:.6e} "
          f"(alpha={alpha:.6g}, eps={eps:g})")
    print(f"wrote {jpath} and {cpath}")
    return 0


def _run_one(scenario_path, ell, eps, seed, steps, dist_kind, dist_bound, out,
             alpha=None):
    s, digest = _load(scenario_path, epsilon=eps, iterations=ell,
                      sim_steps=steps)
    eps_used = s.epsilon
    seed_used = s.seed if seed is None else seed
    bound = np.concatenate([a.disturbance_bound for a in s.agents]) \
        if dist_bound is None else dist_bound * np.ones(s.n_total)
    dist = make_disturbance(dist_kind, bound, seed=seed_used)
    tr = simulate_closed_loop(s, dist=dist, alpha=alpha)
    stem = _trace_stem(s, tr.ell, eps_used, seed_used)
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, stem + ".csv")
    meta_path = os.path.join(out, stem + ".meta.json")
    tr.scenario_digest = digest
    tr.save(csv_path, meta_path)
    peak = float(violation_profile(tr).max()) if tr.steps else 0.0
    final_err = float(np.linalg.norm(tr.states[-1] - tr.targets))
    return {
        "iters": tr.ell, "eps": eps_used, "seed": seed_used,
        "steps": tr.steps, "peak_violation": peak, "final_error": final_err,
        "infeasible_at": tr.infeasible_at, "csv": csv_path,
    }


def cmd_simulate(args):
    info = _run_one(args.scenario, args.iters, args.eps, args.seed, args.steps,
                    args.dist, args.dist_bound, args.out, alpha=args.alpha)
    print(f"trace written to {info['csv']} "
          f"(peak violation {info['peak_violation']:.3e}, "
          f"final error {info['final_error']:.3e})")
    if info["infeasible_at"] is not None:
        print(f"run truncated: infeasible at step {info['infeasible_at']}")
        return 4
    return 0


def cmd_sweep(args):
    runs = [(args.scenario, ell, eps, seed, args.steps, args.dist,
             args.dist_bound, args.out)
            for ell in args.iters for eps in args.eps for seed in args.seeds]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_one, *zip(*runs)))
    else:
        results = [_run_one(*run) for run in runs]
    summary = os.path.join(args.out, "sweep_summary.json")
    with open(summary, "w", encoding="utf-8") as fh:
        json.dump({"grid": results}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for r in results:
        print(f"iters={r['iters']} eps={r['eps']:g} seed={r['seed']} "
              f"peak_violation={r['peak_violation']:.6e} "
              f"final_error={r['final_error']:.6e}")
    print(f"summary written to {summary}")
    return 0


def cmd_dump(args):
    s = load_scenario(args.scenario)
    g = prepared(s)[2]
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{s.name}_condensed.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dump_matrices(g), fh, sort_keys=True)
        fh.write("\n")
    print(f"condensed matrices written to {path}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    handlers = {"check": cmd_check, "solve": cmd_solve, "simulate": cmd_simulate,
                "sweep": cmd_sweep, "dump": cmd_dump}
    try:
        return handlers[args.command](args)
    except SOLVER_ERRORS as exc:
        print(f"error: solver: {exc}", file=sys.stderr)
        return 4
    except SCENARIO_ERRORS as exc:
        print(f"error: scenario: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
