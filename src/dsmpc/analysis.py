"""Quantitative experiment drivers: convergence-rate curves against the
theoretical bound, per-period dual contraction estimates, closed-loop
violation profiles, regularization-error scaling, and disturbance-gain
sweeps.  Every check compares a measured quantity against a formula in
(alpha, eps, ell) or against an oracle output (the references come from its
certified solutions alone); reports carry the raw series.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .coordinator import (contraction_factor, default_step,
                          lipschitz_constant, min_iterations, run_ada)
from .oracle import (ORACLE_TOL, simulate_optimal_closed_loop,
                     solve_centralized)
from .plant import make_disturbance, simulate_closed_loop

GAP_TOL = 1e-8          # slack on the accelerated-gradient gap bound
CONTRACTION_TOL = 1e-6  # slack on the per-period contraction factor
NOMINAL_TOL = 1e-3      # ultimate bound allowed without disturbance


@dataclass
class ExperimentReport:
    experiment: str
    params: dict
    series: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(c["passed"] for c in self.checks)

    def add_check(self, name, passed, value, tolerance):
        self.checks.append(
            {"name": name, "passed": bool(passed), "value": float(value),
             "tolerance": float(tolerance)}
        )

    def to_json(self):
        out = {
            "experiment": self.experiment,
            "params": self.params,
            "passed": self.passed,
            "checks": self.checks,
            "provenance": self.provenance,
            "series": {k: np.asarray(v).tolist() for k, v in self.series.items()},
        }
        return json.dumps(out, indent=2, sort_keys=True)

    def save(self, outdir, tag=""):
        import os

        digest = self.provenance.get("scenario_digest", "nodigest")[:12]
        stem = f"{self.experiment}_{digest}{('_' + tag) if tag else ''}"
        os.makedirs(outdir, exist_ok=True)
        jpath = os.path.join(outdir, stem + ".json")
        with open(jpath, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")
        cpath = os.path.join(outdir, stem + ".csv")
        keys = sorted(self.series)
        if keys:
            cols = [np.asarray(self.series[k], dtype=float).reshape(-1) for k in keys]
            rows = max(c.size for c in cols)
            lines = ["# dsmpc-report-v1", ",".join(keys)]
            for i in range(rows):
                lines.append(",".join(
                    repr(float(c[i])) if i < c.size else "" for c in cols
                ))
            with open(cpath, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        return jpath, cpath


def suboptimality_curve(g, x, lam0, ell_max, eps, alpha=None):
    """Dual gap of the projected iterate after each round, against the
    accelerated-gradient bound 2 ||lam0 - lam*||^2 / (alpha (ell+1)^2),
    with psi* = -(f(u*) + eps/2 ||lam*||^2) by strong duality."""
    if alpha is None:
        alpha = default_step(lipschitz_constant(g, eps))
    lam0 = np.zeros(g.n_dual) if lam0 is None else np.asarray(lam0, dtype=float)
    star = solve_centralized(g, x, eps)
    psi_star = -(star.value + 0.5 * eps * float(star.lam @ star.lam))
    run = run_ada(lam0, x, ell_max, g, eps, alpha=alpha, record_cost=True,
                  warm=star.nu > 0.0)
    dist2 = float(np.linalg.norm(lam0 - star.lam) ** 2)
    ells = np.arange(1, ell_max + 1)
    gaps = run.dual_costs - psi_star
    bounds = 2.0 * dist2 / (alpha * (ells + 1.0) ** 2)
    rep = ExperimentReport(
        "suboptimality_curve",
        {"ell_max": ell_max, "eps": eps, "alpha": alpha},
        series={"ell": ells, "gap": gaps, "bound": bounds},
    )
    worst = float(np.max(gaps - bounds))
    rep.add_check("gap_below_bound", worst <= GAP_TOL, worst, GAP_TOL)
    return rep


def contraction_estimate(g, x_fixed, ell, eps, alpha=None, trials=50, seed=0,
                         scale=1.0):
    """Empirical per-period contraction: worst ratio of the dual tracking
    error over random nonnegative starts, against 2/sqrt(alpha eps)/(ell+1).

    Below the round-count threshold the factor is >= 1 and the check is
    skipped (reported with `skipped` = True)."""
    if alpha is None:
        alpha = default_step(lipschitz_constant(g, eps))
    star = solve_centralized(g, x_fixed, eps)
    eta = contraction_factor(alpha, eps, ell)
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        lam0 = rng.uniform(0.0, scale, size=g.n_dual)
        dist = float(np.linalg.norm(lam0 - star.lam))
        if dist < 1e-12:
            ratios.append(0.0)
            continue
        run = run_ada(lam0, x_fixed, ell, g, eps, alpha=alpha)
        ratios.append(float(np.linalg.norm(run.mu - star.lam)) / dist)
    eta_hat = float(max(ratios))
    skipped = ell < min_iterations(alpha, eps)
    rep = ExperimentReport(
        "contraction_estimate",
        {"ell": ell, "eps": eps, "alpha": alpha, "trials": trials,
         "seed": seed, "eta_theory": eta, "skipped": skipped},
        series={"ratios": np.array(ratios)},
    )
    if not skipped:
        rep.add_check("eta_hat_below_eta", eta_hat <= eta + CONTRACTION_TOL,
                      eta_hat, eta + CONTRACTION_TOL)
    return eta_hat, rep


def violation_profile(trace):
    """Per-step maximum stage coupling violation of a closed-loop trace."""
    return trace.violations.max(axis=1, initial=0.0)


def regularization_sweep(g, states, eps_list):
    """Regularization error of the feedback law across eps, checked against
    the one-sided envelope ||kappa(x) - kappa_eps(x)|| <= C(x) sqrt(eps).

    The constant is fixed before any eps is tried: C(x) = ||lam*(x)|| /
    sqrt(mu), with lam*(x) any optimal coupling dual of the unregularized
    problem and mu the smallest eigenvalue of the agents' condensed Hessians.
    The eps-regularized dual is the dual of the quadratic-penalty primal
    h(z) + ||(Ez - d)_+||^2 / (2 eps); strong convexity of the Lagrangian at
    lam* and complementarity at z* give, with v = (E z_eps - d)_+,
        (mu/2) ||z_eps - z*||^2 <= ||lam*|| ||v|| - ||v||^2 / (2 eps)
                                <= eps ||lam*||^2 / 2,
    and the feedback law is a sub-vector of z.

    For each state, r(eps) = ||kappa - kappa_eps|| / ||x|| must stay below
    C(x)/||x|| sqrt(eps) up to the oracle's certification level (an absolute
    slack, needed where both sides vanish at inactive states).  The pooled
    log-log slope (zero ratios excluded), the fitted envelope constant
    sup r(eps)/sqrt(eps), the a-priori constant max_x C(x)/||x|| in the same
    units, and the worst ratio of error to bound are reported as
    measurements.  kappa_eps is the first input block of z_eps, each eps
    solved from the active set of the state's eps = 0 solve."""
    eps_list = list(eps_list)
    mu = min(float(np.linalg.eigvalsh(ca.H)[0]) for ca in g.agents)
    ratios = np.zeros((len(states), len(eps_list)))
    theory = np.zeros(len(states))
    for i, x in enumerate(states):
        x = np.asarray(x, dtype=float)
        nx = max(float(np.linalg.norm(x)), 1e-300)
        sol0 = solve_centralized(g, x, 0.0)
        kappa = g.first_inputs(sol0.u)
        theory[i] = float(np.linalg.norm(sol0.lam)) / np.sqrt(mu) / nx
        for j, eps in enumerate(eps_list):
            kappa_eps = g.first_inputs(solve_centralized(g, x, eps, sol0.active).u)
            ratios[i, j] = float(np.linalg.norm(kappa - kappa_eps)) / nx
    keep = ratios > 1e-13
    logs_e = np.log10(np.broadcast_to(np.asarray(eps_list, dtype=float), ratios.shape))
    slope = float(np.polyfit(logs_e[keep], np.log10(ratios[keep]), 1)[0]) \
        if keep.sum() >= 2 else 0.0
    root_eps = np.sqrt(np.asarray(eps_list, dtype=float))
    envelope = float(np.max(ratios / root_eps[None, :])) if ratios.size else 0.0
    bounds = theory[:, None] * root_eps[None, :]
    active = bounds > 0
    worst_ratio = float(np.max(ratios[active] / bounds[active])) \
        if active.any() else 0.0
    excess = float(np.max(ratios - bounds)) if ratios.size else 0.0
    rep = ExperimentReport(
        "regularization_sweep",
        {"eps_list": eps_list, "n_states": len(states), "mu": mu},
        series={"eps": np.asarray(eps_list), "ratios": ratios,
                "bounds": bounds},
    )
    rep.params["fitted_slope"] = slope
    rep.params["envelope_constant"] = envelope
    rep.params["theory_constant"] = float(theory.max()) if theory.size else 0.0
    rep.params["worst_bound_ratio"] = worst_ratio
    rep.add_check("below_sqrt_eps_envelope", excess <= ORACLE_TOL, excess,
                  ORACLE_TOL)
    return rep


def iss_experiment(scenario, ell, bounds_list, seeds, steps=None):
    """Disturbance-to-state gain per bound, over seeds (bound zero runs once):
    trailing-half worst distance to target of the scheme's loop and of the
    optimal loop at the scenario's eps (at eps = 0 a disturbance can make it
    infeasible), and their largest state gap (inf if one is truncated).  The
    scheme's must be finite, non-decreasing in the bound and small at zero."""
    steps = scenario.sim_steps if steps is None else int(steps)
    target, bounds = scenario.targets_stacked(), [float(b) for b in bounds_list]
    # (scheme bound, optimal bound, gap) per (bound, seed)
    out = np.full((3, len(bounds), len(seeds)), np.inf)
    for bi, beta in enumerate(bounds):
        for si, seed in enumerate(seeds[:1] if beta == 0 else seeds):
            dist = make_disturbance("zero" if beta == 0 else "uniform",
                                    beta * np.ones(scenario.n_total), seed=seed)
            loops = (simulate_closed_loop(scenario, ell, steps, dist),
                     simulate_optimal_closed_loop(scenario, steps, scenario.epsilon, dist))
            for k, tr in enumerate(loops):
                if tr.infeasible_at is None:
                    err = np.linalg.norm(tr.states - target[None, :], axis=1)
                    out[k, bi, si] = float(err[steps // 2:].max())
            if np.all(np.isfinite(out[:2, bi, si])):
                out[2, bi, si] = np.max(np.abs(loops[0].states - loops[1].states))
        if beta == 0:
            out[:, bi] = out[:, bi, :1]
    agg, opt_agg, gap = out.max(axis=2)
    rep = ExperimentReport(
        "iss_experiment",
        {"ell": ell, "bounds": bounds, "seeds": list(map(int, seeds)),
         "steps": steps},
        series={"bounds": np.asarray(bounds), "ultimate_bound": agg,
                "optimal_bound": opt_agg, "gap": gap, "per_seed": out[0]},
        provenance={"scenario_digest": scenario.digest()},
    )
    rep.add_check("all_finite", bool(np.all(np.isfinite(agg))),
                  float(np.max(agg)), np.inf)
    mono_slack = float(np.max(np.diff(agg) * -1)) if agg.size > 1 else 0.0
    rep.add_check("monotone_in_bound", bool(np.all(np.diff(agg) >= -1e-9)),
                  mono_slack, 1e-9)
    if 0.0 in bounds:
        nominal = agg[bounds.index(0.0)]
        rep.add_check("nominal_small", nominal <= NOMINAL_TOL, nominal, NOMINAL_TOL)
    rep.params["any_truncated"] = bool(np.isinf(out[0]).any())
    return rep
