"""Acceptance suite: every release criterion, one test per criterion, each
printing a single PASS/FAIL line.  Tolerances are pinned here and nowhere
else.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from dataclasses import replace

import numpy as np
import pytest

from dsmpc.analysis import (iss_experiment, regularization_sweep,
                            violation_profile)
from dsmpc.cli import main as cli_main
from dsmpc.condense import condense_scenario, eval_condensed_cost
from dsmpc.coordinator import (contraction_factor, default_step, dual_cost,
                               lipschitz_constant, recovered_law, run_ada)
from dsmpc.errors import Infeasible
from dsmpc.model import Scenario, shift_to_target
from dsmpc.oracle import (simulate_optimal_closed_loop, solve_centralized,
                          value_function)
from dsmpc.plant import simulate_closed_loop

from conftest import make_axis_agent, make_pair_scenario
from oracles import sparse_cost


def report(number, name, passed, detail):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    return passed


@pytest.fixture(scope="module")
def f3(formation3):
    return formation3


@pytest.fixture(scope="module")
def f3_global(f3):
    shifted = shift_to_target(f3)
    return shifted, condense_scenario(shifted)


@pytest.fixture(scope="module")
def optimal_states(f3, f3_global):
    """Oracle-optimal nominal closed loop, in shifted coordinates."""
    shifted, _ = f3_global
    xbar, _ = shifted.shift
    states = simulate_optimal_closed_loop(f3, steps=60).states
    return states - xbar[None, :]


@pytest.fixture(scope="module")
def sweep_traces(f3):
    return {ell: simulate_closed_loop(f3, ell=ell, steps=60)
            for ell in (1, 5, 20, 100, 500)}


@pytest.fixture(scope="module")
def feasible_states(f3_global, optimal_states):
    """Ten feasible states around the early maneuver, oracle-verified."""
    _, g = f3_global
    rng = np.random.default_rng(2024)
    states = [optimal_states[t] for t in range(5)]
    t = 0
    while len(states) < 10:
        x = optimal_states[t % 6] + rng.uniform(-0.02, 0.02,
                                                size=optimal_states.shape[1])
        t += 1
        try:
            solve_centralized(g, x, 0.0)
        except Infeasible:
            continue
        states.append(x)
    return states


class TestAcceptance:
    def test_01_condensation_equivalence(self, f3):
        scalar = Scenario.from_dict({
            "name": "scalar", "horizon": 4, "epsilon": 0.1,
            "agents": [{"A": [[1.0]], "B": [[1.0]], "Q": [[1.0]],
                        "R": [[1.0]], "P": [[1.0]],
                        "input_poly": {"box": [[-2.0], [2.0]]},
                        "x0": [0.5]}],
            "coupling": [],
        })
        single = Scenario(agents=[make_axis_agent([0.4, -0.1])],
                          coupling=f3.coupling.__class__([]), horizon=6,
                          epsilon=0.1, name="single")
        worst = 0.0
        for scen in (scalar, single, shift_to_target(f3)):
            g = condense_scenario(scen)
            rng = np.random.default_rng(99)
            for _ in range(100):
                u = rng.normal(size=sum(ca.nu for ca in g.agents))
                x = rng.normal(size=g.n_total)
                cond = eval_condensed_cost(g, u, x)
                roll = sparse_cost(scen.agents, scen.horizon, u, x)
                worst = max(worst, abs(cond - roll) / max(1.0, abs(roll)))
        ok = worst <= 1e-9
        assert report(1, "condensation equivalence", ok,
                      f"worst relative mismatch {worst:.3e}, tol 1e-9")

    def test_02_accelerated_rate_bound(self, f3, f3_global, feasible_states):
        _, g = f3_global
        eps = f3.epsilon
        alpha = default_step(lipschitz_constant(g, eps))
        worst_excess = -np.inf
        for x in feasible_states:
            star = solve_centralized(g, x, eps)
            psi_star = dual_cost(star.lam, x, g, eps)
            run = run_ada(None, x, 500, g, eps, alpha=alpha, record_cost=True)
            d2 = float(np.linalg.norm(star.lam) ** 2)
            ells = np.arange(1, 501)
            gaps = run.dual_costs - psi_star
            bounds = 2.0 * d2 / (alpha * (ells + 1.0) ** 2)
            worst_excess = max(worst_excess, float(np.max(gaps - bounds)))
        ok = worst_excess <= 1e-8
        assert report(2, "dual ascent rate bound", ok,
                      f"10 states, ell<=500, worst gap-bound excess "
                      f"{worst_excess:.3e}, tol 1e-8")

    def test_03_oracle_equivalence(self, f3, f3_global, optimal_states):
        _, g = f3_global
        eps = 0.05  # strongly convex enough for full convergence in 1e4 rounds
        worst_dual = worst_input = 0.0
        for x in (optimal_states[0], optimal_states[3]):
            star = solve_centralized(g, x, eps)
            run = run_ada(None, x, 10_000, g, eps)
            rel = np.linalg.norm(run.lam - star.lam) / (1.0 + np.linalg.norm(star.lam))
            worst_dual = max(worst_dual, float(rel))
            q_ell = recovered_law(g, x, run.lam)
            kappa_eps = recovered_law(g, x, star.lam)
            rel_u = np.linalg.norm(q_ell - kappa_eps) / (1.0 + np.linalg.norm(kappa_eps))
            worst_input = max(worst_input, float(rel_u))
        ok = worst_dual <= 1e-5 and worst_input <= 1e-5
        assert report(3, "iterative/direct oracle equivalence", ok,
                      f"dual err {worst_dual:.3e}, input err {worst_input:.3e}, "
                      f"tol 1e-5 at eps={eps}")

    def test_04_contraction_factor(self):
        s = make_pair_scenario(epsilon=1.0)
        g = condense_scenario(s)
        alpha, eps = 0.25, 1.0
        L = lipschitz_constant(g, eps)
        assert alpha < 1.0 / L  # step-size hypothesis of the theory
        x = s.x0_stacked()
        star = solve_centralized(g, x, eps)
        rng = np.random.default_rng(7)
        detail = []
        ok = True
        for ell in (4, 7, 15):
            eta = contraction_factor(alpha, eps, ell)
            eta_hat = 0.0
            for _ in range(50):
                lam0 = rng.uniform(0.0, 2.0, size=g.n_dual)
                dist = np.linalg.norm(lam0 - star.lam)
                run = run_ada(lam0, x, ell, g, eps, alpha=alpha)
                eta_hat = max(eta_hat,
                              float(np.linalg.norm(run.mu - star.lam) / dist))
            detail.append(f"l={ell}: {eta_hat:.4f}<={eta:.4f}")
            ok = ok and eta_hat <= eta + 1e-6
        assert report(4, "per-period contraction", ok,
                      "; ".join(detail) + ", tol 1e-6")

    def test_05_single_round_stability_and_optimal_match(
            self, f3, sweep_traces):
        tr1 = sweep_traces[1]
        err1 = float(np.linalg.norm(tr1.states[-1] - tr1.targets))
        opt = simulate_optimal_closed_loop(f3, steps=60).states
        tr500 = sweep_traces[500]
        err500 = float(np.max(np.abs(tr500.states - opt)))
        ok = err1 <= 1e-2 and err500 <= 1e-3
        assert report(5, "closed-loop figure: stability and optimality", ok,
                      f"l=1 terminal error {err1:.3e} (tol 1e-2); "
                      f"l=500 vs optimal loop {err500:.3e} (tol 1e-3)")

    def test_06_violation_figure(self, sweep_traces):
        peaks = {ell: float(violation_profile(tr).max())
                 for ell, tr in sweep_traces.items()}
        seq = [peaks[ell] for ell in (1, 5, 20, 100)]
        monotone = all(a >= b - 1e-6 for a, b in zip(seq, seq[1:]))
        small_at_500 = peaks[500] <= 1e-4
        ok = monotone and small_at_500 and peaks[1] > 0
        assert report(6, "violation shrinks with communication", ok,
                      f"peaks l=1..100 {['%.3e' % v for v in seq]}, "
                      f"l=500 {peaks[500]:.3e} (tol 1e-4)")

    def test_07_regularization_scaling(self, f3_global, optimal_states):
        _, g = f3_global
        # five feasible states with active coupling duals, sampled around the
        # strained start of the maneuver
        rng = np.random.default_rng(41)
        states, tries = [], 0
        while len(states) < 5 and tries < 60:
            x = optimal_states[0] * rng.uniform(0.85, 1.0)
            x = x + rng.uniform(-0.01, 0.01, size=x.size)
            tries += 1
            try:
                lam = solve_centralized(g, x, 0.0).lam
            except Infeasible:
                continue
            if np.linalg.norm(lam) > 1e-6:
                states.append(x)
        assert len(states) == 5, "could not sample active-constraint states"
        rep = regularization_sweep(
            g, states, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6],
        )
        # one-sided law ||kappa - kappa_eps|| <= ||lam*|| / sqrt(mu) sqrt(eps),
        # its constant taken from the unregularized oracle dual, never fitted
        check = {c["name"]: c for c in rep.checks}["below_sqrt_eps_envelope"]
        ok = rep.passed and check["tolerance"] <= 1e-8
        assert report(7, "regularization error envelope", ok,
                      f"worst error/bound {rep.params['worst_bound_ratio']:.3f}"
                      f" (criterion <= 1, abs slack {check['tolerance']:.0e}), "
                      f"a-priori constant {rep.params['theory_constant']:.3f}, "
                      f"fitted slope {rep.params['fitted_slope']:.3f}")

    def test_08_value_function_decrease(self, f3, f3_global):
        shifted, g = f3_global
        rng = np.random.default_rng(5)
        beta_hat = 0.0
        ratios = done = attempts = 0
        while done < 10:
            attempts += 1
            assert attempts < 60, "could not sample feasible nominal starts"
            s = shift_to_target(f3)
            if done > 0:
                # interior starts: shrink the strained initial condition and
                # jitter it, staying away from the feasibility boundary
                scale = rng.uniform(0.55, 0.9)
                jitter = rng.uniform(-0.02, 0.02, size=s.n_total)
                off = np.cumsum([0] + [a.n for a in s.agents])
                s = replace(s, agents=[
                    replace(a, x0=scale * a.x0 + jitter[off[i]:off[i + 1]])
                    for i, a in enumerate(s.agents)])
            # s is already in shifted coordinates, so the loop reports
            # states in that frame directly; an infeasible state truncates it
            loop = simulate_optimal_closed_loop(s, steps=14)
            if loop.infeasible_at is not None:
                continue
            states = loop.states
            try:
                phis = [value_function(g, states[t]) for t in range(15)]
            except Infeasible:
                continue
            for t in range(14):
                if np.linalg.norm(states[t]) > 1e-6:
                    beta_hat = max(beta_hat, phis[t + 1] / phis[t])
                    ratios += 1
            done += 1
        ok = beta_hat < 1.0 and ratios > 0
        assert report(8, "value function decrease", ok,
                      f"beta_hat {beta_hat:.4f} over {ratios} steps of 10 "
                      f"trajectories (criterion < 1)")

    def test_09_disturbance_gains(self, f3):
        # ten rounds are comfortably above the empirical stability threshold
        # of one; the optimal loop runs at the scenario's eps under the same
        # disturbance, and bound zero runs once (no seed changes it)
        rep = iss_experiment(f3, 10, [0.0, 0.01, 0.05], range(5), steps=60)
        tols = {c["name"]: c["tolerance"] for c in rep.checks}
        ok = rep.passed and tols == {"all_finite": np.inf,
                                     "monotone_in_bound": 1e-9,
                                     "nominal_small": 1e-3}

        def fmt(key):
            return ['%.3e' % v for v in rep.series[key]]
        assert report(9, "disturbance-to-state gains", ok,
                      f"trailing max per bound {fmt('ultimate_bound')}, "
                      f"optimal loop {fmt('optimal_bound')}, "
                      f"largest gap to it {fmt('gap')}, nominal tol 1e-3")

    def test_10_determinism(self, formation3_path, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            code = cli_main(["simulate", "--scenario", formation3_path,
                             "--iters", "1", "--steps", "60", "--seed", "0",
                             "--out", str(out)])
            assert code == 0
        import os
        name = [f for f in os.listdir(outs[0]) if f.endswith(".csv")][0]
        b1 = open(outs[0] / name, "rb").read()
        b2 = open(outs[1] / name, "rb").read()
        ok = b1 == b2
        assert report(10, "byte-identical traces", ok,
                      f"{len(b1)} bytes compared")
