import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from dsmpc.analysis import (contraction_estimate, iss_experiment,
                            regularization_sweep, suboptimality_curve,
                            violation_profile)
from dsmpc.condense import condense_scenario
from dsmpc.coordinator import (contraction_factor, lipschitz_constant,
                               min_iterations)
from dsmpc.model import shift_to_target
from dsmpc.oracle import solve_centralized
from dsmpc.plant import simulate_closed_loop

from conftest import make_pair_scenario
from test_oracle import formation3_states


class TestSuboptimalityCurve:
    def test_starting_at_optimum_stays_flat(self, pair_global):
        s, g = pair_global
        x = s.x0_stacked()
        star = solve_centralized(g, x, s.epsilon)
        rep = suboptimality_curve(g, x, star.lam, 40, s.epsilon)
        assert rep.passed
        assert np.max(np.abs(rep.series["gap"])) <= 1e-8

    def test_cold_start_below_bound(self, pair_global):
        s, g = pair_global
        rep = suboptimality_curve(g, s.x0_stacked(), None, 120, s.epsilon)
        assert rep.passed
        assert np.all(rep.series["gap"] <= rep.series["bound"] + 1e-8)

    def test_report_roundtrip(self, tmp_path, pair_global):
        s, g = pair_global
        rep = suboptimality_curve(g, s.x0_stacked(), None, 10, s.epsilon)
        jpath, cpath = rep.save(tmp_path)
        doc = json.loads(open(jpath).read())
        assert doc["experiment"] == "suboptimality_curve"
        assert len(doc["series"]["gap"]) == 10
        lines = open(cpath).read().strip().split("\n")
        assert lines[0].startswith("#") and len(lines) == 2 + 10


class TestReferencesFromTheOracle:
    """The sweep's kappa_eps and the curve's psi* come from the oracle's
    certified solutions, never from the scheme's inner solves."""

    @pytest.fixture()
    def inner_calls(self, monkeypatch):
        # every dsmpc module that holds batched_solves counts through it
        import dsmpc.coordinator
        original, calls = dsmpc.coordinator.batched_solves, []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        for name, mod in list(sys.modules.items()):
            if name.startswith("dsmpc") and \
                    getattr(mod, "batched_solves", None) is original:
                monkeypatch.setattr(mod, "batched_solves", counting)
        return calls

    def test_sweep_makes_no_inner_solve(self, formation3_global, inner_calls):
        shifted, g = formation3_global
        states = formation3_states(shifted, n=1)
        assert regularization_sweep(g, states, [1e-4, 1e-8]).passed
        assert inner_calls == []

    @pytest.mark.parametrize("ell", [1, 5])
    def test_curve_solves_only_its_rounds(self, formation3_global,
                                          inner_calls, ell):
        # ell rounds plus ell recorded costs
        shifted, g = formation3_global
        rep = suboptimality_curve(g, shifted.x0_stacked(), None, ell, 0.05)
        assert rep.passed and len(inner_calls) == 2 * ell

    def test_oracle_holds_no_inner_solve(self):
        import dsmpc.oracle
        assert not hasattr(dsmpc.oracle, "batched_solves")
        assert not hasattr(dsmpc.oracle, "recovered_law")


class TestContractionEstimate:
    def test_theory_factor_hand_value(self):
        assert contraction_factor(0.25, 1.0, 7) == pytest.approx(0.5)

    def test_contraction_below_theory(self):
        s = make_pair_scenario(epsilon=1.0)
        g = condense_scenario(s)
        L = lipschitz_constant(g, 1.0)
        assert 0.25 < 1.0 / L  # Theorem step-size hypothesis
        eta_hat, rep = contraction_estimate(
            g, s.x0_stacked(), 7, 1.0, alpha=0.25, trials=25, seed=1,
            scale=2.0,
        )
        assert rep.passed
        assert eta_hat <= 0.5 + 1e-6

    def test_below_threshold_is_skipped(self):
        s = make_pair_scenario(epsilon=1.0)
        g = condense_scenario(s)
        ell = min_iterations(0.25, 1.0) - 1
        assert contraction_factor(0.25, 1.0, ell) >= 1.0
        _, rep = contraction_estimate(g, s.x0_stacked(), ell, 1.0, alpha=0.25,
                                      trials=5, seed=0)
        assert rep.params["skipped"]
        assert rep.checks == []


class TestViolationProfile:
    def test_equilibrium_all_zero(self, formation3):
        s = shift_to_target(formation3)
        s = replace(s, agents=[replace(a, x0=np.zeros(a.n)) for a in s.agents])
        tr = simulate_closed_loop(s, ell=1, steps=6)
        assert np.all(violation_profile(tr) == 0.0)

    def test_matches_trace_rows(self, formation3):
        tr = simulate_closed_loop(formation3, ell=1, steps=10)
        profile = violation_profile(tr)
        assert profile.shape == (10,)
        assert profile.max() == tr.violations.max()


class TestRegularizationSweep:
    def test_inactive_state_far_below_envelope(self, pair_global):
        s, g = pair_global
        x = np.array([0.02, -0.03])  # coupling inactive near the origin
        rep = regularization_sweep(g, [x], [1e-2, 1e-3, 1e-4])
        ratios = np.asarray(rep.series["ratios"])
        assert np.all(ratios <= 1e-8)
        # lam* = 0 makes the envelope zero: only the absolute slack remains
        assert rep.params["theory_constant"] == 0.0
        assert rep.passed

    def test_active_state_reports_slope(self, pair_global):
        s, g = pair_global
        rep = regularization_sweep(g, [s.x0_stacked()],
                                   [1e-2, 1e-3, 1e-4, 1e-5])
        assert "fitted_slope" in rep.params
        assert rep.params["envelope_constant"] < np.inf
        # the regularization error decays as eps does
        ratios = np.asarray(rep.series["ratios"])[0]
        assert ratios[-1] < ratios[0]
        # and stays under the a-priori sqrt(eps) envelope ||lam*|| / sqrt(mu)
        assert "theory_constant" in rep.params
        assert rep.passed
        assert rep.params["worst_bound_ratio"] <= 0.1

    def test_one_unregularized_solve_per_state(self, pair_global,
                                               monkeypatch):
        # kappa and lam* come from the same eps = 0 solve; each eps adds
        # one regularized solve
        import dsmpc.analysis
        import dsmpc.oracle
        s, g = pair_global
        calls = []

        def counting(g, x, eps, warm=None):
            calls.append(eps)
            return solve_centralized(g, x, eps, warm)
        for mod in (dsmpc.analysis, dsmpc.oracle):
            monkeypatch.setattr(mod, "solve_centralized", counting)
        states = [s.x0_stacked(), np.array([0.02, -0.03])]
        eps_list = [1e-2, 1e-3, 1e-4]
        regularization_sweep(g, states, eps_list)
        assert len(calls) == len(states) * (1 + len(eps_list))
        assert calls.count(0.0) == len(states)

    def test_regularized_solves_polish_from_the_unregularized_set(
            self, formation3_global, monkeypatch):
        # at formation3's x0 and two seeded states near it, every eps starts
        # from the state's eps = 0 active set and is certified by the polish
        # alone: no cold Goldfarb-Idnani rounds
        import dsmpc.analysis
        shifted, g = formation3_global
        states = formation3_states(shifted, n=2, seed=5)
        sols = []

        def recording(g, x, eps, warm=None):
            sols.append(solve_centralized(g, x, eps, warm))
            return sols[-1]
        monkeypatch.setattr(dsmpc.analysis, "solve_centralized", recording)
        assert regularization_sweep(g, states, [1e-4, 1e-8]).passed
        regularized = [sol for sol in sols if sol.epsilon > 0.0]
        assert len(regularized) == 2 * len(states)
        assert all(sol.iters == 0 for sol in regularized)
        assert all(sol.iters > 0 for sol in sols if sol.epsilon == 0.0)


class TestIssExperiment:
    def test_pair_scenario_gains(self):
        s = make_pair_scenario(epsilon=0.01)
        rep = iss_experiment(s, ell=8, bounds_list=[0.0, 0.02], seeds=[0, 1],
                             steps=24)
        assert rep.passed
        ub = rep.series["ultimate_bound"]
        assert ub[0] <= 1e-3
        assert ub[1] >= ub[0]


class TestGapEnvelopeSlope:
    def test_loglog_decay_at_least_quadratic(self, formation3_global):
        # the gap envelope over rounds 10..500 must decay at least like
        # 1/l^2 (fitted slope <= -1.8); zero gaps are excluded from the fit
        shifted, g = formation3_global
        rep = suboptimality_curve(g, shifted.x0_stacked(), None, 500, 0.05)
        ells = np.asarray(rep.series["ell"], dtype=float)
        gaps = np.asarray(rep.series["gap"], dtype=float)
        mask = (ells >= 10) & (gaps > 1e-15)
        assert mask.sum() >= 20
        slope = np.polyfit(np.log10(ells[mask]), np.log10(gaps[mask]), 1)[0]
        assert slope <= -1.8
