import math

import numpy as np
import pytest

from dsmpc.condense import CondensedAgent, GlobalQP
from dsmpc.coordinator import (contraction_factor, default_step, dual_cost,
                               lipschitz_constant, min_iterations, run_ada)
from dsmpc.errors import DomainError
from dsmpc.oracle import solve_centralized


def stub_global(H_list, E_list, b=None, G=0.0, W=0.0):
    """A GlobalQP of agents with n = 1, N = 1, no local rows and the given
    H_i, E_i; every entry of G_i is G and W_i = [[W]]."""
    agents = []
    for i, (H, E) in enumerate(zip(H_list, E_list)):
        H = np.atleast_2d(np.asarray(H, dtype=float))
        E = np.atleast_2d(np.asarray(E, dtype=float))
        nu = H.shape[0]
        agents.append(CondensedAgent(
            index=i, name=f"s{i}", n=1, m=nu, N=1,
            H=H, G=np.full((nu, 1), G), W=np.full((1, 1), W),
            C=np.zeros((0, nu)), D=np.zeros((0, 1)), c=np.zeros(0),
            E=E, F=np.zeros((E.shape[0], 1)),
            Ahat=np.zeros((2, 1)), Bhat=np.zeros((2, nu)),
        ))
    p = E_list[0].shape[0] if hasattr(E_list[0], "shape") else 1
    b = np.zeros(p) if b is None else np.asarray(b, dtype=float)
    return GlobalQP(agents=agents, b=b)


class TestLipschitzConstant:
    def test_single_agent_hand_value(self):
        g = stub_global([np.array([[2.0]])], [np.array([[1.0]])])
        assert lipschitz_constant(g, 0.1) == pytest.approx(0.6)

    def test_no_coupling_reduces_to_eps(self):
        g = stub_global([np.array([[2.0]])], [np.array([[0.0]])])
        assert lipschitz_constant(g, 0.3) == pytest.approx(0.3)

    def test_two_identical_agents(self):
        g = stub_global([np.array([[2.0]])] * 2, [np.array([[1.0]])] * 2)
        assert lipschitz_constant(g, 0.0) == pytest.approx(math.sqrt(2) * 0.5)


class TestDefaultStep:
    def test_values(self):
        assert default_step(0.6) == pytest.approx(0.99 / 0.6)
        assert default_step(1.0) == pytest.approx(0.99)

    def test_round_trip(self):
        L = 1.7
        assert 0.99 / default_step(L) == pytest.approx(L, abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_step(0.0)


class TestAdaStep:
    def test_fixed_point_at_slack_origin(self, pair_global):
        s, g = pair_global
        out = run_ada(None, np.zeros(2), 1, g, s.epsilon, alpha=0.2)
        assert np.all(out.mu == 0.0)
        assert np.all(out.lam == 0.0)

    def test_theta_recursion_first_step(self, pair_global):
        s, g = pair_global
        out = run_ada(None, np.zeros(2), 1, g, s.epsilon, alpha=0.2)
        assert out.theta == pytest.approx((1 + math.sqrt(5)) / 2)

    def test_projection_clamps_exactly(self, pair_global):
        s, g = pair_global
        # negative drift everywhere: all components clamp to exactly zero
        out = run_ada(None, np.array([-0.5, -0.5]), 1, g, s.epsilon, alpha=0.2)
        assert np.all(out.mu >= 0.0)
        assert np.count_nonzero(out.mu) < g.n_dual

    def test_theta_growth(self):
        theta = 1.0
        for j in range(1000):
            theta = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
            assert theta >= (j + 3) / 2.0


class TestRunAda:
    def test_zero_iterations_identity(self, pair_global):
        s, g = pair_global
        lam0 = np.arange(g.n_dual, dtype=float)
        run = run_ada(lam0, s.x0_stacked(), 0, g, s.epsilon)
        assert np.array_equal(run.lam, lam0)
        assert run.iters == 0

    def test_mu_nonnegative_along_run(self, pair_global):
        s, g = pair_global
        x = s.x0_stacked()
        alpha = default_step(lipschitz_constant(g, s.epsilon))
        for j in range(1, 26):
            run = run_ada(None, x, j, g, s.epsilon, alpha=alpha)
            assert np.all(run.mu >= 0.0)

    def test_converges_to_oracle_dual(self, pair_global):
        s, g = pair_global
        x = s.x0_stacked()
        star = solve_centralized(g, x, s.epsilon)
        run = run_ada(None, x, 2000, g, s.epsilon)
        tol = 1e-8 * (1.0 + np.linalg.norm(star.lam))
        assert np.linalg.norm(run.lam - star.lam) <= tol
        assert np.linalg.norm(run.mu - star.lam) <= tol

    def test_theorem_bound_on_projected_iterates(self, pair_global):
        s, g = pair_global
        x = s.x0_stacked()
        eps = s.epsilon
        alpha = default_step(lipschitz_constant(g, eps))
        star = solve_centralized(g, x, eps)
        psi_star = dual_cost(star.lam, x, g, eps)
        run = run_ada(None, x, 300, g, eps, alpha=alpha, record_cost=True)
        d2 = float(np.linalg.norm(star.lam) ** 2)
        for j in range(300):
            bound = 2.0 * d2 / (alpha * (j + 2.0) ** 2)
            assert run.dual_costs[j] - psi_star <= bound + 1e-8

    def test_best_so_far_cost_decreases(self, pair_global):
        s, g = pair_global
        run = run_ada(None, s.x0_stacked(), 200, g, s.epsilon, record_cost=True)
        best = np.minimum.accumulate(run.dual_costs)
        assert best[-1] <= run.dual_costs[0]
        assert np.all(np.diff(best) <= 1e-12)

    def test_bit_identical_repetition(self, pair_global):
        s, g = pair_global
        x = s.x0_stacked()
        r1 = run_ada(None, x, 60, g, s.epsilon)
        r2 = run_ada(None, x, 60, g, s.epsilon)
        assert np.array_equal(r1.lam, r2.lam)
        assert np.array_equal(r1.mu, r2.mu)
        assert np.array_equal(r1.agg_residuals, r2.agg_residuals)

    def test_recorded_cost_matches_cold_dual_cost(self, pair_global):
        # recorded costs reuse the round's inner solves as warm starts; the
        # certified inner solves make that a speed-up only
        s, g = pair_global
        x = s.x0_stacked()
        run = run_ada(None, x, 40, g, s.epsilon, record_cost=True)
        cold = dual_cost(run.mu, x, g, s.epsilon)
        assert run.dual_costs[-1] == pytest.approx(cold, rel=1e-12)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_step_not_finite_positive(self, pair_global, alpha):
        s, g = pair_global
        with pytest.raises(ValueError):
            run_ada(None, s.x0_stacked(), 3, g, s.epsilon, alpha=alpha)


    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
    def test_rejects_eps_not_finite_nonnegative(self, formation3_global, eps):
        # rejected before any inner solve, whether the step is given or not
        s, g = formation3_global
        for alpha in (0.01, None):
            with pytest.raises(ValueError, match="eps"):
                run_ada(None, s.x0_stacked(), 5, g, eps, alpha=alpha)


class TestDualCost:
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
    def test_rejects_eps_not_finite_nonnegative(self, formation3_global, eps):
        s, g = formation3_global
        with pytest.raises(ValueError, match="eps"):
            dual_cost(np.zeros(g.n_dual), s.x0_stacked(), g, eps)

    def test_zero_price_zero_state(self, pair_global):
        s, g = pair_global
        assert dual_cost(np.zeros(g.n_dual), np.zeros(2), g, s.epsilon) == 0.0

    def test_negative_price_rejected(self, pair_global):
        s, g = pair_global
        lam = np.zeros(g.n_dual)
        lam[0] = -1e-6
        with pytest.raises(DomainError):
            dual_cost(lam, s.x0_stacked(), g, s.epsilon)

    def test_scalar_hand_instance(self):
        # single agent, H=2, G=1, no local rows, E=1, F=0, b=0.1:
        # psi(lam) = (x+lam)^2/4 - x^2 + (eps/2) lam^2 + lam b,
        # minimized at lam* = -(x/2 + b)/(1/2 + eps) when positive.
        g = stub_global([np.array([[2.0]])], [np.array([[1.0]])], b=[0.1],
                        G=1.0, W=2.0)
        x = np.array([-2.0])
        eps = 0.5
        lam_expect = (1.0 - 0.1) / (0.5 + eps)
        psi = lambda lam: dual_cost(np.array([lam]), x, g, eps)
        expect = lambda lam: (x[0] + lam) ** 2 / 4 - x[0] ** 2 \
            + 0.5 * eps * lam ** 2 + 0.1 * lam
        for lam in (0.0, 0.5, 0.9, 1.5):
            assert psi(lam) == pytest.approx(expect(lam), abs=1e-12)
        # oracle and the ascent agree with the hand minimizer
        star = solve_centralized(g, x, eps)
        assert star.lam[0] == pytest.approx(lam_expect, abs=1e-9)
        run = run_ada(None, x, 500, g, eps)
        assert run.lam[0] == pytest.approx(lam_expect, abs=1e-7)

    def test_oracle_price_beats_random_probes(self, pair_global):
        s, g = pair_global
        x = s.x0_stacked()
        star = solve_centralized(g, x, s.epsilon)
        best = dual_cost(star.lam, x, g, s.epsilon)
        rng = np.random.default_rng(17)
        for _ in range(60):
            lam = np.abs(star.lam + rng.normal(scale=0.3, size=g.n_dual))
            assert dual_cost(lam, x, g, s.epsilon) >= best - 1e-9


class TestMinIterations:
    def test_strict_threshold_examples(self):
        assert min_iterations(0.25, 1.0) == 4
        assert min_iterations(1.0, 4.0) == 1
        assert min_iterations(1.0, 1.0) == 2

    def test_consistent_with_contraction_factor(self):
        for alpha, eps in ((0.25, 1.0), (0.1, 0.5), (0.9, 2.0)):
            ell = min_iterations(alpha, eps)
            assert contraction_factor(alpha, eps, ell) < 1.0
            if ell > 1:
                assert contraction_factor(alpha, eps, ell - 1) >= 1.0


class TestNoCoupling:
    def test_coordinator_degenerates_to_noop(self):
        # a single agent with no shared rows: the dual space is empty and
        # the ascent leaves (nothing) unchanged while the inner solve
        # returns the unconstrained-coupling optimum
        from dsmpc.condense import condense_scenario
        from dsmpc.model import CouplingSpec, Scenario
        from conftest import make_axis_agent

        s = Scenario(agents=[make_axis_agent([0.4, -0.1])],
                     coupling=CouplingSpec([]), horizon=3, epsilon=0.5,
                     name="solo")
        g = condense_scenario(s)
        assert g.n_dual == 0
        run = run_ada(None, s.x0_stacked(), 4, g, s.epsilon)
        assert run.lam.size == 0 and run.mu.size == 0
        assert lipschitz_constant(g, 0.5) == pytest.approx(0.5)
        star = solve_centralized(g, s.x0_stacked(), s.epsilon)
        assert star.lam.size == 0
        assert star.kkt_residual <= 1e-9
