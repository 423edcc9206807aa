import gc
import json
import weakref

import numpy as np
import pytest

from dsmpc import oracle
from dsmpc.condense import condense_scenario
from dsmpc.coordinator import dual_cost, recovered_law
from dsmpc.errors import Infeasible, NoConvergence
from dsmpc.model import shift_to_target
from dsmpc.oracle import (_stacked_qp, feedback_laws, simulate_optimal_closed_loop,
                          solve_centralized, value_function)
from dsmpc.plant import make_disturbance, plant_step

from conftest import make_pair_scenario
from oracles import coupled_kkt_residual
from test_coordinator import stub_global


class TestSolveCentralized:
    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
    def test_rejects_eps_not_finite_nonnegative(self, formation3_global, eps):
        s, g = formation3_global
        with pytest.raises(ValueError, match="eps"):
            solve_centralized(g, s.x0_stacked(), eps)

    def test_residual_above_tolerance_refused(self, formation3_global,
                                              monkeypatch):
        # the recomputed residual is held to ORACLE_TOL itself, not to a
        # multiple of it
        s, g = formation3_global
        monkeypatch.setattr(oracle, "kkt_verdict", lambda *_: (2e-9, True))
        with pytest.raises(NoConvergence, match="2.000e-09"):
            solve_centralized(g, s.x0_stacked(), s.epsilon)

    def test_origin_is_free(self, pair_global):
        s, g = pair_global
        sol = solve_centralized(g, np.zeros(2), s.epsilon)
        assert np.allclose(sol.u, 0.0)
        assert np.allclose(sol.lam, 0.0)
        assert sol.value == 0.0

    def test_scalar_hand_kkt_regularized(self):
        # H=2, G=1, E=1, b=0.1, x=-2, eps=0.5: stationarity 2u + x + lam = 0
        # and u = b + eps lam at the active coupling row give
        # lam* = 0.9, u* = 0.55.
        g = stub_global([np.array([[2.0]])], [np.array([[1.0]])], b=[0.1],
                        G=1.0, W=2.0)
        x = np.array([-2.0])
        sol = solve_centralized(g, x, 0.5)
        assert sol.lam[0] == pytest.approx(0.9, abs=1e-9)
        assert sol.u[0] == pytest.approx(0.55, abs=1e-9)
        assert sol.kkt_residual <= 1e-9

    def test_scalar_hand_kkt_unregularized(self):
        # same instance at eps=0: u* = 0.1 pinned by the row, lam* = 1.8
        g = stub_global([np.array([[2.0]])], [np.array([[1.0]])], b=[0.1],
                        G=1.0, W=2.0)
        x = np.array([-2.0])
        sol = solve_centralized(g, x, 0.0)
        assert sol.u[0] == pytest.approx(0.1, abs=1e-10)
        assert sol.lam[0] == pytest.approx(1.8, abs=1e-9)
        # value includes the state-only term: 0.5*2*0.01 + 0.1*(-2) + 0.5*2*4
        assert sol.value == pytest.approx(3.81, abs=1e-9)

    def test_strong_duality_regularized(self, pair_global):
        s, g = pair_global
        x = s.x0_stacked()
        eps = s.epsilon
        sol = solve_centralized(g, x, eps)
        primal = sol.value + 0.5 * eps * float(sol.lam @ sol.lam)
        dual = -dual_cost(sol.lam, x, g, eps)
        assert primal - dual == pytest.approx(0.0, abs=1e-8)

    def test_regularization_path_shrinks(self, pair_global):
        s, g = pair_global
        x = s.x0_stacked()
        u0 = solve_centralized(g, x, 0.0).u
        errs = [np.linalg.norm(solve_centralized(g, x, eps).u - u0)
                for eps in (1e-1, 1e-2, 1e-3, 1e-4)]
        assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))
        assert errs[-1] < errs[0]

    def test_infeasible_state_detected(self, formation3_global):
        shifted, g = formation3_global
        x = shifted.x0_stacked().copy()
        x[1] = 50.0  # velocity far beyond what N steps of |u|<=1 can pin back
        with pytest.raises(Infeasible):
            solve_centralized(g, x, 0.0)

    def test_agent_permutation_consistency(self):
        # solving the mirrored scenario permutes the solution blocks
        s = make_pair_scenario(x0=(0.9, 0.4))
        g = condense_scenario(s)
        sol = solve_centralized(g, s.x0_stacked(), s.epsilon)
        s2 = make_pair_scenario(x0=(0.4, 0.9))
        g2 = condense_scenario(s2)
        sol2 = solve_centralized(g2, s2.x0_stacked(), s2.epsilon)
        k = g.agents[0].nu
        assert np.allclose(sol.u[:k], sol2.u[k:], atol=1e-8)
        assert np.allclose(sol.u[k:], sol2.u[:k], atol=1e-8)
        assert np.allclose(sol.lam, sol2.lam, atol=1e-8)

    def test_dual_lipschitz_probe(self, pair_global):
        s, g = pair_global
        eps = s.epsilon
        rng = np.random.default_rng(23)
        base = s.x0_stacked()
        ratios = []
        for _ in range(15):
            xa = base + rng.normal(scale=0.05, size=2)
            xb = base + rng.normal(scale=0.05, size=2)
            la = solve_centralized(g, xa, eps).lam
            lb = solve_centralized(g, xb, eps).lam
            d = np.linalg.norm(xa - xb)
            if d > 1e-9:
                ratios.append(np.linalg.norm(la - lb) / d)
        assert np.isfinite(max(ratios))


def formation3_states(shifted, n=3, seed=0):
    """formation3's x0 and n seeded states near it."""
    x0 = shifted.x0_stacked()
    rng = np.random.default_rng(seed)
    return [x0, *(x0 + rng.uniform(-0.02, 0.02, (n, x0.size)))]


class TestOneCertificate:
    # formation3's x0 and three seeded states near it, where a coupling row
    # is active; every eps, the unregularized one included, is certified by
    # the coupled problem's KKT residual
    @pytest.mark.parametrize("eps", [0.0, 1e-8, 1e-4, 0.05])
    def test_coupled_kkt_residual(self, formation3_global, eps):
        shifted, g = formation3_global
        for x in formation3_states(shifted):
            sol = solve_centralized(g, x, eps)
            res = coupled_kkt_residual(g, x, sol.u, sol.nu, sol.lam, eps)
            assert res <= 1e-9
            assert abs(res - sol.kkt_residual) <= 1e-12
            qp = _stacked_qp(g, eps)
            again = solve_centralized(g, x, eps)
            assert _stacked_qp(g, eps) is qp
            for a, b in ((sol.u, again.u), (sol.lam, again.lam),
                         (sol.nu, again.nu)):
                assert np.array_equal(a, b)


class TestFactorCache:
    # the oracle keeps the factor of each eps while its problem lives, and
    # drops them with the problem
    def test_a_live_problem_keeps_each_factor(self, formation3_global):
        shifted = formation3_global[0]
        g, x = condense_scenario(shifted), shifted.x0_stacked()
        kept = {}
        for eps in np.geomspace(1e-9, 1e-1, 10):
            solve_centralized(g, x, eps)
            kept[eps] = _stacked_qp(g, eps)
        assert all(_stacked_qp(g, eps) is qp for eps, qp in kept.items())

    def test_each_problem_builds_its_own_factor(self, formation3_global):
        shifted, g = formation3_global
        other, x = condense_scenario(shifted), shifted.x0_stacked()
        first, again = solve_centralized(g, x, 0.05), solve_centralized(other, x, 0.05)
        assert _stacked_qp(other, 0.05) is not _stacked_qp(g, 0.05)
        for a, b in ((first.u, again.u), (first.lam, again.lam),
                     (first.nu, again.nu)):
            assert np.array_equal(a, b)

    def test_factors_die_with_their_problem(self, formation3):
        # the benchmark's f3_verify set-up, five times over: condense, solve
        # at x0 at three eps, let go
        refs = []
        for _ in range(5):
            shifted = shift_to_target(formation3)
            g = condense_scenario(shifted)
            for eps in (0.0, 1e-4, 1e-8):
                solve_centralized(g, shifted.x0_stacked(), eps)
            refs.append(weakref.ref(g))
            del g
        gc.collect()
        assert [ref() for ref in refs] == [None] * 5


class TestSchemeAtTheOraclePrice:
    # the references the analysis takes from the oracle equal what the
    # scheme computes at the oracle's price: the first input block of the
    # regularized primal is the inner problems' law at lam_eps (strict
    # convexity), and the dual cost at lam_eps is
    # -(f(u_eps) + eps/2 ||lam_eps||^2) (strong duality)
    @pytest.mark.parametrize("eps", [1e-8, 1e-4, 0.05])
    def test_law_and_dual_cost(self, formation3_global, eps):
        shifted, g = formation3_global
        for x in formation3_states(shifted):
            sol = solve_centralized(g, x, eps)
            law = recovered_law(g, x, sol.lam)
            assert np.abs(law - g.first_inputs(sol.u)).max() <= 1e-9
            psi = -(sol.value + 0.5 * eps * float(sol.lam @ sol.lam))
            assert dual_cost(sol.lam, x, g, eps) == \
                pytest.approx(psi, rel=1e-9, abs=0.0)


def max_gap(a, b):
    return max(float(np.max(np.abs(p - q), initial=0.0))
               for p, q in ((a.u, b.u), (a.lam, b.lam), (a.nu, b.nu)))


class TestWarmStart:
    # a warm set only affects speed: every warm solve lands on the cold
    # solve's (u, lam, nu) at the same (x, eps)
    @pytest.mark.parametrize("eps", [1e-8, 1e-4, 0.05])
    def test_warm_from_unregularized_set_matches_cold(self, formation3_global,
                                                      eps):
        shifted, g = formation3_global
        for x in formation3_states(shifted):
            warm = solve_centralized(g, x, 0.0).active
            got = solve_centralized(g, x, eps, warm)
            assert max_gap(got, solve_centralized(g, x, eps)) <= 1e-12
            assert got.kkt_residual <= 1e-9

    @pytest.mark.parametrize("eps", [0.0, 1e-4])
    def test_wrong_warm_set_gives_cold_result(self, formation3_global, eps):
        # the set of 0.4 x0 (no coupling row active), every local row, and
        # the empty set
        shifted, g = formation3_global
        xs = formation3_states(shifted)
        k_loc = sum(ca.C.shape[0] for ca in g.agents)
        other = solve_centralized(g, 0.4 * xs[0], eps).active
        for x in xs[1:]:
            cold = solve_centralized(g, x, eps)
            assert other != cold.active
            for warm in (other, tuple(range(k_loc)), ()):
                assert max_gap(solve_centralized(g, x, eps, warm), cold) <= 1e-12

    def test_warm_set_keeps_infeasible(self, formation3_global):
        shifted, g = formation3_global
        x = shifted.x0_stacked().copy()
        warm = solve_centralized(g, x, 0.0).active
        x[1] = 50.0
        k_loc = sum(ca.C.shape[0] for ca in g.agents)
        for w in (warm, tuple(range(k_loc))):
            with pytest.raises(Infeasible):
                solve_centralized(g, x, 0.0, w)

    def test_chained_optimal_loop_matches_cold_loop(self, formation3,
                                                    monkeypatch):
        # each step starts from the previous step's set; the states agree
        # with a loop whose every solve is cold
        import dsmpc.oracle
        warms, sols = [], []

        def recording(g, x, eps, warm=None):
            warms.append(warm)
            sols.append(solve_centralized(g, x, eps, warm))
            return sols[-1]
        monkeypatch.setattr(dsmpc.oracle, "solve_centralized", recording)
        states = simulate_optimal_closed_loop(formation3, steps=20).states
        assert warms == [None] + [sol.active for sol in sols[:-1]]
        shifted = shift_to_target(formation3)
        g = condense_scenario(shifted)
        xbar, _ = shifted.shift
        x = shifted.x0_stacked()
        cold = [x + xbar]
        for _ in range(20):
            u0 = g.first_inputs(solve_centralized(g, x, 0.0).u)
            x = plant_step(x, u0, np.zeros(x.size), shifted.agents)
            cold.append(x + xbar)
        assert np.max(np.abs(states - np.array(cold))) <= 1e-9


class TestOptimalClosedLoop:
    """The oracle's law in the plant's step loop: a trace, disturbance and
    truncation on the same terms as the scheme's loop."""

    def test_trace_of_the_oracle_law(self, formation3_global):
        shifted, g = formation3_global
        tr = simulate_optimal_closed_loop(shifted, steps=4, eps=1e-4)
        sol = solve_centralized(g, shifted.x0_stacked(), 1e-4)
        assert (tr.ell, tr.alpha, tr.epsilon) == (None, None, 1e-4)
        assert tr.dual_diagnostics == [] and tr.inner_solves == {}
        assert np.array_equal(tr.prices[0], sol.lam)
        assert np.array_equal(tr.inputs[0], g.first_inputs(sol.u))
        assert tr.replay_residual(shifted.agents) <= 1e-12
        assert json.loads(json.dumps(tr.metadata()))["ell"] is None

    def test_disturbed_unregularized_loop_truncates(self, formation3):
        # the draw that pushes the eps = 0 loop out of its feasible set after
        # one step; the regularized loop at the scenario's eps stays feasible
        dist = make_disturbance("uniform", 0.01 * np.ones(formation3.n_total),
                                seed=0)
        tr = simulate_optimal_closed_loop(formation3, steps=60, dist=dist)
        assert tr.infeasible_at == 1 and tr.steps == 1
        assert tr.states.shape == (2, formation3.n_total)
        assert np.array_equal(tr.disturbances, dist.realize(1))
        assert tr.replay_residual(formation3.agents) <= 1e-12
        reg = simulate_optimal_closed_loop(formation3, steps=60,
                                           eps=formation3.epsilon, dist=dist)
        assert reg.infeasible_at is None and reg.steps == 60


class TestValueFunction:
    def test_zero_at_origin(self, pair_global):
        _, g = pair_global
        assert value_function(g, np.zeros(2)) == 0.0

    def test_lower_bound(self, pair_global):
        s, g = pair_global
        rng = np.random.default_rng(31)
        lam_min_q = 1.0  # Q = I for both agents
        for _ in range(10):
            x = rng.normal(scale=0.4, size=2)
            phi = value_function(g, x)
            assert phi >= np.sqrt(0.5 * lam_min_q) * np.linalg.norm(x) - 1e-9

    def test_decreases_along_optimal_loop(self, formation3):
        states = simulate_optimal_closed_loop(formation3, steps=12).states
        shifted = shift_to_target(formation3)
        g = condense_scenario(shifted)
        xbar, _ = shifted.shift
        phis = [value_function(g, states[t] - xbar) for t in range(13)]
        for a, b in zip(phis, phis[1:]):
            if a > 1e-6:
                assert b < a


class TestFeedbackLaws:
    def test_zero_at_origin(self, pair_global):
        s, g = pair_global
        k, ke = feedback_laws(g, np.zeros(2), s.epsilon)
        assert np.allclose(k, 0.0) and np.allclose(ke, 0.0)

    def test_unconstrained_region_matches_direct_solve(self, pair_global):
        s, g = pair_global
        x = np.array([-0.05, 0.04])  # nothing active this close to origin
        k, ke = feedback_laws(g, x, 1e-8)
        expect = []
        for ca, xi in zip(g.agents, g.split_states(x)):
            expect.append(np.linalg.solve(ca.H, -(ca.G @ xi))[: ca.m])
        expect = np.concatenate(expect)
        assert np.allclose(k, expect, atol=1e-9)
        assert np.allclose(ke, expect, atol=1e-7)

    def test_small_eps_laws_close(self, formation3_global):
        shifted, g = formation3_global
        x = shifted.x0_stacked()
        k, ke = feedback_laws(g, x, 1e-8)
        assert np.linalg.norm(k - ke) <= 1e-3 * np.linalg.norm(x)

    def test_regularized_solve_starts_from_unregularized_set(
            self, formation3_global, monkeypatch):
        import dsmpc.oracle
        shifted, g = formation3_global
        calls, sols = [], []

        def recording(g, x, eps, warm=None):
            calls.append((eps, warm))
            sols.append(solve_centralized(g, x, eps, warm))
            return sols[-1]
        monkeypatch.setattr(dsmpc.oracle, "solve_centralized", recording)
        feedback_laws(g, shifted.x0_stacked(), 1e-4)
        assert calls == [(0.0, None), (1e-4, sols[0].active)]
        assert sols[1].iters == 0
