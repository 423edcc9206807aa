import numpy as np
import pytest

from dsmpc.condense import (build_coupling, condense_agent, condense_scenario,
                            eval_condensed_cost)
from dsmpc.errors import DimensionError
from dsmpc.model import (AgentModel, CouplingSpec, Polytope, Scenario,
                         shift_to_target)

from conftest import make_axis_agent, make_pair_scenario
from oracles import sparse_cost, stage_coupling_residuals


def scalar_agent(A=1.0, B=1.0, Q=1.0, R=1.0, P=1.0):
    return AgentModel(
        A=[[A]], B=[[B]], Q=[[Q]], R=[[R]], P=[[P]],
        input_poly=Polytope.unconstrained(1),
        state_poly=Polytope.unconstrained(1),
        terminal_poly=Polytope.unconstrained(1), terminal_equality=False,
        disturbance_bound=[0.0], x0=[0.0], name="s",
    )


class TestCondenseAgent:
    def test_scalar_horizon_one_blocks(self):
        # hand expansion: cost = 0.5 (Q x^2 + R u^2 + P (x+u)^2)
        #               = 0.5 (2 u^2 + 2 u x + 2 x^2)
        ca = condense_agent(scalar_agent(), 1)
        assert ca.H[0, 0] == pytest.approx(2.0)
        assert ca.G[0, 0] == pytest.approx(1.0)
        assert ca.W[0, 0] == pytest.approx(2.0)

    def test_zero_input_map_decouples(self):
        ca = condense_agent(scalar_agent(B=0.0), 3)
        assert np.allclose(ca.H, np.eye(3))  # only the input weight survives
        assert np.allclose(ca.G, 0.0)

    def test_cost_matches_rollout(self):
        agent = make_axis_agent([0.0, 0.0])
        N = 4
        ca = condense_agent(agent, N)
        rng = np.random.default_rng(7)
        for _ in range(20):
            u = rng.normal(size=N)
            x = rng.normal(size=2)
            cond = 0.5 * u @ ca.H @ u + u @ (ca.G @ x) + 0.5 * x @ ca.W @ x
            roll = sparse_cost([agent], N, u, x)
            assert cond == pytest.approx(roll, rel=1e-10, abs=1e-12)

    def test_hessian_positive_definite(self, formation3):
        shifted = shift_to_target(formation3)
        for agent in shifted.agents:
            ca = condense_agent(agent, formation3.horizon)
            np.linalg.cholesky(ca.H)  # raises if not PD

    def test_prediction_consistency(self):
        agent = make_axis_agent([0.3, -0.2])
        N = 5
        ca = condense_agent(agent, N)
        rng = np.random.default_rng(1)
        u = rng.normal(size=N)
        x = np.array([0.3, -0.2])
        stacked = ca.Ahat @ x + ca.Bhat @ u
        state = x.copy()
        for k in range(N):
            assert np.allclose(stacked[2 * k:2 * k + 2], state, atol=1e-12)
            state = agent.A @ state + agent.B @ u[[k]]
        assert np.allclose(stacked[2 * N:], state, atol=1e-12)

    def test_local_row_ordering(self):
        # inputs (N rows) on top, then state rows, then terminal rows
        agent = AgentModel(
            A=[[0.5]], B=[[1.0]], Q=[[1.0]], R=[[1.0]], P=[[1.0]],
            input_poly=Polytope.box([-2.0], [2.0]),
            state_poly=Polytope.box([-3.0], [3.0]),
            terminal_poly=Polytope.box([-0.5], [0.5]), terminal_equality=False,
            disturbance_bound=[0.0], x0=[0.0], name="rows",
        )
        N = 2
        ca = condense_agent(agent, N)
        q_u = agent.input_poly.rows
        assert ca.C.shape[0] == N * q_u + N * agent.state_poly.rows + 2
        assert np.allclose(ca.C[: N * q_u], np.kron(np.eye(N), agent.input_poly.C))
        assert np.allclose(ca.D[: N * q_u], 0.0)
        assert np.allclose(ca.c[: N * q_u], np.tile(agent.input_poly.c, N))


class TestBuildCoupling:
    def test_pairwise_abs_rows_expand(self):
        # |p1 - p2| <= 1 componentwise on a 2-coordinate selector:
        # 2 coordinates x 2 signs = 4 rows per horizon stage
        spec = CouplingSpec.from_list(
            [{"abs_state_diff": {"agents": [0, 1],
                                 "select": [[1, 0], [0, 1]],
                                 "bound": [1.0, 1.0]}}],
            [make_axis_agent([0, 0]), make_axis_agent([0, 0])],
        )
        assert spec.p == 4

    def test_three_agent_complete_graph_row_count(self, formation3):
        assert formation3.coupling.p == 12  # 3 pairs x 2 coords x 2 signs

    def test_empty_coupling_zero_rows(self):
        agents = [make_axis_agent([0, 0])]
        spec = CouplingSpec.from_list([], agents)
        cas = [condense_agent(agents[0], 3)]
        E, F, b = build_coupling(*spec.stage_matrices(agents), spec.bbar, cas)
        assert E[0].shape == (0, 3) and F[0].shape == (0, 2) and b.size == 0

    def test_stacked_rows_match_stagewise_rollout(self, formation3):
        # E u + F x <= b holds iff every predicted stage 1..N satisfies the
        # shared-resource rows (brute-force rollout check)
        shifted = shift_to_target(formation3)
        g = condense_scenario(shifted)
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = rng.normal(scale=0.5, size=sum(ca.nu for ca in g.agents))
            x = rng.normal(scale=0.5, size=g.n_total)
            stacked = sum(ca.F @ xi + ca.E @ ui for ca, xi, ui in zip(
                g.agents, g.split_states(x), g.split_inputs(u))) - g.b
            staged = stage_coupling_residuals(shifted, u, x)
            assert np.allclose(stacked.reshape(g.N, g.p_stage), staged, atol=1e-9)

    def test_b_is_stage_tiled(self, formation3_global):
        _, g = formation3_global
        assert np.allclose(g.b, np.tile(g.bbar, g.N))


class TestEvalCondensedCost:
    def test_zero_is_zero(self, pair_global):
        _, g = pair_global
        assert eval_condensed_cost(g, np.zeros(6), np.zeros(2)) == 0.0

    def test_scalar_instance_hand_value(self):
        agent = scalar_agent()
        s = Scenario(agents=[agent], coupling=CouplingSpec([]), horizon=1,
                     epsilon=0.5, iterations=1, sim_steps=1, name="one")
        g = condense_scenario(s)
        # 0.5 (H + 2 G + W) at u = x = 1, which equals the rollout value 3
        val = eval_condensed_cost(g, np.ones(1), np.ones(1))
        assert val == pytest.approx(0.5 * (2 + 2 * 1 + 2))
        assert val == pytest.approx(sparse_cost([agent], 1, np.ones(1), np.ones(1)))

    def test_matches_rollout_formation3(self, formation3):
        shifted = shift_to_target(formation3)
        g = condense_scenario(shifted)
        rng = np.random.default_rng(11)
        for _ in range(25):
            u = rng.normal(size=sum(ca.nu for ca in g.agents))
            x = rng.normal(size=g.n_total)
            cond = eval_condensed_cost(g, u, x)
            roll = sparse_cost(shifted.agents, g.N, u, x)
            assert cond == pytest.approx(roll, rel=1e-10)

    def test_dimension_error(self, pair_global):
        _, g = pair_global
        with pytest.raises(DimensionError):
            eval_condensed_cost(g, np.zeros(5), np.zeros(2))


class TestPairScenario:
    def test_coupling_active_shape(self):
        s = make_pair_scenario()
        g = condense_scenario(s)
        assert g.p_stage == 1 and g.n_dual == s.horizon
