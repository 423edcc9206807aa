import numpy as np
import pytest

from dsmpc.condense import condense_agent, condense_scenario, eval_condensed_cost
from dsmpc.errors import DimensionError
from dsmpc.model import (AgentModel, CouplingRow, CouplingSpec, Polytope,
                         Scenario, shift_to_target)

from conftest import make_axis_agent, make_pair_scenario
from oracles import condensed_by_rollout, sparse_cost, stage_coupling_residuals


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

    def test_horizon_zero_refused(self):
        with pytest.raises(DimensionError, match="horizon"):
            condense_agent(scalar_agent(), 0)

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


def general_agent(rng, n, m, name, terminal="polytope"):
    """A random agent with an input box, a state box and either a random
    terminal polytope or a terminal equality."""
    A = np.eye(n) + 0.3 * rng.normal(size=(n, n)) / np.sqrt(n)
    if terminal == "equality":
        terminal_poly = Polytope(np.vstack([np.eye(n), -np.eye(n)]), np.zeros(2 * n))
    else:
        terminal_poly = Polytope(rng.normal(size=(n + 1, n)), rng.uniform(1, 2, n + 1))
    return AgentModel(
        A=A, B=rng.normal(size=(n, m)), Q=np.eye(n) + np.diag(rng.uniform(0, 1, n)),
        R=np.diag(rng.uniform(0.5, 1.5, m)),
        P=np.zeros((n, n)) if terminal == "equality" else 2.0 * np.eye(n),
        input_poly=Polytope.box(-np.ones(m), np.ones(m)),
        state_poly=Polytope.box(-3.0 * np.ones(n), 3.0 * np.ones(n)),
        terminal_poly=terminal_poly, terminal_equality=terminal == "equality",
        disturbance_bound=np.zeros(n), x0=np.zeros(n), name=name,
    )


def mixed_scenario(layout, p, seed=0, N=4):
    """Agents of the shapes in `layout` ("axis", "poly" or "eq", in that
    order in the scenario) and p coupling rows, each with random input and
    state blocks on three random agents."""
    rng = np.random.default_rng(seed)
    agents = [make_axis_agent([0.0, 0.0], name=f"a{i}") if kind == "axis" else
              general_agent(rng, 3, 2, f"a{i}",
                            "equality" if kind == "eq" else "polytope")
              for i, kind in enumerate(layout)]
    rows = []
    for _ in range(p):
        on = rng.choice(len(agents), size=min(3, len(agents)), replace=False)
        rows.append(CouplingRow({int(i): rng.normal(size=agents[i].m) for i in on},
                                {int(i): rng.normal(size=agents[i].n) for i in on},
                                float(rng.uniform(1, 2))))
    return Scenario(agents=agents, coupling=CouplingSpec(rows), horizon=N,
                    epsilon=0.1, name="mixed")


class TestStackedCondensation:
    """condense_scenario condenses each agent shape in one stacked pass; each
    agent's blocks must equal an explicit per-agent rollout."""

    @staticmethod
    def assert_matches(g, scenario):
        assert [ca.index for ca in g.agents] == list(range(len(scenario.agents)))
        assert [ca.name for ca in g.agents] == [a.name for a in scenario.agents]
        for i, (ca, agent) in enumerate(zip(g.agents, scenario.agents)):
            ref = condensed_by_rollout(agent, scenario.horizon,
                                       scenario.coupling.rows, i)
            for key in ("H", "G", "W", "C", "D", "c", "E", "F", "Ahat", "Bhat"):
                got = getattr(ca, key)
                assert got.shape == ref[key].shape, (i, key)
                scale = max(1.0, np.abs(ref[key]).max(initial=0.0))
                assert np.abs(got - ref[key]).max(initial=0.0) <= 1e-12 * scale, (i, key)
            assert g.coupling_norms[i] == pytest.approx(ref["norm"], rel=1e-12,
                                                        abs=1e-14)

    @pytest.mark.parametrize("p", [0, 3])
    def test_mixed_shapes_match_rollout(self, p):
        s = mixed_scenario(["axis", "poly", "axis", "eq", "poly", "axis"], p)
        g = condense_scenario(s)
        assert sorted(grp.idx for grp in g.groups) == [[0, 2, 5], [1, 4], [3]]
        assert (p == 0) == (max(g.coupling_norms) == 0.0)
        self.assert_matches(g, s)

    def test_one_agent_matches_rollout(self):
        s = mixed_scenario(["poly"], 2, seed=1)
        self.assert_matches(condense_scenario(s), s)

    def test_condense_agent_is_the_uncoupled_case(self):
        s = mixed_scenario(["eq"], 0, seed=2)
        ca = condense_agent(s.agents[0], s.horizon, index=4)
        ref = condensed_by_rollout(s.agents[0], s.horizon, [], 0)
        assert ca.index == 4 and ca.E.shape == (0, ca.nu) and ca.F.shape == (0, 3)
        for key in ("H", "G", "W", "C", "D", "c", "Ahat", "Bhat"):
            assert np.allclose(getattr(ca, key), ref[key], rtol=0, atol=1e-12)


class TestBuildCoupling:
    def test_pairwise_abs_rows_expand(self):
        # |p1 - p2| <= 1 componentwise on a 2-coordinate selector:
        # 2 coordinates x 2 signs = 4 rows per horizon stage
        spec = CouplingSpec.from_list(
            [{"abs_state_diff": {"agents": [0, 1],
                                 "select": [[1, 0], [0, 1]],
                                 "bound": [1.0, 1.0]}}])
        assert spec.p == 4

    def test_three_agent_complete_graph_row_count(self, formation3):
        assert formation3.coupling.p == 12  # 3 pairs x 2 coords x 2 signs

    def test_empty_coupling_zero_rows(self):
        agents = [make_axis_agent([0, 0])]
        s = Scenario(agents=agents, coupling=CouplingSpec.from_list([]),
                     horizon=3, epsilon=0.1, name="alone")
        g = condense_scenario(s)
        ca = g.agents[0]
        assert ca.E.shape == (0, 3) and ca.F.shape == (0, 2) and g.b.size == 0

    def test_stacked_rows_match_stagewise_rollout(self, formation3):
        # E u + F x <= b holds iff every predicted stage 1..N satisfies the
        # shared-resource rows (brute-force rollout check)
        shifted = shift_to_target(formation3)
        g = condense_scenario(shifted)
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = rng.normal(scale=0.5, size=sum(ca.nu for ca in g.agents))
            x = rng.normal(scale=0.5, size=g.n_total)
            us = np.split(u, np.cumsum([ca.nu for ca in g.agents])[:-1])
            stacked = sum(ca.F @ xi + ca.E @ ui for ca, xi, ui in zip(
                g.agents, g.split_states(x), us)) - g.b
            staged = stage_coupling_residuals(shifted, u, x)
            assert np.allclose(stacked.reshape(g.N, g.p_stage), staged, atol=1e-9)

    def test_b_is_stage_tiled(self, formation3_global):
        shifted, g = formation3_global
        assert np.allclose(g.b, np.tile(shifted.stage[2], g.N))


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

    def test_matches_rollout_mixed_shapes(self):
        s = mixed_scenario(["axis", "poly", "axis", "eq", "poly", "axis"], 3)
        g = condense_scenario(s)
        assert len(g.groups) == 3
        rng = np.random.default_rng(12)
        for _ in range(10):
            u = rng.normal(size=sum(ca.nu for ca in g.agents))
            x = rng.normal(size=g.n_total)
            cond = eval_condensed_cost(g, u, x)
            assert cond == pytest.approx(sparse_cost(s.agents, g.N, u, x),
                                         rel=1e-10)

    def test_dimension_error(self, pair_global):
        _, g = pair_global
        with pytest.raises(DimensionError):
            eval_condensed_cost(g, np.zeros(5), np.zeros(2))
        with pytest.raises(DimensionError):
            eval_condensed_cost(g, np.zeros(6), np.zeros(3))


class TestPairScenario:
    def test_coupling_active_shape(self):
        s = make_pair_scenario()
        g = condense_scenario(s)
        assert g.p_stage == 1 and g.n_dual == s.horizon


class TestIdentity:
    # the condensed values compare and hash by identity, as the model values
    # do, so they can key a cache; their array fields are never compared
    def test_equality_is_identity(self):
        s = make_pair_scenario()
        g, h = condense_scenario(s), condense_scenario(s)
        ca, cb = g.agents[0], h.agents[0]
        assert (g == h) is False and g == g and g != h
        assert (ca == cb) is False and ca == ca and ca != cb

    def test_both_types_hash(self):
        g = condense_scenario(make_pair_scenario())
        values = (g, *g.agents)
        assert len({hash(v) for v in values}) == 3
        assert {v: k for k, v in enumerate(values)}[g.agents[1]] == 2
