import json
import time
from dataclasses import FrozenInstanceError, fields, replace
from operator import setitem

import numpy as np
import pytest

from dsmpc.condense import condense_scenario
from dsmpc.errors import (DimensionError, NoConvergence, NotEquilibrium,
                          ParseError)
from dsmpc.model import (AgentModel, CouplingRow, CouplingSpec, Polytope,
                         Scenario, _matrix, _vector, load_scenario,
                         save_scenario, shift_to_target, solve_dare,
                         validate_assumptions)
from dsmpc.plant import simulate_closed_loop
from dsmpc.scenarios import load

from conftest import (every_agent_doc, formation3_doc, make_pair_scenario,
                      terminal_box_doc, unstabilizable_doc)
from oracles import condensed_by_rollout, controllable, golden_ratio


class TestSolveDare:
    def test_memoryless_plant_returns_state_weight(self):
        P, K = solve_dare([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        assert P[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert K[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_scalar_integrator_matches_quadratic_root(self):
        # fixed point satisfies P^2 - P - 1 = 0
        P, K = solve_dare([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert P[0, 0] == pytest.approx(golden_ratio(), abs=1e-10)
        assert abs(P[0, 0] ** 2 - P[0, 0] - 1.0) < 1e-9
        assert K[0, 0] == pytest.approx(golden_ratio() - 1.0, abs=1e-10)

    def test_double_integrator_residual(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[0.0], [1.0]])
        Q, R = np.eye(2), np.array([[1.0]])
        P, K = solve_dare(A, B, Q, R)
        BtP = B.T @ P
        K2 = np.linalg.solve(R + BtP @ B, BtP @ A)
        resid = A.T @ P @ A - (A.T @ P @ B) @ K2 + Q - P
        assert np.linalg.norm(resid, "fro") <= 1e-10
        # decrease inequality of the standing assumptions holds with equality
        Acl = A - B @ K
        M = Acl.T @ P @ Acl - P + Q + K.T @ R @ K
        assert np.linalg.eigvalsh(M).max() <= 1e-8

    def test_unstabilizable_pair_raises(self):
        with pytest.raises(NoConvergence):
            solve_dare([[2.0]], [[0.0]], [[1.0]], [[1.0]])

    def test_uncontrollable_unit_circle_mode_fails_fast(self):
        # the second mode of A = I sits on the unit circle and B cannot reach it
        tic = time.perf_counter()
        with pytest.raises(NoConvergence):
            solve_dare(np.eye(2), [[1.0], [0.0]], np.eye(2), [[1.0]])
        assert time.perf_counter() - tic < 0.5


class TestLoadScenario:
    def test_formation3_loads(self, formation3):
        assert len(formation3.agents) == 3
        for a in formation3.agents:
            assert (a.n, a.m) == (4, 2)
        assert formation3.horizon == 10
        # 3 pairs x 2 coordinates x 2 signs
        assert formation3.coupling.p == 12

    def test_deterministic(self, formation3_path):
        s1 = load_scenario(formation3_path)
        s2 = load_scenario(formation3_path)
        assert s1.digest() == s2.digest()
        assert np.array_equal(s1.x0_stacked(), s2.x0_stacked())

    def test_empty_agents_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"agents": [], "horizon": 3, "epsilon": 0.1}))
        with pytest.raises(ValueError):
            load_scenario(path)

    def test_wrong_b_rows_rejected(self, tmp_path, formation3_path):
        doc = json.loads(open(formation3_path).read())
        doc["agents"][0]["B"] = [[0.0, 0.0], [1.0, 0.0]]  # 2 rows, expected 4
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DimensionError):
            load_scenario(path)

    def test_bad_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(path)

    def test_nonpositive_epsilon_rejected(self, tmp_path, formation3_path):
        doc = json.loads(open(formation3_path).read())
        doc["epsilon"] = 0.0
        path = tmp_path / "eps.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_scenario(path)

    def test_roundtrip_through_save(self, tmp_path, formation3):
        path = tmp_path / "copy.json"
        save_scenario(formation3, path)
        again = load_scenario(path)
        assert again.digest() == formation3.digest()


class TestNonFinite:
    def test_matrix_nan_names_field(self):
        with pytest.raises(ParseError, match=r"agents\[0\]\.A"):
            _matrix([[1.0, float("nan")]], "agents[0].A")

    def test_vector_inf_names_field(self):
        with pytest.raises(ParseError, match="x0"):
            _vector([0.0, float("inf")], "agent a: x0")

    def test_scenario_with_nan_names_agent_and_field(self, tmp_path,
                                                     formation3_path):
        doc = json.loads(open(formation3_path).read())
        doc["agents"][0]["A"][0][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # written as the JSON literal NaN
        with pytest.raises(ParseError, match=r": A: non-finite"):
            load_scenario(path)

    @pytest.mark.parametrize("key,value", [
        ("epsilon", float("nan")), ("epsilon", float("inf")),
        ("horizon", float("inf")), ("iterations", float("inf")),
        ("sim_steps", float("inf")), ("seed", float("inf")),
        ("seed", float("nan")), ("horizon", True), ("horizon", "10"),
    ])
    def test_non_finite_header_value_rejected(self, tmp_path, formation3_path,
                                              key, value):
        doc = json.loads(open(formation3_path).read())
        doc[key] = value
        path = tmp_path / "header.json"
        path.write_text(json.dumps(doc))  # JSON literals NaN / Infinity
        with pytest.raises(ValueError, match=key):
            load_scenario(path)

    @pytest.mark.parametrize("value", [None, [0.1], {"eps": 0.1}, "small",
                                       "0.1", True])
    def test_non_numeric_epsilon_is_parse_error(self, tmp_path,
                                                formation3_path, value):
        doc = json.loads(open(formation3_path).read())
        doc["epsilon"] = value
        path = tmp_path / "eps.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="epsilon"):
            load_scenario(path)

    @pytest.mark.parametrize("key,value", [("horizon", 2.5), ("horizon", "3"),
                                           ("seed", True), ("epsilon", "0.1")])
    def test_direct_construction_checks_header(self, formation3, key, value):
        # the constructor checks the header, so a changed copy is checked
        # like a loaded file
        with pytest.raises(ParseError, match=key):
            replace(formation3, **{key: value})


class TestValidateAssumptions:
    def test_formation3_passes(self, formation3):
        report = validate_assumptions(formation3)
        assert report.passed

    def test_scalar_integrator_stabilizable(self):
        # cross-check the Riccati-based test against the Kalman rank test
        assert controllable([[1.0]], [[1.0]])
        s = Scenario.from_dict({
            "name": "scalar", "horizon": 2, "epsilon": 0.5,
            "agents": [{
                "A": [[1.0]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
                "input_poly": {"box": [[-1.0], [1.0]]},
                "x0": [0.0],
            }],
            "coupling": [],
        })
        report = validate_assumptions(s)
        assert report.by_item(0, "stabilizable").passed

    def test_semidefinite_weight_fails(self):
        s = Scenario.from_dict({
            "name": "bad_q", "horizon": 2, "epsilon": 0.5,
            "agents": [{
                "A": [[1.0, 1.0], [0.0, 1.0]], "B": [[0.0], [1.0]],
                "Q": [[1.0, 0.0], [0.0, 0.0]], "R": [[1.0]],
                "input_poly": {"box": [[-1.0], [1.0]]},
                "x0": [0.0, 0.0],
            }],
            "coupling": [],
        })
        report = validate_assumptions(s)
        assert not report.by_item(0, "weights_pd").passed

    def test_origin_outside_input_set_fails(self):
        s = Scenario.from_dict({
            "name": "bad_u", "horizon": 2, "epsilon": 0.5,
            "agents": [{
                "A": [[0.5]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
                # u <= -1: the origin is not admissible
                "input_poly": {"C": [[1.0]], "c": [-1.0]},
                "x0": [0.0],
            }],
            "coupling": [],
        })
        report = validate_assumptions(s)
        assert not report.by_item(0, "origin_interior").passed


class TestInteriorAtTarget:
    """The regularity conditions put the target equilibrium, the origin of
    the shifted coordinates, strictly inside the local sets; formation3's
    targets lie 2 to 4 away from the origin."""

    @staticmethod
    def report(box):
        # formation3 without coupling, each agent's state set box(target)
        doc = formation3_doc()
        for agent in doc["agents"]:
            agent["state_poly"] = {"box": box(np.array(agent["target"]))}
        doc["coupling"] = []
        return validate_assumptions(Scenario.from_dict(doc))

    def test_box_around_target_passes(self):
        assert self.report(lambda t: [(t - 1).tolist(), (t + 1).tolist()]).passed

    def test_box_around_origin_fails(self):
        report = self.report(lambda t: [[-1.0] * 4, [1.0] * 4])
        failed = [(c.agent, c.item) for c in report.checks if not c.passed]
        assert failed == [(i, "origin_interior") for i in range(3)]
        assert report.by_item(0, "origin_interior").detail == \
            "target not strictly inside the local sets"

    def test_target_off_equilibrium_reported_not_raised(self):
        doc = formation3_doc(target=[3.6, 0.5, 2.0, 0.0])  # moving at 0.5
        report = validate_assumptions(Scenario.from_dict(doc))
        failed = [(c.agent, c.item) for c in report.checks if not c.passed]
        assert failed == [(0, "origin_interior")]
        assert "agent agent1: target is not an equilibrium" in \
            report.by_item(0, "origin_interior").detail


class TestNoneIsTheFilesNull:
    """An agent built with None gets what a file's null gives."""

    def test_P_none_is_the_riccati_solution(self, formation3):
        a = formation3.agents[0]
        free = replace(a, P=None, terminal_equality=False, terminal_poly=None)
        assert np.array_equal(free.terminal_cost, solve_dare(a.A, a.B, a.Q, a.R)[0])
        assert free.terminal_set.rows == 0 and free.terminal_set.dim == 4

    def test_terminal_equality_pins_the_target(self, formation3):
        a = formation3.agents[0]
        pinned = replace(a, P=None, terminal_poly=None)
        box = Polytope.box(a.target, a.target)
        assert np.array_equal(pinned.terminal_cost, np.zeros((4, 4)))
        assert np.array_equal(pinned.terminal_set.C, box.C)
        assert np.array_equal(pinned.terminal_set.c, box.c)

    def test_none_and_zero_rows_are_the_whole_space(self, formation3):
        a = replace(formation3.agents[0], input_poly=Polytope([], []),
                    state_poly=None, x0=None, disturbance_bound=None)
        for poly, dim in ((a.input_poly, 2), (a.state_poly, 4)):
            assert (poly.rows, poly.dim) == (0, dim)
        assert not a.x0.any() and not a.disturbance_bound.any()
        assert a.x0.shape == a.disturbance_bound.shape == (4,)


class TestReplaceDerivesAgain:
    """`replace` derives an agent's terminal cost and set again from the new
    fields, as a fresh load of the same content does; given ones are kept."""

    def test_new_weights_get_their_riccati_P(self):
        s = Scenario.from_dict(every_agent_doc(terminal={"mode": "none"}))
        doc = every_agent_doc(terminal={"mode": "none"})
        for agent in doc["agents"]:
            agent["Q"] = (10 * np.array(agent["Q"])).tolist()
        fresh = Scenario.from_dict(doc)
        t = replace(s, agents=[replace(a, Q=10 * a.Q) for a in s.agents])
        for a, b in zip(t.agents, fresh.agents):
            assert a.P is None and b.P is None
            assert np.array_equal(a.terminal_cost, b.terminal_cost)
        assert t.digest() == fresh.digest()
        assert validate_assumptions(t).passed and validate_assumptions(fresh).passed

    def test_moved_target_moves_the_terminal_box(self, formation3):
        a = formation3.agents[0]
        target = a.target + np.array([0.3, 0.0, 0.0, 0.0])
        fresh = Scenario.from_dict(formation3_doc(target=target.tolist())).agents[0]
        moved = replace(a, target=target)
        assert moved.terminal_poly is None
        for key in "Cc":
            assert np.array_equal(getattr(moved.terminal_set, key),
                                  getattr(fresh.terminal_set, key))

    @pytest.mark.parametrize("equality", [True, False])
    def test_given_terminal_data_is_kept(self, formation3, equality):
        a = formation3.agents[0]
        P, box = 2.0 * np.eye(4), Polytope.box(a.target - 0.5, a.target + 0.5)
        given = replace(a, P=P, terminal_poly=box, terminal_equality=equality)
        for t in (replace(given, Q=10 * a.Q),
                  replace(given, target=a.target + np.array([0.3, 0.0, 0.0, 0.0]))):
            assert np.array_equal(t.P, P) and np.array_equal(t.terminal_cost, P)
            assert t.terminal_poly is box and t.terminal_set is box


class TestTerminalPolytope:
    """The "polytope" terminal mode: a box around agent 0's target."""

    def test_loads_and_keeps_digest_through_save(self, tmp_path):
        s = Scenario.from_dict(terminal_box_doc())
        agent = s.agents[0]
        assert not agent.terminal_equality and agent.terminal_poly.rows == 8
        assert agent.to_dict()["terminal"]["mode"] == "polytope"
        path = tmp_path / "box.json"
        save_scenario(s, path)
        again = load_scenario(path)
        assert again.digest() == s.digest() != load("formation3").digest()
        assert again.agents[0].terminal_poly.rows == 8

    def test_validates_with_invariance_warning(self):
        report = validate_assumptions(Scenario.from_dict(terminal_box_doc()))
        assert report.passed
        assert report.warnings == [
            "agent 0: invariance of the supplied terminal polytope is taken "
            "on faith"]

    def test_condensed_terminal_rows_match_rollout(self):
        shifted = shift_to_target(Scenario.from_dict(terminal_box_doc()))
        ca = condense_scenario(shifted).agents[0]
        ref = condensed_by_rollout(shifted.agents[0], shifted.horizon,
                                   shifted.coupling.rows, 0)
        for key in ("C", "D", "c"):
            assert getattr(ca, key).shape == ref[key].shape, key
            assert np.abs(getattr(ca, key) - ref[key]).max() <= 1e-12, key

    def test_closed_loop_runs(self):
        tr = simulate_closed_loop(Scenario.from_dict(terminal_box_doc()),
                                  steps=5)
        assert tr.infeasible_at is None and tr.states.shape == (6, 12)
        assert np.all(np.isfinite(tr.states))


class TestFailedAssumptions:
    def test_unstabilizable_agent_reported_not_raised(self):
        report = validate_assumptions(Scenario.from_dict(unstabilizable_doc()))
        assert not report.passed
        failed = [(c.agent, c.item) for c in report.checks if not c.passed]
        assert failed == [(0, "stabilizable"), (0, "terminal_decrease")]
        assert report.by_item(0, "terminal_decrease").detail == \
            "no Riccati solution available"

    @pytest.mark.parametrize("P, passed, top", [
        (np.zeros((4, 4)), False, "2.726e+00"), (0.5 * np.eye(4), False, "3.182e+00"),
        (None, True, None)], ids=["zero", "half", "null"])
    def test_terminal_decrease_at_the_P_in_use(self, P, passed, top):
        # the decrease is checked at the terminal cost the controller uses,
        # a given P that is not positive definite included
        s = Scenario.from_dict(every_agent_doc(
            terminal={"mode": "none"}, P=None if P is None else P.tolist()))
        report = validate_assumptions(s)
        assert report.passed == passed
        for i in range(3):
            check = report.by_item(i, "terminal_decrease")
            assert check.passed == passed
            if top is not None:
                assert check.detail == f"max eig of decrease residual = {top}"


class TestShiftToTarget:
    def test_zero_target_is_identity(self, pair_scenario):
        shifted = shift_to_target(pair_scenario)
        xbar, ubar = shifted.shift
        assert np.all(xbar == 0.0) and np.all(ubar == 0.0)
        assert np.array_equal(shifted.x0_stacked(), pair_scenario.x0_stacked())

    def test_formation3_shift_moves_x0_and_coupling(self, formation3):
        shifted = shift_to_target(formation3)
        xbar, ubar = shifted.shift
        assert np.allclose(xbar, formation3.targets_stacked())
        assert np.allclose(ubar, 0.0)
        assert np.allclose(
            shifted.x0_stacked(), formation3.x0_stacked() - xbar
        )
        # shifted coupling offsets: b' = b -+ (target position differences)
        px = formation3.targets_stacked()
        # agent 1 px = index 0, agent 2 px = index 4
        diff = px[0] - px[4]
        rows = {(tuple(sorted(r.Ex)), r.b) for r in shifted.coupling.rows}
        bounds = sorted(r.b for r in shifted.coupling.rows if tuple(sorted(r.Ex)) == (0, 1))
        assert min(bounds) == pytest.approx(1.0 - abs(diff))
        assert max(bounds) == pytest.approx(1.0 + abs(diff))
        # origin strictly feasible for the shifted coupling
        assert all(r.b > 0 for r in shifted.coupling.rows)

    def test_moving_target_rejected(self):
        s = Scenario.from_dict({
            "name": "bad_target", "horizon": 3, "epsilon": 0.5,
            "agents": [{
                "A": [[1.0, 1.0], [0.0, 1.0]], "B": [[0.0], [1.0]],
                "Q": np.eye(2).tolist(), "R": [[1.0]],
                "input_poly": {"box": [[-1.0], [1.0]]},
                "x0": [0.0, 0.0],
                "target": [1.0, 0.5],  # nonzero velocity is not a fixed point
            }],
            "coupling": [],
        })
        with pytest.raises(NotEquilibrium):
            shift_to_target(s)


class TestPolytope:
    def test_box_membership(self):
        poly = Polytope.box([-1.0, -2.0], [1.0, 2.0])
        assert poly.contains([0.0, 0.0])
        assert poly.contains([1.0, 2.0])
        assert not poly.contains([1.1, 0.0])

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionError):
            Polytope(np.eye(2), np.zeros(3))


class TestRawCouplingRows:
    def test_documented_raw_form_parses(self):
        # the documented on-file form: per-agent blocks plus a shared rhs
        s = Scenario.from_dict({
            "name": "raw", "horizon": 2, "epsilon": 0.5,
            "agents": [
                {"A": [[0.5]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
                 "input_poly": {"box": [[-1.0], [1.0]]}, "x0": [0.1]},
                {"A": [[0.5]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
                 "input_poly": {"box": [[-1.0], [1.0]]}, "x0": [0.2]},
            ],
            "coupling": [{
                "agents": [0, 1],
                "Eu": {"0": [[1.0], [0.0]], "1": [[1.0], [0.0]]},
                "Ex": {"0": [[0.0], [1.0]], "1": [[0.0], [1.0]]},
                "b": [0.4, 0.9],
            }],
        })
        assert s.coupling.p == 2
        assert s.coupling.rows[0].b == 0.4
        assert np.allclose(s.coupling.rows[0].Eu[0], [1.0])
        assert np.allclose(s.coupling.rows[1].Ex[1], [1.0])

    def test_row_without_agents_rejected(self):
        with pytest.raises((ParseError, ValueError)):
            Scenario.from_dict({
                "name": "bad", "horizon": 2, "epsilon": 0.5,
                "agents": [
                    {"A": [[0.5]], "B": [[1.0]], "Q": [[1.0]], "R": [[1.0]],
                     "input_poly": {"box": [[-1.0], [1.0]]}, "x0": [0.1]},
                ],
                "coupling": [{"agents": [], "Eu": {}, "Ex": {}, "b": [1.0]}],
            })


    @pytest.mark.parametrize("item, named", [
        # an abs_state_diff item is read as the raw item it stands for
        ({"abs_state_diff": {"agents": [1, 1], "select": [[1, 0, 0, 0]],
                             "bound": [1.0]}}, "Ex names agent 1 twice"),
        # True is no agent key, although Python takes it for 1
        ({"abs_state_diff": {"agents": [True, 1], "select": [[1, 0, 0, 0]],
                             "bound": [1.0]}},
         r"agent key is not a finite int \(True\)"),
        ({"Ex": {"0": [[1, 0, 0, 0]], "00": [[0, 1, 0, 0]]}, "b": [1.0]},
         "Ex names agent 0 twice"),
        ({"Eu": {"1": [[1, 0]], "01": [[0, 1]]}, "b": [1.0]},
         "Eu names agent 1 twice"),
    ], ids=["abs_state_diff", "abs_state_diff_bool", "Ex_keys", "Eu_keys"])
    def test_agent_named_twice_rejected(self, formation3_path, item, named):
        # keyed by agent, the row would keep one of the two blocks and drop
        # the other, or turn |x_1 - x_1| <= bound into a box on x_1
        doc = json.loads(open(formation3_path).read())
        doc["coupling"].insert(0, item)
        with pytest.raises(ParseError, match=f"coupling row 0: {named}"):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize("item, key", [
        ({"Ex": {"a": [[1, 0, 0, 0]]}, "b": [1.0]}, "'a'"),
        ({"Eu": {"1.5": [[1, 0]]}, "b": [1.0]}, "'1.5'"),
        ({"abs_state_diff": {"agents": [[1], [2]], "select": [[1, 0, 0, 0]],
                             "bound": [1.0]}}, r"\[1\]"),
        ({"abs_state_diff": {"agents": [0.5, 2], "select": [[1, 0, 0, 0]],
                             "bound": [1.0]}}, "0.5"),
    ], ids=["Ex_letter", "Eu_fraction", "abs_lists", "abs_fraction"])
    def test_agent_key_not_an_integer(self, formation3_path, item, key):
        # one key parser for both item forms names the row and the key
        doc = json.loads(open(formation3_path).read())
        doc["coupling"].insert(0, item)
        with pytest.raises(ParseError, match=r"coupling row 0: agent key is not "
                           rf"(a finite int|an integer) \({key}\)"):
            Scenario.from_dict(doc)

    def test_abs_state_diff_is_its_raw_item(self, formation3):
        # the shorthand and the raw item it stands for give the same rows
        raw = [{"Ex": {"0": [[1, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 1, 0], [0, 0, -1, 0]],
                       "1": [[-1, 0, 0, 0], [1, 0, 0, 0], [0, 0, -1, 0], [0, 0, 1, 0]]},
                "b": [1.0, 1.0, 1.0, 1.0]}]
        short = [{"abs_state_diff": {"agents": [0, 1],
                                     "select": [[1, 0, 0, 0], [0, 0, 1, 0]],
                                     "bound": [1.0, 1.0]}}]
        stages = [Scenario(agents=formation3.agents, coupling=CouplingSpec.from_list(c),
                           horizon=3, epsilon=1.0).stage for c in (raw, short)]
        assert all(np.array_equal(M, N) for M, N in zip(*stages))
        assert np.array_equal(stages[0][1][:4], formation3.stage[1][:4])


class TestCouplingValidatedAtConstruction:
    # a Scenario built directly checks its coupling rows as a loaded one does:
    # formation3's 12 rows plus one bad row 12 on its 4-state agents
    @pytest.mark.parametrize("row, error", [
        (CouplingRow({}, {7: np.ones(4)}, 1.0), ParseError),      # no agent 7
        (CouplingRow({}, {0: np.ones(3)}, 1.0), DimensionError),  # 3 of 4 states
        (CouplingRow({}, {0: np.ones(4)}, float("nan")), ValueError),
        (CouplingRow({}, {}, 1.0), ParseError),                   # no agent
    ], ids=["agent_out_of_range", "short_block", "nan_bound", "no_agent"])
    def test_bad_row_rejected(self, formation3, row, error):
        with pytest.raises(error, match="coupling row 12"):
            Scenario(agents=formation3.agents,
                     coupling=CouplingSpec((*formation3.coupling.rows, row)),
                     horizon=formation3.horizon, epsilon=formation3.epsilon)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("key", ["Eu", "Ex"])
    def test_non_finite_block_rejected(self, formation3, key, bad):
        # agent 0 has 2 inputs and 4 states; one entry of its block is bad
        block = np.ones(2 if key == "Eu" else 4)
        block[1] = bad
        row = CouplingRow(**{"Eu": {}, "Ex": {}, key: {0: block}, "b": 1.0})
        with pytest.raises(ValueError, match="coupling row 12"):
            Scenario(agents=formation3.agents,
                     coupling=CouplingSpec((*formation3.coupling.rows, row)),
                     horizon=formation3.horizon, epsilon=formation3.epsilon)


class TestBoxBounds:
    @pytest.mark.parametrize("box", [
        [[-1.0, float("nan")], [1.0, 1.0]], [[-1.0, -1.0], [float("inf"), 1.0]],
        [[-float("inf"), -1.0], [1.0, 1.0]], [[-1.0, -1.0]],
        [[-1.0, -1.0], [1.0, 1.0], [2.0, 2.0]], "box",
    ], ids=["nan", "inf", "minus_inf", "one_bound", "three_bounds", "string"])
    def test_bad_box_is_parse_error(self, formation3_path, box):
        doc = json.loads(open(formation3_path).read())
        doc["agents"][0]["input_poly"] = {"box": box}
        with pytest.raises(ParseError, match=r"agent agent1: input_poly\.box"):
            Scenario.from_dict(doc)

    def test_box_of_wrong_length_names_the_field(self, formation3_path):
        doc = json.loads(open(formation3_path).read())
        doc["agents"][0]["state_poly"] = {"box": [[-1.0], [1.0]]}  # 4 states
        # the agent's constructor checks the set's dimension
        with pytest.raises(DimensionError,
                           match=r"agent agent1: state_poly has dimension 1"):
            Scenario.from_dict(doc)


def frozen_rebinds(s):
    """(object, field) for every field of every model object in s."""
    row, agent = s.coupling.rows[0], s.agents[0]
    return [(obj, f.name) for obj in (s, s.coupling, row, agent, agent.input_poly)
            for f in fields(obj)]


# every in-place change to a scenario and the error it raises
in_place_changes = pytest.mark.parametrize("change, error", [
    (lambda s: setitem(s.coupling.rows[0].Ex[0], 0, 2.0), ValueError),
    (lambda s: setattr(s.coupling.rows[1], "b", 0.9), FrozenInstanceError),
    (lambda s: setitem(s.coupling.rows[0].Eu, 2, np.ones(2)), TypeError),
    (lambda s: setitem(s.agents[0].A, (0, 0), 2.0), ValueError),
    (lambda s: setitem(s.agents[2].x0, 0, 0.35), ValueError),
    (lambda s: setitem(s.agents[1].input_poly.c, 0, 0.5), ValueError),
    (lambda s: setitem(s.agents[0].terminal_set.C, (0, 0), 0.5), ValueError),
    (lambda s: setitem(s.stage[1], (0, 0), 2.0), ValueError),
    (lambda s: s.coupling.rows.append(s.coupling.rows[0]), AttributeError),
    (lambda s: s.agents.append(s.agents[0]), AttributeError),
], ids=["row_Ex_entry", "row_b", "row_new_block", "A", "x0", "polytope_c",
        "terminal_C", "stage", "append_row", "append_agent"])


def shifted(path):
    return shift_to_target(load_scenario(path))


class TestImmutable:
    # a scenario cannot change in place, so its stage rows and digest cannot
    # go stale: every change below raises and leaves the content as loaded
    @staticmethod
    def assert_unchanged(build, path, change, error):
        s = build(path)
        stage = [M.copy() for M in s.stage]
        with pytest.raises(error):
            change(s)
        assert s.digest() == build(path).digest()
        assert all(np.array_equal(M, N) for M, N in zip(s.stage, stage))

    @in_place_changes
    def test_change_in_place_raises(self, formation3_path, change, error):
        self.assert_unchanged(load_scenario, formation3_path, change, error)

    @in_place_changes
    def test_shifted_change_in_place_raises(self, formation3_path, change,
                                            error):
        # the shifted agents, polytopes, row blocks and stage are the copies
        # that `replace` made, read-only like the loaded ones
        self.assert_unchanged(shifted, formation3_path, change, error)

    def test_rebinding_any_field_raises(self, formation3_path):
        s = load_scenario(formation3_path)
        for obj, name in frozen_rebinds(s):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))

    def test_caller_arrays_are_copied(self):
        A, B, Ex = np.array([[0.5]]), np.array([[1.0]]), np.array([1.0])
        x0, lo, blocks = np.array([0.8]), np.array([-5.0]), {0: Ex, 1: Ex}
        agents = [AgentModel(A=A, B=B, Q=np.eye(1), R=np.eye(1), P=np.eye(1),
                             input_poly=Polytope.box(lo, -lo),
                             state_poly=Polytope.unconstrained(1),
                             terminal_poly=Polytope.unconstrained(1),
                             terminal_equality=False, disturbance_bound=[0.0],
                             x0=x0) for _ in range(2)]
        rows = [CouplingRow({}, blocks, 0.3)]
        s = Scenario(agents=agents, coupling=CouplingSpec(rows), horizon=3,
                     epsilon=1.0)
        digest, stage = s.digest(), [M.copy() for M in s.stage]
        A[0, 0] = B[0, 0] = x0[0] = lo[0] = Ex[0] = 7.0
        blocks[2] = Ex
        rows.append(rows[0])
        fresh = replace(s)  # built again, so hashed and stacked again
        assert s.digest() == fresh.digest() == digest
        for kept in (s, fresh):
            assert all(np.array_equal(M, N) for M, N in zip(kept.stage, stage))
        assert s.agents[0].A[0, 0] == 0.5 and s.agents[0].x0[0] == 0.8
        assert s.agents[0].input_poly.c.tolist() == [5.0, 5.0]
        assert s.coupling.p == 1 and sorted(s.coupling.rows[0].Ex) == [0, 1]

    @pytest.mark.parametrize("field", ["A", "x0"])
    def test_caller_frozen_array_is_checked(self, formation3, field):
        # a read-only array is still the caller's, so it is checked and copied
        bad = getattr(formation3.agents[0], field).copy()
        bad.flat[0] = np.nan
        bad.setflags(write=False)
        with pytest.raises(ParseError, match="non-finite"):
            replace(formation3.agents[0], **{field: bad})


class TestIdentity:
    # the values compare and hash by identity; equal content is compared
    # with digest()
    def test_equality_is_identity(self):
        a, b = load("formation3"), load("formation3")
        assert (a == b) is False and a == a and a != b
        assert a.digest() == b.digest()

    def test_every_type_hashes(self, formation3):
        row, agent = formation3.coupling.rows[0], formation3.agents[0]
        values = (formation3, formation3.coupling, row, agent, agent.input_poly)
        assert len({hash(v) for v in values}) == 5
        assert {v: k for k, v in enumerate(values)}[agent] == 3


class TestDigestPinned:
    # the scenario file format and to_dict are unchanged, so are the digests
    def test_bundled_and_pair_digests(self, formation3):
        assert formation3.digest().startswith("503889b5e5e6")
        assert make_pair_scenario().digest().startswith("e999fb8ff150")

    def test_unchanged_copy_keeps_the_digest(self, formation3):
        copy = replace(formation3)
        assert copy is not formation3 and copy.digest() == formation3.digest()
        agents = [replace(a) for a in formation3.agents]
        assert replace(formation3, agents=agents).digest() == formation3.digest()
