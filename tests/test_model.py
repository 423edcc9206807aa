import json
import time

import numpy as np
import pytest

from dsmpc.errors import (DimensionError, NoConvergence, NotEquilibrium,
                          ParseError)
from dsmpc.model import (CouplingRow, CouplingSpec, Polytope, Scenario,
                         _matrix, _vector, load_scenario, save_scenario,
                         shift_to_target, solve_dare, validate_assumptions)

from oracles import controllable, golden_ratio


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
        ("seed", float("nan")),
    ])
    def test_non_finite_header_value_rejected(self, tmp_path, formation3_path,
                                              key, value):
        doc = json.loads(open(formation3_path).read())
        doc[key] = value
        path = tmp_path / "header.json"
        path.write_text(json.dumps(doc))  # JSON literals NaN / Infinity
        with pytest.raises(ValueError, match=key):
            load_scenario(path)

    @pytest.mark.parametrize("value", [None, [0.1], {"eps": 0.1}, "small"])
    def test_non_numeric_epsilon_is_parse_error(self, tmp_path,
                                                formation3_path, value):
        doc = json.loads(open(formation3_path).read())
        doc["epsilon"] = value
        path = tmp_path / "eps.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="epsilon"):
            load_scenario(path)


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
                     coupling=CouplingSpec(formation3.coupling.rows + [row]),
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
                     coupling=CouplingSpec(formation3.coupling.rows + [row]),
                     horizon=formation3.horizon, epsilon=formation3.epsilon)
